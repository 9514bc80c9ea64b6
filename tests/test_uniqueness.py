"""Exact affine-symmetry decisions, enumeration, and falsification."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from eiskit import uniqueness
from eiskit.cli import dispatch
from eiskit.core import Partition
from eiskit.forms import FormSet, FormSpec, const_form, mock_maass_form
from eiskit.uniqueness import (
    AffineMap,
    UniquenessVerdict,
    affine_map_from_json,
    affine_map_to_json,
    decide_affine_symmetry,
    enumerate_permutation_symmetries,
    random_falsification,
)
from witness_check import record_rejected_maps, refutes

BOREL3 = Partition((1, 1, 1))
BLOCKS3 = Partition((3,))


class TestDecision:
    def test_plain_permutation_accepted(self):
        for sigma in itertools.permutations(range(3)):
            mu = AffineMap.permutation(sigma)
            verdict = decide_affine_symmetry(BOREL3, BLOCKS3, mu)
            assert verdict.accepted
            assert verdict.permutation == sigma

    def test_kernel_shifted_rows_accepted(self):
        # adding t * (weight vector) to any row acts trivially on the
        # constraint hyperplane; the same permutation must be recovered
        sigma = (1, 2, 0)
        base = AffineMap.permutation(sigma)
        rows = [list(r) for r in base.A]
        rows[0] = [v + Fraction(3, 7) for v in rows[0]]
        rows[2] = [v - Fraction(1, 2) for v in rows[2]]
        verdict = decide_affine_symmetry(
            BOREL3, BLOCKS3, AffineMap(tuple(tuple(r) for r in rows), base.b))
        assert verdict.accepted
        assert verdict.permutation == sigma

    def test_weighted_kernel_direction(self):
        part = Partition((2, 1))
        blocks = Partition((1, 1))
        rows = [[Fraction(1) + 2 * Fraction(1, 5), Fraction(1, 5)],
                [Fraction(0), Fraction(1)]]
        mu = AffineMap(tuple(tuple(r) for r in rows), (Fraction(0),) * 2)
        # row 0 is e_0 + (1/5) w with w = (2, 1), the partition's parts
        assert decide_affine_symmetry(part, blocks, mu).accepted

    def test_perturbed_identity_rejected(self):
        rows = [[Fraction(1), Fraction(1, 8), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(1)]]
        verdict = decide_affine_symmetry(
            BOREL3, BLOCKS3,
            AffineMap(tuple(tuple(r) for r in rows), (Fraction(0),) * 3))
        assert not verdict.accepted
        assert verdict.witness["reason"] == "row is not a shifted basis vector"

    def test_nonzero_shift_rejected(self):
        mu = AffineMap.permutation((0, 1, 2),
                                   shift=(Fraction(1, 8), 0, 0))
        verdict = decide_affine_symmetry(BOREL3, BLOCKS3, mu)
        assert not verdict.accepted
        assert verdict.witness["reason"] == "nonzero effective shift"

    def test_block_crossing_rejected(self):
        blocks = Partition((2, 1))
        mu = AffineMap.permutation((2, 1, 0))
        verdict = decide_affine_symmetry(BOREL3, blocks, mu)
        assert not verdict.accepted
        assert verdict.witness["reason"] == "assignment crosses blocks"

    def test_non_bijection_rejected(self):
        rows = [[Fraction(1), Fraction(0), Fraction(0)],
                [Fraction(1), Fraction(0), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(1)]]
        mu = AffineMap(tuple(tuple(r) for r in rows), (Fraction(0),) * 3)
        verdict = decide_affine_symmetry(BOREL3, BLOCKS3, mu)
        assert not verdict.accepted
        assert verdict.witness["reason"] == "assignment is not a bijection"

    def test_kernel_quotient_random_shifts(self):
        # 50 random kernel perturbations of random block permutations all
        # recover the same underlying permutation
        rng = random.Random(11)
        part = Partition((1, 1, 1, 1))
        blocks = Partition((2, 2))
        sigmas = [(1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2), (0, 1, 2, 3)]
        for _ in range(50):
            sigma = sigmas[rng.randrange(4)]
            base = AffineMap.permutation(sigma)
            rows = [list(r) for r in base.A]
            for i in range(4):
                t = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                rows[i] = [v + t for v in rows[i]]
            verdict = decide_affine_symmetry(
                part, blocks,
                AffineMap(tuple(tuple(r) for r in rows), base.b))
            assert verdict.accepted and verdict.permutation == sigma

    def test_completeness_small_rank(self):
        # for r <= 3, brute-force numeric screening agrees with the exact
        # decision over a pool of random rational maps
        rng = random.Random(3)
        part = Partition((1, 1, 1))
        for _ in range(200):
            rows = tuple(tuple(Fraction(rng.randint(-2, 2))
                               + (Fraction(rng.randint(-2, 2), 4)
                                  if rng.random() < 0.3 else 0)
                               for _ in range(3)) for _ in range(3))
            mu = AffineMap(rows, (Fraction(0),) * 3)
            verdict = decide_affine_symmetry(part, BLOCKS3, mu)
            # numeric screen: divisor sums at random hyperplane points
            agree = True
            for _ in range(4):
                s1 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                s2 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                s = [s1, s2, -s1 - s2]
                mu_s = [sum(float(rows[i][k]) * s[k] for k in range(3))
                        for i in range(3)]
                p = rng.uniform(2.0, 9.0)
                lhs = sum(p ** v for v in s)
                rhs = sum(p ** v for v in mu_s)
                if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
                    agree = False
                    break
            if verdict.accepted:
                assert agree
            # a rejected map must fail the numeric screen generically; allow
            # rare numeric coincidences only when the exact decision accepts


class TestEnumeration:
    def test_borel_gl3_trivial_forms(self):
        forms = FormSet((const_form(),) * 3)
        out = enumerate_permutation_symmetries(forms)
        assert sorted(out) == sorted(itertools.permutations(range(3)))

    def test_p22_distinct_forms(self):
        forms = FormSet((mock_maass_form(2, 1), mock_maass_form(2, 2)))
        assert enumerate_permutation_symmetries(forms) == [(0, 1)]

    def test_p22_equal_forms(self):
        phi = mock_maass_form(2, 1)
        forms = FormSet((phi, phi))
        assert sorted(enumerate_permutation_symmetries(forms)) == [
            (0, 1), (1, 0)]

    def test_forms_sharing_a_name_are_not_equal(self):
        # a form carrying mock:2's data under mock:1's name, as a JSON form
        # may, is a different form from mock:1
        impostor = dataclasses.replace(mock_maass_form(2, 2), name="mock2:1")
        genuine = mock_maass_form(2, 1)
        assert impostor.name == genuine.name
        assert impostor != genuine
        forms = FormSet((genuine, impostor))
        assert enumerate_permutation_symmetries(forms) == [(0, 1)]

    def test_mixed_partition(self):
        # P = (1, 2, 1): positions 0 and 2 hold the same form, non-adjacent,
        # so sigma = (2, 1, 0) still qualifies
        forms = FormSet((const_form(), mock_maass_form(2, 1), const_form()))
        out = enumerate_permutation_symmetries(forms)
        assert sorted(out) == [(0, 1, 2), (2, 1, 0)]

    def test_r6_mixed_forms_against_all_permutations(self):
        # the defining filter over all 6! permutations, same list and order
        names = ("a", "b", "a", "c", "b", "a")
        forms = FormSet(tuple(FormSpec(name=nm, degree=1) for nm in names))
        expect = [sigma for sigma in itertools.permutations(range(6))
                  if all(names[sigma[i]] == names[i] for i in range(6))]
        assert len(expect) == 12  # 3! 2! 1!
        assert enumerate_permutation_symmetries(forms) == expect


class TestFalsification:
    def test_all_rejected(self, monkeypatch):
        maps = record_rejected_maps(monkeypatch)
        report = random_falsification(BOREL3, BLOCKS3, trials=100, seed=7)
        assert report.trials == 100
        assert report.rejections == 100
        assert report.all_rejected
        assert [w["trial"] for w in report.witnesses] == list(range(100))
        for w in report.witnesses:
            assert refutes(BOREL3, BLOCKS3, maps[w["trial"]], w), w

    def test_witnesses_at_non_integer_points(self, monkeypatch):
        # a last part n_r = 2 puts half-integers into s
        part, blocks = Partition((1, 1, 2, 2)), Partition((2, 2))
        maps = record_rejected_maps(monkeypatch)
        report = random_falsification(part, blocks, trials=50, seed=3)
        assert report.all_rejected
        assert any(w["s"][-1][1] == 2 for w in report.witnesses)
        for w in report.witnesses:
            assert refutes(part, blocks, maps[w["trial"]], w), w

    def test_deterministic_in_seed(self):
        r1 = random_falsification(BOREL3, BLOCKS3, trials=5, seed=42)
        r2 = random_falsification(BOREL3, BLOCKS3, trials=5, seed=42)
        assert r1.witnesses == r2.witnesses

    def test_recorded_witnesses(self, monkeypatch):
        # exact rationals drawn from the seeded random.Random: no platform
        # can move them
        part, blocks = Partition((2, 1, 1)), Partition((1, 2))
        maps = record_rejected_maps(monkeypatch)
        report = random_falsification(part, blocks, trials=4, seed=5)
        reason = "row is not a shifted basis vector"
        assert list(report.witnesses) == [
            {"trial": 0, "block": 0,
             "s": [[921715, 1], [819193, 1], [-2662623, 1]],
             "reason": reason},
            {"trial": 1, "block": 0,
             "s": [[-651965, 1], [962499, 1], [341431, 1]],
             "reason": reason},
            {"trial": 2, "block": 0,
             "s": [[-962110, 1], [151474, 1], [1772746, 1]],
             "reason": reason},
            {"trial": 3, "block": 0,
             "s": [[-923179, 1], [-91983, 1], [1938341, 1]],
             "reason": reason},
        ]
        for w in report.witnesses:
            assert refutes(part, blocks, maps[w["trial"]], w), w

    def test_unrefuted_map_is_not_rejected(self, monkeypatch, capsys):
        # a true symmetry that the decision wrongly rejects has no witness,
        # so the trial does not count and falsify exits 1
        monkeypatch.setattr(uniqueness, "_random_affine",
                            lambda rng, r: AffineMap.permutation((1, 0, 2)))
        monkeypatch.setattr(
            uniqueness, "decide_affine_symmetry",
            lambda partition, blocks, mu: UniquenessVerdict(
                accepted=False, witness={"reason": "forced"}))
        report = random_falsification(BOREL3, BLOCKS3, trials=3, seed=7)
        assert report.rejections < report.trials
        assert not report.all_rejected
        assert dispatch(["falsify", "--partition", "1,1,1",
                         "--trials", "3"]) == 1
        assert json.loads(capsys.readouterr().out)["all_rejected"] is False


class TestJSON:
    def test_affine_map_roundtrip(self):
        mu = AffineMap(
            ((Fraction(1, 3), Fraction(-2)), (Fraction(0), Fraction(5, 7))),
            (Fraction(-1, 8), Fraction(0)))
        text = affine_map_to_json(mu)
        assert affine_map_from_json(text) == mu
        doc = json.loads(text)
        assert doc["A"][0][0] == [1, 3]

    def test_verdict_json_schema(self, tmp_path, capsys):
        map_file = tmp_path / "mu.json"
        mu = AffineMap.permutation((1, 0, 2))
        map_file.write_text(affine_map_to_json(mu))
        code = dispatch(["uniqueness", "--partition", "1,1,1",
                         "--map", str(map_file)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["accepted"] is True
        assert doc["permutation"] == [1, 0, 2]


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decide_affine_symmetry(Partition((1, 1)), BLOCKS3,
                                   AffineMap.permutation((0, 1)))

    def test_block_mixing_part_sizes(self):
        # slots of one form have one degree: a block over parts (1, 2) is
        # malformed, not a block the swap could preserve
        part, blocks = Partition((1, 2)), Partition((2,))
        with pytest.raises(ValueError, match="mixes parts"):
            decide_affine_symmetry(part, blocks, AffineMap.permutation((1, 0)))
        with pytest.raises(ValueError, match="mixes parts"):
            random_falsification(part, blocks, trials=3, seed=7)

    def test_bad_rational(self):
        with pytest.raises(TypeError):
            AffineMap(((0.5,),), (Fraction(0),))
