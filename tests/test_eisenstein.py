"""Lattice-sum evaluation, Fourier extraction, and FE checks."""

import cmath
import hashlib
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eiskit.cli import dispatch
from eiskit.core import (GroupElement, Partition, SpectralPoint,
                         power_function, rho_borel)
from eiskit.forms import FormSet, completion_factor, const_form, mock_maass_form
from eiskit.eisenstein import (
    ConvergenceError,
    FWRequest,
    check_functional_equation,
    closed_form_fourier_gl2,
    eval_eisenstein,
    extract_fourier_coefficient,
    fw_formula,
    scattering_phi,
    _coprime_pairs,
    _coset_pairs_gl3,
    _row_powers,
    _shell_sums,
    _unipotent_grid,
    _window_band,
    _windowed_sums,
)
from eiskit.specfun import zeta_completed

from coset_key import canonical_coset_form


def _borel(n):
    return Partition((1,) * n)


def _trivial_forms(n):
    return FormSet((const_form(),) * n)


def _coset_rows(hv, ha):
    """The Plucker rows (v, a) of each coset, gathered from the index pairs."""
    v_rows, a_rows, iv, ia, _ = _coset_pairs_gl3(hv, ha)
    assert iv.dtype == ia.dtype == np.int32
    return v_rows[iv], a_rows[ia]


class TestCosets:
    def test_gl2_canonical_unique(self):
        seen = set()
        for rows in _coprime_pairs(12):
            for c, d in rows.tolist():
                # a unimodular lift: a d - b c = 1
                a = pow(d, -1, c) if c else 1
                mat = np.array([[a, (a * d - 1) // c if c else 0], [c, d]])
                assert round(float(np.linalg.det(mat))) == 1
                key = canonical_coset_form(mat)
                assert key == (c, d)
                assert key not in seen
                seen.add(key)
        # coprime pairs (c,d), |c|,|d| <= H, one per +-: c>0 plus identity
        count = 1 + sum(1 for c in range(1, 13) for d in range(-12, 13)
                        if math.gcd(c, abs(d)) == 1)
        assert len(seen) == count

    @pytest.mark.parametrize("height", [1, 7, 199, 200, 201, 500])
    def test_gl2_blocks_match_gcd_enumeration(self, height):
        # the sieve's blocks against np.gcd over each c-block's (c, d) grid:
        # the same rows in the same order keep the GL(2) sums' bits
        d_all = np.arange(-height, height + 1, dtype=np.int64)
        want = [np.array([[0, 1]], np.int64)]
        for lo in range(1, height + 1, 200):
            cs = np.arange(lo, min(lo + 200, height + 1), dtype=np.int64)
            cg, dg = np.meshgrid(cs, d_all, indexing="ij")
            keep = np.gcd(cg, np.abs(dg)) == 1
            want.append(np.stack((cg[keep], dg[keep]), axis=1))
        got = list(_coprime_pairs(height))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)

    def test_gl3_complete_against_brute_force(self):
        # every unimodular matrix with bottom row and minor vector within the
        # height bound must land in an enumerated coset
        height = 2
        vs, avs = _coset_rows(height, height)
        keys = set(zip(map(tuple, vs.tolist()), map(tuple, avs.tolist())))
        rng = np.random.default_rng(2)
        found = 0
        for _ in range(300):
            # random small unimodular matrix via row operations
            mat = np.eye(3, dtype=np.int64)
            for _ in range(6):
                i, j = rng.choice(3, size=2, replace=False)
                mat[i] += int(rng.integers(-1, 2)) * mat[j]
            v = mat[2]
            a = np.cross(mat[1], mat[2])
            if max(np.abs(v)) <= height and max(np.abs(a)) <= height:
                assert canonical_coset_form(mat) in keys
                found += 1
        assert found > 50

    def test_coset_rows_gl3_against_brute_force(self):
        def box(h):
            # sign-canonical primitive vectors with sup-norm <= h
            return np.array([x for x in itertools.product(range(-h, h + 1),
                                                          repeat=3)
                             if math.gcd(*x) == 1
                             and next(c for c in x if c) > 0])

        for hv, ha in [(1, 1), (2, 9), (9, 2), (3, 3), (6, 6), (4, 7),
                       (7, 4)]:
            vbox, abox = box(hv), box(ha)
            iv, ia = np.nonzero(vbox @ abox.T == 0)
            expect = {(tuple(v), tuple(a))
                      for v, a in zip(vbox[iv].tolist(), abox[ia].tolist())}
            vs, avs = _coset_rows(hv, ha)
            got = list(zip(map(tuple, vs.tolist()), map(tuple, avs.tolist())))
            assert len(got) == len(set(got))
            assert set(got) == expect

    @pytest.mark.parametrize("hv, ha, count", [
        (12, 12, 147252), (8, 13, 78276), (13, 8, 78276)])
    def test_coset_rows_gl3_counts(self, hv, ha, count):
        # (8, 13) and (13, 8) agree by the v <-> a symmetry of the pairs
        vs, avs = _coset_rows(hv, ha)
        assert len(vs) == len(avs) == count
        assert len(np.unique(np.concatenate((vs, avs), axis=1),
                             axis=0)) == count
        assert not (vs * avs).sum(axis=1).any()

    def test_coset_pairs_in_height_order(self):
        # distinct rows; pairs in order of height max(|v|, |a|), with
        # upto[h] cosets of height <= h, so S(H // 2) sums a prefix
        v_rows, a_rows, iv, ia, upto = _coset_pairs_gl3(9, 6)
        for rows in (v_rows, a_rows):
            assert len(np.unique(rows, axis=0)) == len(rows)
        heights = np.maximum(np.abs(v_rows).max(axis=1)[iv],
                             np.abs(a_rows).max(axis=1)[ia])
        assert (np.diff(heights) >= 0).all()
        assert upto.tolist() == [np.count_nonzero(heights <= h)
                                 for h in range(10)]

    def test_cached_arrays_are_read_only(self):
        for arr in _coset_pairs_gl3(4, 4):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


class TestLatticeKernel:
    @pytest.mark.parametrize("n", [2, 3])
    def test_term_is_power_function(self, n):
        # the coset term of gamma's Plucker rows at W = g is the power
        # function |gamma g|^(s + rho) of the Borel series
        rng = np.random.default_rng(n)
        borel = _borel(n)
        for _ in range(20):
            gamma = np.eye(n, dtype=np.int64)  # in SL(n, Z) by row operations
            for _ in range(4):
                i, j = rng.choice(n, 2, replace=False)
                gamma[i] += rng.integers(-2, 3) * gamma[j]
            g = rng.normal(size=(n, n))
            vals = rng.uniform(-2, 2, n) + 1j * rng.uniform(-1, 1, n)
            s = SpectralPoint(tuple(vals - vals.mean()), borel)
            lam = SpectralPoint(tuple(v + float(r) for v, r in
                                      zip(s.values, rho_borel(n))), borel)
            rows = ((gamma[-1:],) if n == 2 else
                    (gamma[-1:], np.cross(gamma[1], gamma[2])[None]))
            # one factor per Plucker row, P[iv] Q[ia] with iv = ia = 0
            term = np.prod([f[0, 0] for f in _row_powers(g[None], s, *rows)])
            want = power_function(borel, lam, GroupElement(gamma @ g))
            assert abs(term - want) <= 1e-11 * abs(want)


class TestEval:
    def test_gl2_against_fourier_expansion(self):
        s1 = 1.5
        s = SpectralPoint((s1, -s1), _borel(2))
        for y in (0.6, 1.0, 1.7):
            g = GroupElement.from_iwasawa(np.eye(2), (y,))
            val, tail = eval_eisenstein(2, g, s, 2000)
            # coefficients are even in m, so the value at u = 0 is
            # a_0 + 2 sum_{m >= 1} a_m
            expansion = closed_form_fourier_gl2(0, s1, y)
            for m in range(1, 8):
                expansion += 2 * closed_form_fourier_gl2(m, s1, y)
            assert val == pytest.approx(expansion, rel=1e-5), y
            assert abs(val - expansion) <= tail, y

    @pytest.mark.parametrize("n, s_vals, height", [
        (2, (1.5, -1.5), 20), (3, (2.2, 0.1, -2.3), 8)])
    def test_tail_is_outer_shell_mass(self, n, s_vals, height):
        # one pass yields S(H) and the inner sum S(H // 2); the tail is
        # their difference, for both ranks
        g = GroupElement(np.diag([1.1] + [1.0] * (n - 2) + [1 / 1.1]))
        s = SpectralPoint(s_vals, _borel(n))
        val, tail = eval_eisenstein(n, g, s, height)
        inner, _ = eval_eisenstein(n, g, s, height // 2)
        assert tail == pytest.approx(abs(val - inner), rel=1e-12)

    @pytest.mark.parametrize("n, s_vals, far", [
        (2, (1.5, -1.5), 100), (3, (2.2, 0.1, -2.3), 6)])
    def test_tail_at_height_one_is_whole_sum(self, n, s_vals, far):
        # the inner sum S(1 // 2) = S(0) is empty, so the tail is |S(1)|
        # and covers the distance to a far larger height
        g = GroupElement(np.diag([1.1] + [1.0] * (n - 2) + [1 / 1.1]))
        s = SpectralPoint(s_vals, _borel(n))
        val, tail = eval_eisenstein(n, g, s, 1)
        assert tail == abs(val) > 0
        far_val, _ = eval_eisenstein(n, g, s, far)
        assert abs(far_val - val) <= tail

    def test_gl2_automorphy(self):
        # E(gamma g) = E(g) up to truncation error
        s = SpectralPoint((1.4, -1.4), _borel(2))
        g = GroupElement(np.array([[1.0, 0.37], [0.0, 1.0]])
                         @ np.diag([1.1, 1 / 1.1]))
        gamma = np.array([[2.0, 1.0], [1.0, 1.0]])
        v1, t1 = eval_eisenstein(2, g, s, 800)
        v2, t2 = eval_eisenstein(2, GroupElement(gamma @ g.entries), s, 800)
        assert abs(v1 - v2) <= 3 * (t1 + t2)

    def test_gl3_automorphy(self):
        s = SpectralPoint((2.2, 0.0, -2.2), _borel(3))
        g = GroupElement(np.array([[1.0, 0.2, -0.1],
                                   [0.0, 1.0, 0.3],
                                   [0.0, 0.0, 1.0]]) @ np.diag([1.2, 1, 1/1.2]))
        gamma = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        v1, t1 = eval_eisenstein(3, g, s, 10)
        v2, t2 = eval_eisenstein(3, GroupElement(gamma @ g.entries), s, 10)
        assert abs(v1 - v2) <= 2 * (t1 + t2)

    def test_gl3_cold_and_warm_cache_agree(self):
        # the cached index pairs give the bits of a fresh enumeration
        s = SpectralPoint((2.1 + 0.4j, 0.2 - 0.1j, -2.3 - 0.3j), _borel(3))
        g = GroupElement(np.array([[1.0, 0.3, -0.2], [0.0, 1.0, 0.1],
                                   [0.0, 0.0, 1.0]]) @ np.diag([1.3, 1, 0.9]))
        _coset_pairs_gl3.cache_clear()
        cold = eval_eisenstein(3, g, s, 9)
        assert _coset_pairs_gl3.cache_info().currsize == 1
        assert eval_eisenstein(3, g, s, 9) == cold
        assert _coset_pairs_gl3.cache_info().hits >= 1

    def test_gl3_height_consistency(self):
        s = SpectralPoint((2, 0, -2), _borel(3))
        g = GroupElement.identity(3)
        v1, t1 = eval_eisenstein(3, g, s, 8)
        v2, t2 = eval_eisenstein(3, g, s, 12)
        assert abs(v1 - v2) <= 2 * (t1 + t2)

    def test_divergent_point_rejected(self):
        with pytest.raises(ConvergenceError):
            eval_eisenstein(2, GroupElement.identity(2),
                            SpectralPoint((0.3, -0.3), _borel(2)), 10)

    def test_height_below_one_rejected(self):
        s = SpectralPoint((2, 0, -2), _borel(3))
        g = GroupElement.identity(3)
        req = FWRequest(partition=_borel(3), forms=_trivial_forms(3),
                        M=(1, 1), s=s, g=g)
        with pytest.raises(ValueError, match="height"):
            eval_eisenstein(3, g, s, 0)
        with pytest.raises(ValueError, match="height"):
            extract_fourier_coefficient(3, req, height=0, quad_nodes=4)

    def test_group_element_of_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="expected 3 x 3"):
            eval_eisenstein(3, GroupElement.identity(2),
                            SpectralPoint((2, 0, -2), _borel(3)), 5)
        with pytest.raises(ValueError, match="partition has n = 2"):
            FWRequest(partition=_borel(2), forms=_trivial_forms(2), M=(1,),
                      s=SpectralPoint((1.5, -1.5), _borel(2)),
                      g=GroupElement.identity(3))

    def test_huge_well_conditioned_g_overflows(self):
        # every row norm is at least 1e200: the conditioning check must not
        # itself overflow, and the sum's own error names the overflow
        with np.errstate(over="ignore"):  # det g = 1e400
            g = GroupElement(np.diag([1e200, 1e200]))
        with pytest.raises(ValueError, match="overflows"):
            eval_eisenstein(2, g, SpectralPoint((2, -2), _borel(2)), 4)

    @pytest.mark.parametrize("nodes", [0, -3])
    def test_node_count_below_one_rejected(self, nodes):
        req = FWRequest(partition=_borel(2), forms=_trivial_forms(2), M=(1,),
                        s=SpectralPoint((1.5, -1.5), _borel(2)),
                        g=GroupElement.identity(2))
        with pytest.raises(ValueError, match="quad_nodes"):
            extract_fourier_coefficient(2, req, height=5, quad_nodes=nodes)


class TestClosedForms:
    def test_scattering_phi_functional_relation(self):
        # phi(s) phi(1-s) = 1
        for s in (0.75 + 2j, 1.2, 0.3 - 5j):
            assert scattering_phi(s) * scattering_phi(1 - s) == pytest.approx(
                1.0, rel=1e-10)

    def test_constant_term_fe(self):
        # constant term invariant under s1 -> -s1 after completion
        rng = np.random.default_rng(8)
        for _ in range(20):
            s1 = complex(rng.uniform(0.6, 2.0), rng.uniform(-3, 3))
            y = rng.uniform(0.3, 3.0)
            left = (zeta_completed(2 * s1 + 1)
                    * closed_form_fourier_gl2(0, s1, y))
            right = (zeta_completed(-2 * s1 + 1)
                     * closed_form_fourier_gl2(0, -s1, y))
            assert abs(left - right) <= 1e-8 * max(1.0, abs(left))

    def test_nonzero_coefficient_fe(self):
        # completed m-th coefficient invariant under s1 -> -s1
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = int(rng.integers(1, 9))
            s1 = complex(rng.uniform(0.6, 1.8), rng.uniform(-3, 3))
            y = rng.uniform(0.4, 2.5)
            left = (zeta_completed(2 * s1 + 1)
                    * closed_form_fourier_gl2(m, s1, y))
            right = (zeta_completed(-2 * s1 + 1)
                     * closed_form_fourier_gl2(m, -s1, y))
            assert abs(left - right) <= 1e-8 * max(abs(left), 1.0)


class TestGL2RecordedValues:
    """GL(2) sums against the values the benchmark records.

    The GL(2) coefficients cancel to ~1e-4 of the series, so their last
    digits depend on the summation order (the 200-wide c-blocks of
    `_coprime_pairs`); the benchmark holds them to 1e-12 relative.
    """

    RECORDED = json.loads((Path(__file__).resolve().parents[1] / "bench"
                           / "reference_values.json").read_text())["gl2"]
    ARGV = {
        "extract-gl2-readme": ["extract", "--partition", "1,1", "--s",
                               "1.5,-1.5", "--m", "1", "--height", "500",
                               "--nodes", "64"],
        "extract-gl2-s2-m2": ["extract", "--partition", "1,1", "--s", "2",
                              "--m", "2", "--height", "500", "--nodes", "64"],
        "eval-gl2-readme": ["eval", "--partition", "1,1", "--s", "1.5,-1.5",
                            "--height", "100"],
    }

    @pytest.mark.parametrize("op", ARGV)
    def test_matches_recorded_value(self, capsys, op):
        assert dispatch(self.ARGV[op]) == 0
        doc = json.loads(capsys.readouterr().out)
        got = complex(doc["value"]["re"], doc["value"]["im"])
        want = complex(*self.RECORDED[op])
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)


class TestGL2SumBits:
    """The GL(2) shell sums S(H) and S(H // 2), bit for bit.

    `_shell_sums` takes each 200-wide c-block of `_coprime_pairs` in row
    chunks of `_ROW_ENTRIES` (row, grid point) entries.  The pins were
    recorded from whole-block tables, before the chunking: each is a
    SHA-256 prefix of the bytes of both sums and the float.hex of the real
    part of their first entries.  The bits also depend on numpy's exp and
    log, which differ between its SIMD paths; the whole-block comparison
    checks the summation order on any machine.
    """

    G = [[1.3, 0.4], [0.2, 0.9]]
    # (nodes, H, s1, g): (digest, hex of S(H)[0], hex of S(H // 2)[0]).
    # after the (0, 1) block, 64 nodes at H = 500 take 300 chunks in 3
    # c-blocks and 7 nodes at H = 450 take 28; a single grid matrix (the
    # eval path) keeps each block whole, 2 blocks at H = 100 and 4 at 600
    PINS = {
        (64, 500, 2.0, None): ("9f649194b5889117", "0x1.2a2e2b5956d7dp+1",
                               "0x1.2a2e2b1793b03p+1"),
        (7, 450, 1.1 + 0.5j, "G"): ("c4a80cf42a6884f8",
                                    "0x1.71e14274a9849p+1",
                                    "0x1.71bf21fcb4c2ep+1"),
        (1, 100, 1.5, "diag"): ("b1b27389f5f67e77", "0x1.75438476363e3p+1",
                                "0x1.753bd58c0fb32p+1"),
        (1, 600, 1.5, "diag"): ("0ac9ef4d2ae8b1e7", "0x1.75461113c9e85p+1",
                                "0x1.7545d92d0dfa1p+1"),
    }

    def _grid(self, nodes, g):
        g = {None: np.eye(2), "G": np.array(self.G),
             "diag": np.diag([1.1, 1 / 1.1])}[g]
        return g[None] if nodes == 1 else _unipotent_grid(2, nodes, g, (1,))[0]

    @pytest.mark.parametrize("case", PINS)
    def test_recorded_bits(self, case):
        nodes, height, s1, g = case
        s = SpectralPoint((s1, -s1), _borel(2))
        total, inner = _shell_sums(2, self._grid(nodes, g), s, height)
        digest = hashlib.sha256(total.tobytes() + inner.tobytes())
        got = (digest.hexdigest()[:16], total.view(float)[0].hex(),
               inner.view(float)[0].hex())
        assert got == self.PINS[case]

    @pytest.mark.parametrize("case", [*PINS, (2, 300, 1.5, "G")])
    def test_same_order_as_whole_blocks(self, case):
        # one (rows, grid) table per c-block, each summed by numpy at once
        nodes, height, s1, g = case
        w = self._grid(nodes, g)
        s = SpectralPoint((s1, -s1), _borel(2))
        total = inner = 0.0
        for v in _coprime_pairs(height):
            terms, = _row_powers(w, s, v)
            total = total + terms.sum(axis=0)
            inner = inner + terms[np.abs(v).max(axis=1) <= height // 2].sum(
                axis=0)
        got_total, got_inner = _shell_sums(2, w, s, height)
        assert np.array_equal(got_total, total)
        assert np.array_equal(got_inner, inner)

    def test_extraction_peak_memory(self):
        # the README extraction: whole c-blocks held three (rows x 64)
        # tables of ~61 MB each, a traced peak near 190 MB
        req = FWRequest(_borel(2), _trivial_forms(2), (1,),
                        SpectralPoint((1.5, -1.5), _borel(2)),
                        GroupElement.identity(2))
        tracemalloc.start()
        try:
            extract_fourier_coefficient(2, req, height=500, quad_nodes=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, peak


class TestExtractionGL2:
    def test_matches_closed_forms_mid_height(self):
        g = GroupElement.from_iwasawa(np.eye(2), (1.0,))
        s = SpectralPoint((1.5, -1.5), _borel(2))
        forms = _trivial_forms(2)
        for m in (0, 1, 2):
            req = FWRequest(partition=_borel(2), forms=forms, M=(m,), s=s, g=g)
            val = extract_fourier_coefficient(2, req, height=200,
                                              quad_nodes=64)
            closed = closed_form_fourier_gl2(m, 1.5, 1.0)
            assert val == pytest.approx(closed, rel=2e-4), m

    def test_odd_node_count(self):
        # no half grid to compare with; the extrapolated value stands alone
        g = GroupElement.identity(2)
        s = SpectralPoint((1.5, -1.5), _borel(2))
        req = FWRequest(partition=_borel(2), forms=_trivial_forms(2),
                        M=(1,), s=s, g=g)
        val = extract_fourier_coefficient(2, req, height=200, quad_nodes=63)
        assert val == pytest.approx(closed_form_fourier_gl2(1, 1.5, 1.0),
                                    rel=1e-4)

    def test_off_lattice_point(self):
        # coefficient at x0 != 0 picks up the phase e(2 pi i m x0)
        x0, y = 0.3, 0.8
        g = GroupElement.from_iwasawa(np.array([[1, x0], [0, 1]]), (y,))
        s = SpectralPoint((1.5, -1.5), _borel(2))
        req = FWRequest(partition=_borel(2), forms=_trivial_forms(2),
                        M=(1,), s=s, g=g)
        val = extract_fourier_coefficient(2, req, height=200, quad_nodes=64)
        closed = (closed_form_fourier_gl2(1, 1.5, y)
                  * cmath.exp(2j * math.pi * x0))
        assert val == pytest.approx(closed, rel=1e-4)

    @pytest.mark.parametrize("m", [1, 2])
    def test_complex_s_extrapolation(self, m):
        # the truncation bias goes as H^(1-2 s1): only the complex ratio
        # 2^(2 s1 - 1) cancels it (the real ratio 2^(2 Re s1 - 1) leaves
        # 1.7e-4 at m = 1 and 4.0e-3 at m = 2, worse than no extrapolation)
        s1, y = 1.1 + 0.5j, 0.8
        g = GroupElement.from_iwasawa(np.eye(2), (y,))
        s = SpectralPoint((s1, -s1), _borel(2))
        req = FWRequest(partition=_borel(2), forms=_trivial_forms(2),
                        M=(m,), s=s, g=g)
        val = extract_fourier_coefficient(2, req, height=500, quad_nodes=64)
        assert val == pytest.approx(closed_form_fourier_gl2(m, s1, y),
                                    rel=1e-5)


class TestExtractionGL3:
    """The smooth-window sum at a small height: its periodicity in the
    unipotent coordinates, its agreement with the sum over every coset, and
    the extracted coefficient, with the window band F folded into the row
    factors, against the factored formula at the slow test's tolerance."""

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 2), (0, 2)])
    def test_windowed_sum_is_periodic(self, i, j):
        # W -> n W with n an integer unipotent permutes the cosets and keeps
        # |vW| and |a cof(W)|, so the window weights move with the terms:
        # the sum at u g and at n u g agree up to summation order.  One call
        # takes both matrices, so its rows cover the window at each.
        rng = np.random.default_rng(10 * i + j)
        u = np.eye(3)
        u[0, 1], u[1, 2], u[0, 2] = rng.uniform(-0.5, 0.5, 3)
        n = np.eye(3)
        n[i, j] = 1.0
        w = u @ np.diag([1.2, 1.0, 1 / 1.2])
        s = SpectralPoint((2.1 + 0.4j, 0.2 - 0.1j, -2.3 - 0.3j), _borel(3))
        at_w, at_nw = _windowed_sums(np.stack([w, n @ w]), s, 4)
        assert abs(at_w - at_nw) <= 1e-12 * abs(at_w), (at_w, at_nw)

    @pytest.mark.parametrize("s", [(2.4, 0.1, -2.5),
                                   (2.1 + 0.4j, 0.2 - 0.1j, -2.3 - 0.3j)])
    def test_windowed_sum_skips_only_zero_terms(self, s):
        # every coset of the window cover, unfiltered, against the sum that
        # skips the cosets with a row outside the window throughout a grid
        # slice; 69 grid matrices make two slices of the grid
        height = 4
        rng = np.random.default_rng(4)
        g = np.array([[1.1, 0.2, -0.3], [0.1, 0.9, 0.2], [-0.2, 0.1, 1.0]])
        w_mats = np.concatenate([
            _unipotent_grid(3, 4, g, (1, 1))[0],
            np.eye(3) + rng.uniform(-0.4, 0.4, (5, 3, 3))])
        got = _windowed_sums(w_mats, SpectralPoint(s, _borel(3)), height)
        sv = np.linalg.svd(w_mats, compute_uv=False)
        dets = np.abs(np.linalg.det(w_mats))
        v, a = _coset_rows(math.ceil(height / sv[:, 2].min()),
                           math.ceil(height * (sv[:, 0] / dets).max()))
        # the term F(|vW| / H) F(|a cof W| / H) prod_i a_i^(s_i + rho_i)
        # over the Iwasawa diagonal a of gamma W: |vW| = a_3,
        # |a cof W| = a_2 a_3 and |det W| = a_1 a_2 a_3
        lam = [x + float(r) for x, r in zip(s, rho_borel(3))]
        xs, band = _window_band()
        for k, w in enumerate(w_mats):
            cof = np.linalg.det(w) * np.linalg.inv(w).T
            a3 = np.linalg.norm(v @ w, axis=1)
            a23 = np.linalg.norm(a @ cof, axis=1)
            weight = (np.interp(a3 / height, xs, band)
                      * np.interp(a23 / height, xs, band))
            terms = (a3 ** (lam[2] - lam[1]) * a23 ** (lam[1] - lam[0])
                     * dets[k] ** lam[0])
            want = (weight * terms).sum()
            assert abs(got[k] - want) <= 1e-13 * abs(want), (k, got[k], want)

    @staticmethod
    def _want(s_values):
        """The request at g = 1, M = (1, 1), and its raw coefficient."""
        p, forms = _borel(3), _trivial_forms(3)
        s = SpectralPoint(s_values, p)
        req = FWRequest(p, forms, (1, 1), s, GroupElement.identity(3))
        completion = completion_factor(p, forms, s, truncation=4000).value
        return req, fw_formula(req) / completion

    def test_complex_point(self):
        req, want = self._want((2.1 + 0.4j, 0.2 - 0.1j, -2.3 - 0.3j))
        got = extract_fourier_coefficient(3, req, height=8, quad_nodes=6)
        assert abs(got - want) <= 5e-2 * abs(want), (got, want)

    def test_real_point_through_cli(self, capsys):
        # a one-entry GL(3) --m is padded to (m, 1)
        code = dispatch(["extract", "--partition", "1,1,1", "--s",
                         "2.4,0.1,-2.5", "--m", "1", "--height", "8",
                         "--nodes", "6"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == [1, 1]
        got = complex(doc["value"]["re"], doc["value"]["im"])
        _, want = self._want((2.4, 0.1, -2.5))
        assert abs(got - want) <= 5e-2 * abs(want), (got, want)


class TestFWFormula:
    def test_gl2_calibration_record(self):
        # at the reference point m=1, s1=1.5, y=1 the completion factor is
        # zeta*(4), and dividing it out of the factored coefficient gives the
        # closed form of the raw lattice sum
        g = GroupElement.from_iwasawa(np.eye(2), (1.0,))
        s = SpectralPoint((1.5, -1.5), _borel(2))
        req = FWRequest(partition=_borel(2), forms=_trivial_forms(2),
                        M=(1,), s=s, g=g)
        completion = completion_factor(_borel(2), _trivial_forms(2), s,
                                       truncation=4000).value
        assert completion == pytest.approx(zeta_completed(4.0), rel=1e-12)
        assert fw_formula(req) / completion == pytest.approx(
            closed_form_fourier_gl2(1, 1.5, 1.0), rel=1e-10)

    def test_gl2_m_scaling(self):
        # fw tracks the closed forms in m at the reference s
        g = GroupElement.from_iwasawa(np.eye(2), (1.0,))
        s = SpectralPoint((1.5, -1.5), _borel(2))
        completion = completion_factor(_borel(2), _trivial_forms(2), s,
                                       truncation=4000).value
        for m in (2, 3, 5):
            req = FWRequest(partition=_borel(2), forms=_trivial_forms(2),
                            M=(m,), s=s, g=g)
            assert fw_formula(req) / completion == pytest.approx(
                closed_form_fourier_gl2(m, 1.5, 1.0), rel=1e-8), m

    def test_gl2_raw_coefficient_is_completed_over_completion_factor(self):
        # the E* coefficient divided by the completion factor zeta*(2 s1 + 1)
        # is the coefficient of the raw lattice sum, at every s, m and y
        for s1, m, y in itertools.product((1.2, 1.5, 2.0, 1.1 + 0.5j),
                                          (1, 2, 3, 6), (0.7, 1.0, 1.6)):
            g = GroupElement.from_iwasawa(np.eye(2), (y,))
            s = SpectralPoint((s1, -s1), _borel(2))
            req = FWRequest(partition=_borel(2), forms=_trivial_forms(2),
                            M=(m,), s=s, g=g)
            completion = completion_factor(_borel(2), _trivial_forms(2), s,
                                           truncation=4000).value
            assert fw_formula(req) / completion == pytest.approx(
                closed_form_fourier_gl2(m, s1, y), rel=1e-10), (s1, m, y)

    def test_rejects_m_zero(self):
        req = FWRequest(partition=_borel(2), forms=_trivial_forms(2),
                        M=(0,), s=SpectralPoint((1.5, -1.5), _borel(2)),
                        g=GroupElement.identity(2))
        with pytest.raises(ValueError):
            fw_formula(req)


class TestFunctionalEquation:
    def test_symbolic_borel_gl3_all_sigma(self):
        import itertools
        p = _borel(3)
        forms = _trivial_forms(3)
        s = SpectralPoint((0.4, 0.1, -0.5), p)
        for sigma in itertools.permutations(range(3)):
            rep = check_functional_equation(p, forms, s, sigma,
                                            mode="symbolic")
            assert rep.passed, sigma

    def test_symbolic_p12_p21(self):
        p = Partition((1, 2))
        phi = mock_maass_form(2, 1)
        forms = FormSet((const_form(), phi))
        s = SpectralPoint.from_leading(p, [0.8])
        rep = check_functional_equation(p, forms, s, (1, 0), mode="symbolic")
        assert rep.passed
        assert tuple(rep.metadata["sigma_partition"]) == (2, 1)

    def test_symbolic_p22_swap(self):
        p = Partition((2, 2))
        forms = FormSet((mock_maass_form(2, 1), mock_maass_form(2, 2)))
        s = SpectralPoint.from_leading(p, [0.6])
        rep = check_functional_equation(p, forms, s, (1, 0), mode="symbolic")
        assert rep.passed

    def test_numeric_gl2(self):
        p = _borel(2)
        forms = _trivial_forms(2)
        s = SpectralPoint((1.5, -1.5), p)
        rep = check_functional_equation(p, forms, s, (1, 0), mode="numeric")
        assert rep.passed, rep.rel_residual
