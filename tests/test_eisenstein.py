"""Lattice-sum evaluation, Fourier extraction, and FE checks."""

import cmath
import hashlib
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from eiskit.cli import dispatch
from eiskit.core import (GroupElement, Partition, SpectralPoint,
                         langlands_parameter, power_function, rho_borel)
from eiskit.forms import FormSet, completion_factor, const_form, mock_maass_form
from eiskit.eisenstein import (
    FWRequest,
    check_functional_equation,
    closed_form_fourier_gl2,
    eval_eisenstein,
    extract_fourier_coefficient,
    fw_formula,
    _ROW_ENTRIES,
    _SUM_BLOCK,
    _TABLE_BLOCK,
    _coprime_pairs,
    _coset_pairs_gl3,
    _mirror_layout,
    _pair_sums,
    _powers,
    _row_factors,
    _row_powers,
    _shell_sums,
    _unipotent_grid,
    _window_band,
    _window_weight,
    _window_powers,
    _windowed_sums,
)
from eiskit.hecke import eis_hecke_eigenvalue
from eiskit.specfun import zeta_completed

from coset_key import canonical_coset_form


def _borel(n):
    return Partition((1,) * n)


def _trivial_forms(n):
    return FormSet((const_form(),) * n)


def _gcd_blocks(height):
    """The GL(2) rows (0, 1), then the coprime (c, d) of each 200-wide
    c-block in (c, d) order, by np.gcd over the block's (c, d) grid."""
    d_all = np.arange(-height, height + 1, dtype=np.int64)
    blocks = [np.array([[0, 1]], np.int64)]
    for lo in range(1, height + 1, 200):
        cs = np.arange(lo, min(lo + 200, height + 1), dtype=np.int64)
        cg, dg = np.meshgrid(cs, d_all, indexing="ij")
        keep = np.gcd(cg, np.abs(dg)) == 1
        blocks.append(np.stack((cg[keep], dg[keep]), axis=1))
    return blocks


def _sequential_sums(w, s, height):
    """S(H) and S(H // 2) at the grid matrices `w`, every term computed at
    every matrix and each c-block's rows added one after another (np.cumsum
    keeps every partial sum, so it cannot reorder them), in slices of 4096
    rows, the blocks then added in turn."""
    half = height // 2
    total = inner = 0.0
    for v in _gcd_blocks(height):
        sums = []
        for rows in (v, v[np.abs(v).max(axis=1) <= half]):
            acc = np.zeros(len(w))  # a block without rows adds 0
            for lo in range(0, len(rows), 4096):
                terms, = _row_powers(w, s, rows[lo:lo + 4096])
                if lo:
                    terms[0] += acc
                acc = np.cumsum(terms, axis=0)[-1]
            sums.append(acc)
        total = total + sums[0]
        inner = inner + sums[1]
    return total, inner


def _is_mirror(wa, wb):
    """Each column of wa is +- the same column of diag(1, -1) wb, exactly."""
    sb = wb * [[1.0], [-1.0]]
    return all(np.array_equal(wa[:, k], sb[:, k])
               or np.array_equal(wa[:, k], -sb[:, k]) for k in range(2))


def _coset_rows(hv, ha):
    """The Plucker rows (v, a) of each coset, gathered from the index pairs."""
    v_rows, a_rows, iv, ia, _ = _coset_pairs_gl3(hv, ha)
    assert iv.dtype == ia.dtype == np.int32
    return v_rows[iv], a_rows[ia]


class TestCosets:
    def test_gl2_canonical_unique(self):
        seen = set()
        for rows in itertools.chain.from_iterable(_coprime_pairs(12, 7)):
            for c, d in rows.astype(np.int64).tolist():
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
        # the same rows in the same order keep the GL(2) sums' bits.  Each
        # block comes in float chunks of `step` rows, the last one shorter,
        # ready for `_norm_sq`'s matmul
        want = _gcd_blocks(height)
        for step in (1, 7, 1024, 200 * (2 * height + 1)):
            got = [list(block) for block in _coprime_pairs(height, step)]
            assert len(got) == len(want)
            for chunks, w in zip(got, want):
                assert [len(v) for v in chunks] == [
                    len(w[lo:lo + step]) for lo in range(0, len(w), step)]
                assert all(v.dtype == np.float64 for v in chunks)
                assert np.array_equal(np.concatenate(chunks), w)
        # with `mirror`, each block's rows with d >= 0 only, in runs of
        # whole c: each c's rows after its spare row (c, -1), each run closed
        # by a copy of its first spare and as long as `step` allows, a longer
        # c alone in its run
        for step in (1, 7, 1024, 200 * (2 * height + 1)):
            got = [list(block) for block in _coprime_pairs(height, step,
                                                           mirror=True)]
            assert len(got) == len(want)
            for chunks, w in zip(got, want):
                rows = []
                for i, v in enumerate(chunks):
                    assert v.dtype == np.float64
                    assert v[0, 1] == -1 and np.array_equal(v[-1], v[0])
                    spares = np.flatnonzero(v[:-1, 1] == -1)
                    runs = np.diff(np.append(spares, len(v) - 1))
                    assert np.array_equal(np.repeat(v[spares, 0], runs),
                                          v[:-1, 0])
                    assert len(v) <= step or len(spares) == 1
                    if i + 1 < len(chunks):
                        # the next chunk's first c (and its spare) is too long
                        nxt = np.flatnonzero(chunks[i + 1][:-1, 1] == -1)
                        first = nxt[1] if len(nxt) > 1 else len(
                            chunks[i + 1]) - 1
                        assert len(v) + first > step
                    rows.append(v[:-1][v[:-1, 1] >= 0])
                assert np.array_equal(np.concatenate(rows), w[w[:, 1] >= 0])

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

    # SHA-256 prefixes of the dtype and bytes of (V, A, iv, ia, upto),
    # recorded when the cosets of one sigma-orbit were first mapped to the
    # rest: they pin the order of the pairs within a height shell, which
    # sets the last bits of the GL(3) sums.  The arrays are integers, so
    # the pins hold on any machine
    PAIR_PINS = {(12, 12): "23ce51b1f12a093b", (8, 13): "1ab532326f173f23",
                 (13, 8): "66da1f64f94d87a6", (20, 20): "847bba34730574ae"}

    # SHA-256 prefixes of the int64 bytes of the (v, a) rows of the pairs
    # in lexicographic order, then of upto: the coset set and the shell
    # sizes, whatever the order within a shell.  Recorded with the
    # three-pivot enumeration that the sigma-orbit one replaced
    SET_PINS = {(12, 12): "4b55749fb8ff275d", (8, 13): "312f3fb9b6c3aef0",
                (13, 8): "b4c39994be45c2f7", (20, 20): "1970ef4fed15dcf1"}

    @pytest.mark.parametrize("hv, ha", PAIR_PINS)
    def test_coset_pairs_recorded_bytes(self, hv, ha):
        digest = hashlib.sha256()
        for arr in _coset_pairs_gl3(hv, ha):
            digest.update(arr.dtype.str.encode())
            digest.update(arr.tobytes())
        assert digest.hexdigest()[:16] == self.PAIR_PINS[hv, ha]

    @pytest.mark.parametrize("hv, ha", SET_PINS)
    def test_coset_pairs_recorded_set(self, hv, ha):
        v_rows, a_rows, iv, ia, upto = _coset_pairs_gl3(hv, ha)
        keys = np.concatenate((v_rows[iv], a_rows[ia]),
                              axis=1).astype(np.int64)
        digest = hashlib.sha256(keys[np.lexsort(keys.T[::-1])].tobytes())
        digest.update(upto.astype(np.int64).tobytes())
        assert digest.hexdigest()[:16] == self.SET_PINS[hv, ha]

    def test_coset_pairs_peak_memory(self):
        # the three-pivot enumeration sorted every pair by an int64 argsort
        # and permuted copies, a traced peak of 38.4 MB at (20, 20); one
        # sigma-orbit sorted and mapped shell by shell peaks near 14 MB
        _coset_pairs_gl3.cache_clear()
        tracemalloc.start()
        try:
            _coset_pairs_gl3(20, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, peak

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
            want = power_function(lam, GroupElement(gamma @ g))
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
        with pytest.raises(ValueError, match=r"^need Re\(s_i - s_\{i\+1\}\) "
                                             "> 1 for absolute convergence$"):
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

    def test_request_at_n_one_rejected(self):
        # at n = 1, M = () holds no m to read
        with pytest.raises(ValueError, match="n >= 2"):
            FWRequest(_borel(1), _trivial_forms(1), (),
                      SpectralPoint((0,), _borel(1)),
                      GroupElement.identity(1))

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

    def test_critical_line_against_mpmath(self):
        # s = 1/2 + 20i puts K_s(10 pi) at an order comparable to its
        # argument; every factor of the reference is built in mpmath
        with mp.workdps(30):
            s1 = mp.mpc(0.5, 20)
            zeta_star = (mp.pi ** (-(2 * s1 + 1) / 2)
                         * mp.gamma((2 * s1 + 1) / 2) * mp.zeta(2 * s1 + 1))
            want = complex(2 * (1 + mp.mpf(5) ** (2 * s1)) * mp.mpf(5) ** (-s1)
                           * mp.besselk(s1, 10 * mp.pi) / zeta_star)
        got = closed_form_fourier_gl2(5, 0.5 + 20j, 1.0)
        assert got == pytest.approx(want, rel=1e-10, abs=0)

    def test_rejects_bad_y(self):
        with pytest.raises(ValueError, match="^need y > 0"):
            closed_form_fourier_gl2(1, 1.5, 0.0)


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

    `_shell_sums` streams each 200-wide c-block of `_coprime_pairs`: over
    a grid in runs of whole c of the rows with d >= 0, each grid matrix's
    terms of d < 0 read from its mirror's (`_mirror_layout`; the table
    holds the mirror of each unpaired matrix), and at a single grid matrix
    in row chunks of `_ROW_ENTRIES` = 2^16 rows.  The pins were
    recorded from whole-block tables, before the chunking, and the last one
    from chunked blocks read from one full coprimality mask, before the
    streaming: each is a SHA-256 prefix of the bytes of both sums and the
    float.hex of the real part of their first entries.  The bits also
    depend on numpy's exp and log, which differ between its SIMD paths; the
    comparison against a reference built here checks the summation order on
    any machine.  The last three were recorded before `_norm_sq` read
    contiguous columns and `_powers` skipped an all-zero shift, which is
    what identity g gives: at complex s, over a grid and at a single
    matrix, and a diagonal g at an odd node count.  A single grid matrix
    sums each chunk of 2^16 rows pairwise; the (1, 600) pin was recorded
    once its blocks streamed in such chunks, the others at one matrix have
    blocks of at most 2^16 rows, whose bits the chunking keeps.
    """

    G = [[1.3, 0.4], [0.2, 0.9]]
    # (nodes, H, s1, g): (digest, hex of S(H)[0], hex of S(H // 2)[0]).
    # after the (0, 1) block, 64 nodes at H = 500 take 183 runs in 3
    # c-blocks and 7 nodes at H = 450, without mirror pairs, 30 runs; a
    # single grid matrix (the eval path) takes one chunk per block at
    # H = 100 and 200, and at H = 600 9 chunks in 3 c-blocks.  At 96 nodes
    # and g = G a run of 192 table columns holds 403 rows, the c = 1 run
    # at H = 400 (401 rows and two spares), past 2^16 table entries
    PINS = {
        (64, 500, 2.0, None): ("9f649194b5889117", "0x1.2a2e2b5956d7dp+1",
                               "0x1.2a2e2b1793b03p+1"),
        (7, 450, 1.1 + 0.5j, "G"): ("c4a80cf42a6884f8",
                                    "0x1.71e14274a9849p+1",
                                    "0x1.71bf21fcb4c2ep+1"),
        (1, 100, 1.5, "diag"): ("b1b27389f5f67e77", "0x1.75438476363e3p+1",
                                "0x1.753bd58c0fb32p+1"),
        (1, 600, 1.5, "diag"): ("6f1998ab57ff93c4", "0x1.75461113c9e86p+1",
                                "0x1.7545d92d0dfa1p+1"),
        (96, 400, 1.2 + 0.3j, "G"): ("671a85ae1e959532",
                                     "0x1.915f23d6d8cdbp+1",
                                     "0x1.916d5ba79afcap+1"),
        (32, 300, 1.3 + 0.2j, None): ("d70cc643806e32c1",
                                      "0x1.72c61027e8b59p+1",
                                      "0x1.72ca34f989fcap+1"),
        (1, 200, 1.25 - 0.4j, None): ("40b7a8989b11a4db",
                                      "0x1.69c5770c125cep+1",
                                      "0x1.69d484636e780p+1"),
        (9, 350, 1.4, "diag"): ("4c096ab50a8ae745", "0x1.7f12e98b7c11dp+1",
                                "0x1.7f10e32f40108p+1"),
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

    @staticmethod
    def _carried(acc, terms):
        # the running sum added into the first row, then numpy's sum
        if acc is not None and len(terms):
            terms[0] += acc
        return terms.sum(axis=0) if acc is None or len(terms) else acc

    @pytest.mark.parametrize("case", [*PINS, (2, 300, 1.5, "G")])
    def test_same_order_as_whole_blocks(self, case):
        # a grid adds each c-block's rows one after another, which
        # `_sequential_sums` checks in slices; a single grid matrix's
        # one-column table is summed pairwise, so its blocks are cut into
        # chunks of 2^16 rows, each carrying the block's running sum (and
        # its inner rows the inner one) in its first row
        nodes, height, s1, g = case
        w = self._grid(nodes, g)
        s = SpectralPoint((s1, -s1), _borel(2))
        got_total, got_inner = _shell_sums(2, w, s, height)
        if nodes > 1:
            total, inner = _sequential_sums(w, s, height)
        else:
            total = inner = 0.0
            step = 1 << 16
            for v in _gcd_blocks(height):
                terms, = _row_powers(w, s, v)
                keep = np.abs(v).max(axis=1) <= height // 2
                acc = acc_inner = None
                for lo in range(0, len(v), step):
                    chunk = terms[lo:lo + step]
                    chunk_inner = chunk[keep[lo:lo + step]]
                    acc = self._carried(acc, chunk)
                    acc_inner = self._carried(acc_inner, chunk_inner)
                total = total + acc
                inner = inner + acc_inner
        assert np.array_equal(got_total, total)
        assert np.array_equal(got_inner, inner)

    # (nodes, H, s1, g, unpaired grid matrices): odd nodes at g = 1, where
    # all but u = 0 pair up and u = 0 is its own mirror; even nodes, whose
    # u = -1/2 pairs with nothing; a diagonal g; complex s; a lower-left g
    # entry, so no mirrors; a shifted grid with two pairs and three unpaired;
    # a c = 1 run (1101 rows, 2 spares) past 2^16 table entries at 64
    # nodes, which the tables grow to hold; and H = 1, 2 and 3, where at
    # H = 1 the inner sum keeps no row of the (0, 1) block but its
    # closing spare
    MIRRORED = [(9, 300, 1.5, None, 0), (16, 300, 1.5, None, 1),
                (12, 250, 1.4, "diag", 1), (10, 300, 1.2 + 0.3j, None, 1),
                (8, 300, 1.5, [[1.0, 0.3], [0.0, 1.0]], 8),
                (8, 300, 1.5, [[1.0, -0.125], [0.0, 1.0]], 3),
                (64, 1100, 1.5, None, 1),
                (5, 1, 1.5, None, 0), (4, 1, 1.5, None, 1),
                (3, 2, 1.2 + 0.3j, None, 0), (6, 2, 1.5, "diag", 1),
                (7, 3, 1.5, "diag", 0), (2, 3, 1.5, None, 1)]

    @pytest.mark.parametrize("case", MIRRORED)
    def test_mirrored_sums_match_sequential(self, case):
        nodes, height, s1, g, unpaired = case
        w = (_unipotent_grid(2, nodes, np.array(g), (1,))[0]
             if isinstance(g, list) else self._grid(nodes, g))
        s = SpectralPoint((s1, -s1), _borel(2))
        (mats, _, shift), = _row_factors(w, s)
        order, n = _mirror_layout(mats, shift)
        assert n == unpaired
        assert sorted(order) == list(range(nodes))
        # reversing the order past the unpaired matrices maps each to its
        # mirror
        assert all(_is_mirror(w[a], w[b])
                   for a, b in zip(order[n:], order[n:][::-1]))
        if nodes == 64:
            assert height + 1 + 2 > _ROW_ENTRIES // (nodes + n)
        got_total, got_inner = _shell_sums(2, w, s, height)
        want_total, want_inner = _sequential_sums(w, s, height)
        assert np.array_equal(got_total, want_total)
        assert np.array_equal(got_inner, want_inner)

    def test_one_ulp_breaks_a_mirror(self):
        # u = -5/16 (index 3) mirrors u = 5/16 (index 13) exactly; one ulp
        # off, both are unpaired, beside u = -1/2, and the sums still match
        s = SpectralPoint((1.3 + 0.2j, -1.3 - 0.2j), _borel(2))
        w = self._grid(16, None)
        assert _is_mirror(w[3], w[13])
        w[3, 0, 1] = np.nextafter(w[3, 0, 1], 1.0)
        assert not _is_mirror(w[3], w[13])
        (mats, _, shift), = _row_factors(w, s)
        order, n = _mirror_layout(mats, shift)
        assert n == 3 and sorted(order[:n]) == [0, 3, 13]
        got_total, got_inner = _shell_sums(2, w, s, 150)
        want_total, want_inner = _sequential_sums(w, s, 150)
        assert np.array_equal(got_total, want_total)
        assert np.array_equal(got_inner, want_inner)

    @pytest.mark.parametrize("width", [2, 3, 33, 64])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_reversed_view_sum_is_row_after_row(self, dtype, width):
        # `_mirror_sums` needs numpy to add the rows of a view with negative
        # row (and column) stride one after another, into a row of the same
        # table, as it does for a C-ordered table of >= 2 columns; a numpy
        # that reorders such a reduction fails here by name
        rng = np.random.default_rng(width)
        shape = (700, width + 3)
        t = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, shape)
        if dtype is complex:
            t = t + 1j * rng.normal(size=shape) * 10.0 ** rng.integers(
                -12, 12, shape)
        for view in (t[600:99:-1, :width], t[:, ::-1][600:99:-1, :width],
                     t[99:600, 3:]):
            want = view[0].copy()
            for row in view[1:]:
                want = want + row
            out = t[650, :width]
            np.add.reduce(view, axis=0, out=out)
            assert np.array_equal(out, want)
            # the data tells the two orders apart
            assert not np.array_equal(np.add.reduce(view[::-1], axis=0),
                                      want)

    def test_extraction_peak_memory(self):
        # the README extraction, and a taller one: whole c-blocks held
        # (rows x 64) tables of ~61 MB each, a traced peak near 190 MB;
        # chunked blocks read from one (H + 1)^2 mask peaked at 9.2 and
        # 29 MB; streamed rows through reused tables peak near 2 MB
        req = FWRequest(_borel(2), _trivial_forms(2), (1,),
                        SpectralPoint((1.5, -1.5), _borel(2)),
                        GroupElement.identity(2))
        for height, nodes in [(500, 64), (1500, 8)]:
            tracemalloc.start()
            try:
                extract_fourier_coefficient(2, req, height=height,
                                            quad_nodes=nodes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3e6, (height, nodes, peak)

    def test_eval_peak_memory(self):
        # at one grid matrix whole c-blocks of up to 366,000 rows peaked
        # near 35 MB at H = 1500; chunks of 2^16 rows peak near 6 MB
        s = SpectralPoint((1.5, -1.5), _borel(2))
        tracemalloc.start()
        try:
            eval_eisenstein(2, GroupElement.identity(2), s, 1500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak


class TestGL3SumBits:
    """The GL(3) pair sums, bit for bit, against the fancy-index gathers.

    Each reference is built here from the block expression
    (p[iv[lo:hi]] * q[ia[lo:hi]]).sum(axis=0), summed block by block over
    `_SUM_BLOCK` pairs, and its row powers from |p M|^2 accumulated onto a
    zero table, so the comparison holds on any machine.
    """

    RECORDED = json.loads((Path(__file__).resolve().parents[1] / "bench"
                           / "reference_values.json").read_text())["gl3_eval"]

    @staticmethod
    def _blocked(p, q, iv, ia):
        total = np.zeros(p.shape[1], np.result_type(p, q))
        for lo in range(0, len(iv), _SUM_BLOCK):
            hi = lo + _SUM_BLOCK
            total += (p[iv[lo:hi]] * q[ia[lo:hi]]).sum(axis=0)
        return total

    @staticmethod
    def _norm_sq(rows, mats):
        p = rows.astype(float)
        out = np.zeros((len(p), len(mats)))
        for j in range(mats.shape[2]):
            col = p @ mats[:, :, j].T
            col *= col
            out += col
        return out

    @pytest.mark.parametrize("height", [12, 15])
    @pytest.mark.parametrize("pool", ["real_diagonal", "complex_unipotent"])
    def test_shell_sums(self, pool, height):
        point = self.RECORDED[pool][0]
        s = SpectralPoint(tuple(complex(*z) for z in point["s"]), _borel(3))
        w = np.array(point["g"])[None]
        v_rows, a_rows, iv, ia, upto = _coset_pairs_gl3(height, height)
        p, q = (_powers(self._norm_sq(rows, mats), e, shift)
                for rows, (mats, e, shift)
                in zip((v_rows, a_rows), _row_factors(w, s)))
        cut = upto[height // 2]
        inner = self._blocked(p, q, iv[:cut], ia[:cut])
        total = inner + self._blocked(p, q, iv[cut:], ia[cut:])
        got_total, got_inner = _shell_sums(3, w, s, height)
        assert np.array_equal(got_total, total)
        assert np.array_equal(got_inner, inner)

    def test_windowed_sums(self):
        height = 6
        w, _ = _unipotent_grid(3, 6, np.diag([1.2, 1.0, 1 / 1.2]), (1, 1))
        s = SpectralPoint((2.4, 0.1, -2.5), _borel(3))
        svals = np.linalg.svd(w, compute_uv=False)
        cover_v = height / svals[:, 2].min()
        cover_a = height * (svals[:, 0] / np.abs(np.linalg.det(w))).max()
        v_rows, a_rows, iv, ia, _ = _coset_pairs_gl3(math.ceil(cover_v),
                                                     math.ceil(cover_a))
        factors = _row_factors(w, s)
        step = max(1, min(64, _TABLE_BLOCK // (len(v_rows) + len(a_rows))))
        assert step < len(w)  # more than one grid slice
        series = []
        for lo in range(0, len(w), step):
            grid = slice(lo, lo + step)
            (near_v, p), (near_a, q) = (
                _window_powers(rows, mats[grid], e, shift[grid], height)
                for rows, (mats, e, shift) in zip((v_rows, a_rows), factors))
            near = near_v[iv] & near_a[ia]
            series.append(self._blocked(p, q, iv[near], ia[near]))
        assert np.array_equal(_windowed_sums(w, s, height),
                              np.concatenate(series))

    @pytest.mark.parametrize("pairs", [0, 1, _SUM_BLOCK, _SUM_BLOCK + 1])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_pair_sums(self, dtype, pairs):
        rng = np.random.default_rng(pairs)
        p, q = (rng.normal(size=(rows, 1)).astype(dtype) for rows in (50, 70))
        if dtype is complex:
            p.imag, q.imag = rng.normal(size=p.shape), rng.normal(size=q.shape)
        iv = rng.integers(0, len(p), pairs).astype(np.int32)
        ia = rng.integers(0, len(q), pairs).astype(np.int32)
        got = _pair_sums(p, q, iv, ia)
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, self._blocked(p, q, iv, ia))

    def test_pair_index_out_of_range_raises(self):
        p, q = np.ones((5, 1)), np.ones((7, 1))
        with pytest.raises(IndexError):
            _pair_sums(p, q, np.array([0, 5], np.int32), np.zeros(2, np.int32))


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

    @pytest.mark.parametrize("height", [8, 10, 12])
    def test_window_weight_is_interp(self, height):
        # the direct index reads np.interp's bits: at every node, just below
        # the window edge (where sqrt(sq) / H rounds up to 1 at H = 10) and
        # at random points
        band = _window_band()
        xs = np.linspace(0.0, 1.0, len(band))
        sq = np.concatenate([
            (xs[:-1] * height) ** 2,
            [np.nextafter(float(height * height), 0.0)],
            np.random.default_rng(height).uniform(0, height * height, 10**6)])
        want = np.interp(np.sqrt(sq) / height, xs, band)
        assert np.array_equal(_window_weight(sq, height), want)

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
        band = _window_band()
        xs = np.linspace(0.0, 1.0, len(band))
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
    def _want(s_values, m=1):
        """The request at g = 1, M = (m, 1), and its raw coefficient."""
        p, forms = _borel(3), _trivial_forms(3)
        s = SpectralPoint(s_values, p)
        req = FWRequest(p, forms, (m, 1), s, GroupElement.identity(3))
        completion = completion_factor(forms, s)
        return req, fw_formula(req) / completion

    def test_complex_point(self):
        req, want = self._want((2.1 + 0.4j, 0.2 - 0.1j, -2.3 - 0.3j))
        got = extract_fourier_coefficient(3, req, height=8, quad_nodes=6)
        assert abs(got - want) <= 5e-2 * abs(want), (got, want)

    def test_non_diagonal_g(self):
        # g = u a with x_12 = 0.3, x_23 = 0.45: both sides carry the phase
        # e(x_12 + x_23) of M = (1, 1), and the extraction sums at a, so
        # the truncation error is a's.  At this y it falls in H: 1.48e-1 at
        # H = 8, 7.04e-2 at H = 10, then 2.74e-2, 1.23e-2 and 4.28e-3 at
        # H = 12, 13 and 14.  The test runs at the top of that scan, not at
        # the first H inside the tolerance
        p, forms = _borel(3), _trivial_forms(3)
        s = SpectralPoint((2.4, 0.1, -2.5), p)
        u = np.array([[1, 0.3, 0], [0, 1, 0.45], [0, 0, 1]])
        g = GroupElement(u @ np.diag([1.3, 1, 1 / 1.3]))
        req = FWRequest(p, forms, (1, 1), s, g)
        want = fw_formula(req) / completion_factor(forms, s)
        got = extract_fourier_coefficient(3, req, height=14, quad_nodes=6)
        assert abs(got - want) <= 5e-2 * abs(want), (got, want)

    def test_real_point_through_cli(self, capsys):
        # a one-entry GL(3) --m is padded to (m, 1), and --nodes defaults to
        # 6 with the node-doubling diagnostic
        code = dispatch(["extract", "--partition", "1,1,1", "--s",
                         "2.4,0.1,-2.5", "--m", "1", "--height", "8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == [1, 1]
        assert doc["nodes"] == 6 and doc["node_doubling"] is True
        got = complex(doc["value"]["re"], doc["value"]["im"])
        _, want = self._want((2.4, 0.1, -2.5))
        assert abs(got - want) <= 5e-2 * abs(want), (got, want)

    def test_m2_default_nodes_through_cli(self, capsys):
        # --m 2 defaults to 4m + 2 = 10 nodes: on 6 nodes the half grid of 3
        # folds the (-1, 1) mode, 1300 times this coefficient, onto (2, 1)
        # and the node-doubling check exits 2.  The value is 27% off the
        # formula, the truncation error of so small a coefficient at H = 8
        # (24 nodes give 2.3265e-8 against this grid's 2.3239e-8)
        code = dispatch(["extract", "--partition", "1,1,1", "--s",
                         "2.4,0.1,-2.5", "--m", "2", "--height", "8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nodes"] == 10 and doc["node_doubling"] is True
        got = complex(doc["value"]["re"], doc["value"]["im"])
        _, want = self._want((2.4, 0.1, -2.5), m=2)
        assert abs(got - want) <= 0.3 * abs(want), (got, want)


class TestTorusRule:
    """FWRequest's torus rule: the coefficient at g = x a k is
    e(sum_i M_i x_{i,i+1}) times the coefficient at a.  Extraction reads x
    and a off g's Iwasawa form and sums on the grid u a only, so the rule
    holds to rounding, where a quadrature on the grid u g misses it by its
    own discretisation error (1.7e-7 relative at x_12 = 0.3, H = 300)."""

    @staticmethod
    def _extract(s_values, m, g, height, nodes):
        n = len(s_values)
        p = _borel(n)
        req = FWRequest(p, _trivial_forms(n), m, SpectralPoint(s_values, p),
                        GroupElement(g))
        return extract_fourier_coefficient(n, req, height=height,
                                           quad_nodes=nodes)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("x0, theta", [(0.3, 0.0), (0.15, 0.4)])
    def test_gl2(self, m, x0, theta):
        # theta != 0 rotates g = x a k, which gives g a lower-left entry
        a = np.diag([1.2, 1 / 1.2])
        k = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        g = np.array([[1.0, x0], [0.0, 1.0]]) @ a @ k
        got = self._extract((1.5, -1.5), (m,), g, 300, 64)
        want = (cmath.exp(2j * math.pi * m * x0)
                * self._extract((1.5, -1.5), (m,), a, 300, 64))
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)

    def test_gl3(self):
        # `test_non_diagonal_g`'s g, with the phase e(x_12 + x_23)
        u = np.array([[1, 0.3, 0], [0, 1, 0.45], [0, 0, 1]])
        a = np.diag([1.3, 1, 1 / 1.3])
        s = (2.4, 0.1, -2.5)
        got = self._extract(s, (1, 1), u @ a, 8, 6)
        want = (cmath.exp(2j * math.pi * 0.75)
                * self._extract(s, (1, 1), a, 8, 6))
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)


class TestFWFormula:
    def test_gl2_calibration_record(self):
        # at the reference point m=1, s1=1.5, y=1 the completion factor is
        # zeta*(4), and dividing it out of the factored coefficient gives the
        # closed form of the raw lattice sum
        g = GroupElement.from_iwasawa(np.eye(2), (1.0,))
        s = SpectralPoint((1.5, -1.5), _borel(2))
        req = FWRequest(partition=_borel(2), forms=_trivial_forms(2),
                        M=(1,), s=s, g=g)
        completion = completion_factor(_trivial_forms(2), s)
        assert completion == pytest.approx(zeta_completed(4.0), rel=1e-12)
        assert fw_formula(req) / completion == pytest.approx(
            closed_form_fourier_gl2(1, 1.5, 1.0), rel=1e-10)

    def test_gl2_m_scaling(self):
        # fw tracks the closed forms in m at the reference s
        g = GroupElement.from_iwasawa(np.eye(2), (1.0,))
        s = SpectralPoint((1.5, -1.5), _borel(2))
        completion = completion_factor(_trivial_forms(2), s)
        for m in (2, 3, 5):
            req = FWRequest(partition=_borel(2), forms=_trivial_forms(2),
                            M=(m,), s=s, g=g)
            assert fw_formula(req) / completion == pytest.approx(
                closed_form_fourier_gl2(m, 1.5, 1.0), rel=1e-8), m

    def test_gl2_raw_coefficient_is_completed_over_completion_factor(self):
        # the E* coefficient divided by the completion factor zeta*(2 s1 + 1)
        # is the coefficient of the raw lattice sum, at every s, m, x0 and y;
        # off the diagonal it carries the phase e(m x0)
        for s1, m, x0, y in itertools.product(
                (1.2, 1.5, 2.0, 1.1 + 0.5j), (1, 2, 3, 6), (0.0, 0.3),
                (0.7, 1.0, 1.6)):
            g = GroupElement.from_iwasawa(np.array([[1, x0], [0, 1]]), (y,))
            s = SpectralPoint((s1, -s1), _borel(2))
            req = FWRequest(partition=_borel(2), forms=_trivial_forms(2),
                            M=(m,), s=s, g=g)
            completion = completion_factor(_trivial_forms(2), s)
            closed = (closed_form_fourier_gl2(m, s1, y)
                      * cmath.exp(2j * math.pi * m * x0))
            assert fw_formula(req) / completion == pytest.approx(
                closed, rel=1e-10), (s1, m, x0, y)

    def test_gl3_phase(self):
        # fw_formula at u a is e(m x_12 + x_23) times fw_formula at a
        p, forms = _borel(3), _trivial_forms(3)
        s = SpectralPoint((2.4, 0.1, -2.5), p)
        u = np.array([[1, 0.3, 0], [0, 1, 0.45], [0, 0, 1]])
        a = np.diag([1.3, 1, 1 / 1.3])
        for m in (1, 2):
            at_ua, at_a = (fw_formula(FWRequest(p, forms, (m, 1), s,
                                                GroupElement(h)))
                           for h in (u @ a, a))
            phase = cmath.exp(2j * math.pi * (m * 0.3 + 0.45))
            assert abs(at_ua / at_a - phase) <= 1e-12, m

    def test_rejects_m_zero(self):
        req = FWRequest(partition=_borel(2), forms=_trivial_forms(2),
                        M=(0,), s=SpectralPoint((1.5, -1.5), _borel(2)),
                        g=GroupElement.identity(2))
        with pytest.raises(ValueError):
            fw_formula(req)


class TestDatum:
    """The partition is read from the spectral point, so a point of another
    partition than the forms' degrees is refused, not evaluated."""

    FORMS12 = FormSet((const_form(), mock_maass_form(2, 3)))
    S21 = SpectralPoint((0.4, -0.8), Partition((2, 1)))

    @pytest.mark.parametrize("call", [
        lambda f, s: eis_hecke_eigenvalue(f, s, 12),
        completion_factor,
        langlands_parameter,
        lambda f, s: check_functional_equation(f, s, (1, 0)),
        lambda f, s: check_functional_equation(f, s, (1, 0), "numeric"),
    ], ids=["eigenvalue", "completion", "langlands", "fe-symbolic",
            "fe-numeric"])
    def test_forms_of_another_partition(self, call):
        with pytest.raises(ValueError, match="degree"):
            call(self.FORMS12, self.S21)

    def test_eigenvalue_gl2_forms_gl3_point(self):
        # zip would drop s_3: the value at s = (2.4, 0.1, -2.5) would read
        # as that of (2.4, 0.1), which is off the GL(2) hyperplane
        s = SpectralPoint((2.4, 0.1, -2.5), _borel(3))
        with pytest.raises(ValueError, match="partition of length 3"):
            eis_hecke_eigenvalue(_trivial_forms(2), s, 12)

    def test_request_point_of_another_partition(self):
        for part, forms, s, n in (
                (Partition((1, 2)), self.FORMS12, self.S21, 3),
                (_borel(2), _trivial_forms(2),
                 SpectralPoint((2.4, 0.1, -2.5), _borel(3)), 2)):
            with pytest.raises(ValueError, match="different partition"):
                FWRequest(part, forms, (1,) * (n - 1), s,
                          GroupElement.identity(n))


class TestFunctionalEquation:
    def test_symbolic_borel_gl3_all_sigma(self):
        import itertools
        p = _borel(3)
        forms = _trivial_forms(3)
        s = SpectralPoint((0.4, 0.1, -0.5), p)
        for sigma in itertools.permutations(range(3)):
            rep = check_functional_equation(forms, s, sigma, mode="symbolic")
            assert rep.passed, sigma

    def test_symbolic_p12_p21(self):
        p = Partition((1, 2))
        phi = mock_maass_form(2, 1)
        forms = FormSet((const_form(), phi))
        s = SpectralPoint.from_leading(p, [0.8])
        rep = check_functional_equation(forms, s, (1, 0), mode="symbolic")
        assert rep.passed
        assert tuple(rep.metadata["sigma_partition"]) == (2, 1)

    def test_unknown_mode(self):
        s = SpectralPoint((0.4, -0.4), _borel(2))
        with pytest.raises(ValueError, match="^unknown mode 'exact'$"):
            check_functional_equation(_trivial_forms(2), s, (1, 0),
                                      mode="exact")

    def test_symbolic_p22_swap(self):
        p = Partition((2, 2))
        forms = FormSet((mock_maass_form(2, 1), mock_maass_form(2, 2)))
        s = SpectralPoint.from_leading(p, [0.6])
        rep = check_functional_equation(forms, s, (1, 0), mode="symbolic")
        assert rep.passed

    def test_numeric_gl2(self):
        p = _borel(2)
        forms = _trivial_forms(2)
        s = SpectralPoint((1.5, -1.5), p)
        rep = check_functional_equation(forms, s, (1, 0), mode="numeric")
        assert rep.passed, rep.rel_residual
