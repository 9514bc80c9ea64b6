"""Command-line interface: exit codes, output formats, determinism."""

import importlib
import inspect
import json
import math
import pkgutil

import numpy as np
import pytest

import eiskit
from eiskit import cli
from eiskit.cli import dispatch
from eiskit.core import GroupElement, Partition, SpectralPoint
from eiskit.eisenstein import (FWRequest, eval_eisenstein,
                               extract_fourier_coefficient)
from eiskit.forms import (DEFAULT_TRUNCATION, FormSet, const_form,
                          form_to_json, mock_maass_form)
from eiskit.uniqueness import AffineMap, affine_map_to_json


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _mock_with_alpha(alpha) -> str:
    """The form-spec JSON of mock:1 (degree 2) with `alpha` in place."""
    doc = json.loads(form_to_json(mock_maass_form(2, 1)))
    return json.dumps({**doc, "alpha": alpha})


def assert_usage_error(code, err):
    assert code == 2
    assert err.startswith("error:")
    assert "\n" not in err.strip()


class TestRho:
    def test_borel_gl3(self, capsys):
        code, out, _ = run(capsys, "rho", "--partition", "1,1,1",
                           "--kind", "borel")
        assert code == 0
        assert out.strip() == "[1, 0, -1]"

    def test_fractions_printed_exactly(self, capsys):
        code, out, _ = run(capsys, "rho", "--partition", "1,1",
                           "--kind", "borel")
        assert code == 0
        assert out.strip() == "[1/2, -1/2]"

    def test_only_requested_kind_evaluated(self, capsys, monkeypatch):
        # rho_borel(3000000) alone would take seconds and hundreds of MB
        def refuse(n):
            raise AssertionError("rho_borel evaluated for --kind parabolic")

        monkeypatch.setattr(cli, "rho_borel", refuse)
        code, out, _ = run(capsys, "rho", "--partition", "3000000",
                           "--kind", "parabolic")
        assert code == 0
        assert out.strip() == "[0]"

    def test_bad_partition_exits_2(self, capsys):
        code, _, err = run(capsys, "rho", "--partition", "1,x")
        assert code == 2
        assert err.strip().startswith("error:")
        assert "\n" not in err.strip()


class TestDivisorSum:
    def test_m_one_prints_1(self, capsys):
        code, out, _ = run(capsys, "divisor-sum", "--partition", "1,1",
                           "--s", "1.5,-1.5", "--m", "1")
        assert code == 0
        assert out.strip() == "1"

    def test_gl2_divisor_value(self, capsys):
        # borel GL(2): m^{s2} sigma_{s1 - s2}(m); at s = (1, -1), m = 6:
        # 6^{-1} * sigma_2(6) = 50/6
        code, out, _ = run(capsys, "divisor-sum", "--partition", "1,1",
                           "--s", "1,-1", "--m", "6")
        assert code == 0
        assert complex(out.strip()).real == pytest.approx(50 / 6, rel=1e-15)

    def test_deterministic(self, capsys):
        args = ("divisor-sum", "--partition", "1,2",
                "--forms", "const,mock:3", "--s", "0.8", "--m", "12")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestCheckFE:
    def test_symbolic_pass_exits_0(self, capsys):
        code, out, _ = run(capsys, "check-fe", "--partition", "1,1,1",
                           "--forms", "const,const,const",
                           "--s", "0.4,0.1,-0.5", "--sigma", "2,1,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["passed"] is True

    def test_numeric_mode(self, capsys):
        code, out, _ = run(capsys, "check-fe", "--partition", "1,1",
                           "--forms", "const,const", "--s", "1.5,-1.5",
                           "--sigma", "2,1", "--mode", "numeric")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["rel_residual"] <= 1e-6
        # the L-series length is fixed, and reported
        assert doc["metadata"]["truncation"] == DEFAULT_TRUNCATION

    def test_numeric_nonzero_residual_reports(self, capsys):
        # a nonzero residual once made `passed` an np.bool_, which the JSON
        # report could not serialize
        code, out, _ = run(capsys, "check-fe", "--partition", "2,1",
                           "--forms", "mock:3,const", "--s", "0.4",
                           "--sigma", "2,1", "--mode", "numeric")
        doc = json.loads(out)
        assert isinstance(doc["passed"], bool)
        assert code == (0 if doc["passed"] else 1)

    def test_pole_exits_2(self, capsys, tmp_path):
        # alpha = (-1/2, 1/2) puts Gamma(1/2 + a1) of the adjoint L-value
        # on its pole at 0
        spec = tmp_path / "pole.json"
        spec.write_text(json.dumps({"name": "pole", "degree": 2,
                                    "alpha": [[-0.5, 0.0], [0.5, 0.0]]}))
        code, _, err = run(capsys, "check-fe", "--partition", "2",
                           "--forms", str(spec), "--sigma", "1",
                           "--mode", "numeric")
        assert_usage_error(code, err)
        assert "pole" in err

    def test_truncation_beyond_mock_data_exits_2(self, capsys):
        # mock: forms carry Hecke data up to DEFAULT_PRIME_LIMIT = 4096; the
        # error is one unquoted line (HeckeDataError is a ValueError, whose
        # message is printed as it is)
        code, _, err = run(capsys, "divisor-sum", "--partition", "2",
                           "--forms", "mock:1", "--s", "0", "--m", "4099")
        assert_usage_error(code, err)
        assert err.strip() == (
            "error: form 'mock2:1' has no Hecke data at prime 4099")

    def test_bad_sigma_exits_2(self, capsys):
        code, _, err = run(capsys, "check-fe", "--partition", "1,1",
                           "--forms", "const,const", "--s", "1.5,-1.5",
                           "--sigma", "1,1")
        assert code == 2
        assert "permutation" in err


class TestOutputs:
    def test_json_report_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, "params", "--partition", "1,1",
                           "--forms", "const,const", "--s", "1.5,-1.5",
                           "--output", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == 1
        assert doc["alpha"][0] == {"im": 0.0, "re": 1.5}
        assert json.loads(out) == doc

    def test_unwritable_report_file_prints_nothing(self, capsys, tmp_path):
        # the report file is written before the report is printed, so a
        # failed write exits 2 like every other usage error: stdout empty
        code, out, err = run(capsys, "eval", "--partition", "1,1", "--s",
                             "1.5", "--height", "10", "--output",
                             str(tmp_path / "missing" / "x.json"))
        assert_usage_error(code, err)
        assert out == ""

    def test_csv_report_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, _, _ = run(capsys, "params", "--partition", "1,1",
                         "--forms", "const,const", "--s", "1.5,-1.5",
                         "--output", str(out_file), "--format", "csv")
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "index,re,im"
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "1.5"

    def test_eval_report(self, capsys):
        code, out, _ = run(capsys, "eval", "--partition", "1,1",
                           "--s", "1.5,-1.5", "--height", "50")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "eval"
        assert doc["value"]["re"] == pytest.approx(2.784, abs=2e-3)
        assert doc["tail_bound"] > 0

    def test_eval_height_zero_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--partition", "1,1",
                           "--s", "1.5", "--height", "0")
        assert_usage_error(code, err)
        assert "height" in err

    def test_eval_non_borel_partition_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--partition", "1,2",
                           "--s", "1.5", "--height", "5")
        assert_usage_error(code, err)
        assert "Borel" in err

    def test_extract_quadrature_failure_exits_2(self, capsys):
        # 10 nodes pass the fold guard (N >= 2m), but the half grid of 5
        # folds the constant term onto e(5x): the node-doubling diagnostic
        # fails
        code, _, err = run(capsys, "extract", "--partition", "1,1",
                           "--s", "1.5", "--m", "5", "--height", "10",
                           "--nodes", "10")
        assert_usage_error(code, err)
        assert "node-doubling" in err

    @pytest.mark.parametrize("m", ["6", "7"])
    def test_extract_fold_guard_exits_2(self, capsys, m):
        # 6 nodes fold the mode (m - 6, 1), larger than the (m, 1) mode, onto
        # it in both the grid and its half grid, so the node-doubling check
        # would pass on a wrong value: 0.128 at m = 6 against the formula's
        # 1.0e-20.  Fewer than 2m nodes exit 2
        code, out, err = run(capsys, "extract", "--partition", "1,1,1",
                             "--s", "2.4,0.1,-2.5", "--m", m, "--height", "8",
                             "--nodes", "6")
        assert_usage_error(code, err)
        assert "quad_nodes" in err
        assert out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extract_gl2_ratio_beyond_float_range(self, capsys):
        # the extrapolation ratio 2^(2 s1 - 1) overflows at s1 = 600; the
        # value is then its limit, the plain quadrature mean (5 nodes: no
        # half grid, so no node-doubling diagnostic)
        code, out, err = run(capsys, "extract", "--partition", "1,1", "--s",
                             "600", "--height", "10", "--m", "1", "--nodes",
                             "5")
        assert code == 0
        assert err == ""
        # json.loads rejects anything after the first document
        value = json.loads(out)["value"]
        assert math.isfinite(value["re"]) and math.isfinite(value["im"])

    @pytest.mark.parametrize("nodes", [3, 4])
    def test_extract_reports_node_doubling(self, capsys, nodes):
        # only an even node count has the half grid the diagnostic compares;
        # a few nodes resolve the constant term (m = 0)
        code, out, _ = run(capsys, "extract", "--partition", "1,1", "--s",
                           "1.5", "--m", "0", "--height", "10", "--nodes",
                           str(nodes))
        assert code == 0
        assert json.loads(out)["node_doubling"] is (nodes == 4)

    @pytest.mark.parametrize("s, g", [
        ("1.5+0.2j", [[0.8, 0.3], [0.1, 1.4]]),
        ("2.2,0.1", [[1.2, 0.3, -0.1], [0.0, 1.0, 0.2], [0.1, 0.0, 0.9]])])
    def test_eval_with_g_matches_library(self, capsys, s, g):
        n = len(g)
        code, out, _ = run(capsys, "eval", "--partition", ",".join("1" * n),
                           "--s", s, "--height", "8", "--g", json.dumps(g))
        assert code == 0
        doc = json.loads(out)
        point = SpectralPoint.from_leading(
            Partition((1,) * n), [complex(v) for v in s.split(",")])
        value, tail = eval_eisenstein(n, GroupElement(np.array(g)), point, 8)
        assert doc["value"] == {"re": value.real, "im": value.imag}
        assert doc["tail_bound"] == tail

    def test_extract_with_g_matches_library(self, capsys):
        g = [[0.9, 0.2], [0.0, 1 / 0.9]]
        code, out, _ = run(capsys, "extract", "--partition", "1,1", "--s",
                           "1.5", "--m", "1", "--height", "50", "--nodes",
                           "16", "--g", json.dumps(g))
        assert code == 0
        p = Partition((1, 1))
        req = FWRequest(p, FormSet((const_form(),) * 2), (1,),
                        SpectralPoint.from_leading(p, [1.5]),
                        GroupElement(np.array(g)))
        value = extract_fourier_coefficient(2, req, height=50, quad_nodes=16)
        assert json.loads(out)["value"] == {"re": value.real,
                                            "im": value.imag}

    def test_extract_matches_eval_pipeline(self, capsys):
        code, out, _ = run(capsys, "extract", "--partition", "1,1",
                           "--s", "1.5,-1.5", "--m", "1", "--height", "100",
                           "--nodes", "32")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"]["re"] == pytest.approx(0.019739, rel=1e-3)


class TestUniqueness:
    def test_accept_exits_0(self, capsys, tmp_path):
        map_file = tmp_path / "mu.json"
        map_file.write_text(affine_map_to_json(
            AffineMap.permutation((1, 0, 2))))
        code, out, _ = run(capsys, "uniqueness", "--partition", "1,1,1",
                           "--map", str(map_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["accepted"] is True
        assert doc["permutation"] == [1, 0, 2]

    def test_reject_exits_1(self, capsys, tmp_path):
        map_file = tmp_path / "mu.json"
        mu = AffineMap.permutation((0, 1, 2), shift=("1/8", 0, 0))
        map_file.write_text(affine_map_to_json(mu))
        code, out, _ = run(capsys, "uniqueness", "--partition", "1,1,1",
                           "--map", str(map_file))
        assert code == 1
        assert json.loads(out)["accepted"] is False

    def test_missing_map_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "uniqueness", "--partition", "1,1,1",
                           "--map", str(tmp_path / "absent.json"))
        assert code == 2
        assert "not found" in err

    def test_falsify(self, capsys):
        code, out, _ = run(capsys, "falsify", "--partition", "1,1,1",
                           "--trials", "10", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["rejections"] == 10
        assert doc["all_rejected"] is True

    def test_falsify_csv(self, capsys, tmp_path):
        out_file = tmp_path / "f.csv"
        code, out, _ = run(capsys, "falsify", "--partition", "2,1,1",
                           "--blocks", "1,2", "--trials", "5",
                           "--output", str(out_file), "--format", "csv")
        assert code == 0
        assert json.loads(out)["rejections"] == 5
        lines = out_file.read_text().splitlines()
        assert lines[0] == "trial,block,s,reason"
        assert len(lines) == 6


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])


GL2_OVERFLOW = ["eval", "--partition", "1,1", "--s", "600", "--height", "3",
                "--g", "[[0.5,0],[0,2]]"]
GL3_OVERFLOW = ["eval", "--partition", "1,1,1", "--s", "300,0", "--height",
                "3", "--g", "[[0.1,0,0],[0,1,0],[0,0,10]]"]
# sigma_min of u g underflows to 0: the GL(3) window cover is infinite
ILL_CONDITIONED = "[[1e200,0,0],[0,1,0],[0,0,1e-200]]"
ILL_CONDITIONED_GL2 = "[[1e200,0],[0,1e-200]]"
GL3_EXTRACT = ["extract", "--partition", "1,1,1", "--s", "2,0,-2", "--m",
               "1", "--height", "4", "--nodes", "2"]
GL3_EVAL = ["eval", "--partition", "1,1,1", "--s", "2,0,-2", "--height", "4"]


class TestUsageErrors:
    """Every bad command line exits 2 with one stderr line, no traceback."""

    CASES = {
        "rho-no-partition": (["rho"], "--partition"),
        "eval-height-not-int": (["eval", "--partition", "1,1", "--s", "1.5",
                                 "--height", "x"], "--height"),
        "unknown-command": (["bogus"], "bogus"),
        "no-command": ([], "command"),
        "params-no-s": (["params", "--partition", "1,1", "--forms",
                         "const,const"], "--s"),
        "divisor-sum-no-s": (["divisor-sum", "--partition", "1,1", "--m",
                              "4"], "--s"),
        "extract-no-s": (["extract", "--partition", "1,1", "--m", "1",
                          "--height", "5"], "--s"),
        "eval-no-s": (["eval", "--partition", "1,1", "--height", "5"], "--s"),
        "params-no-forms": (["params", "--partition", "1,1", "--s", "1.5"],
                            "--forms"),
        "check-fe-no-forms": (["check-fe", "--partition", "1,1", "--sigma",
                               "2,1"], "--forms"),
        # the L-series length is fixed at DEFAULT_TRUNCATION
        "check-fe-truncation-option-gone": (
            ["check-fe", "--partition", "2", "--forms", "mock:1", "--sigma",
             "1", "--mode", "numeric", "--truncation", "100"],
            "--truncation"),
        "falsify-zero-trials": (["falsify", "--partition", "1,1,1",
                                 "--trials", "0"], "trials"),
        "falsify-negative-trials": (["falsify", "--partition", "1,1,1",
                                     "--trials", "-1"], "trials"),
        # a block groups slots of one form, so its parts share one size
        "falsify-block-mixes-part-sizes": (
            ["falsify", "--partition", "1,2", "--blocks", "2", "--trials",
             "3"], "mixes parts"),
        # a bad integer list names its option
        "falsify-blocks-not-int": (["falsify", "--partition", "1,1,1",
                                    "--blocks", "1,x"], "--blocks"),
        "uniqueness-blocks-not-int": (
            ["uniqueness", "--partition", "1,1,1", "--blocks", "x",
             "--map", "mu.json"], "--blocks"),
        # an empty --blocks is a bad list, not a missing option; the map
        # file is not read
        "falsify-blocks-empty": (["falsify", "--partition", "1,1,1",
                                  "--blocks", "", "--trials", "2"],
                                 "bad --blocks ''"),
        "uniqueness-blocks-empty": (
            ["uniqueness", "--partition", "1,1,1", "--blocks", "",
             "--map", "mu.json"], "bad --blocks ''"),
        # the blocks cover the partition's slots, one per part; the slot
        # count is checked before the map file is read
        "falsify-blocks-wrong-slot-count": (
            ["falsify", "--partition", "1,1,1", "--blocks", "1,1",
             "--trials", "3"], "--blocks 1,1 covers 2 slots, the partition "
                               "has 3"),
        "uniqueness-blocks-wrong-slot-count": (
            ["uniqueness", "--partition", "1,1,1", "--blocks", "2,2",
             "--map", "mu.json"], "--blocks 2,2 covers 4 slots, the "
                                  "partition has 3"),
        # M = (m, 1, ..., 1) with m >= 0
        "extract-m-not-leading-only": (
            ["extract", "--partition", "1,1,1", "--s", "2.4,0.1,-2.5", "--m",
             "1,2", "--height", "8"], "only M = (m, 1, ..., 1) is supported"),
        "extract-m-negative": (
            ["extract", "--partition", "1,1", "--s", "1.5", "--m=-1",
             "--height", "8"], "M must be an (n-1)-tuple with m >= 0"),
        "extract-m-not-int": (["extract", "--partition", "1,1", "--s", "1.5",
                               "--m", "x", "--height", "5"], "--m"),
        "extract-zero-nodes": (["extract", "--partition", "1,1", "--s", "1.5",
                                "--m", "1", "--height", "5", "--nodes", "0"],
                               "nodes"),
        "extract-negative-nodes": (["extract", "--partition", "1,1", "--s",
                                    "1.5", "--m", "1", "--height", "5",
                                    "--nodes", "-3"], "nodes"),
        "eval-s-not-complex": (["eval", "--partition", "1,1", "--s",
                                "1.5,x", "--height", "3"], "bad --s"),
        "params-form-count": (["params", "--partition", "1,2", "--forms",
                               "const", "--s", "0.5"], "form specs"),
        "params-bad-mock-seed": (["params", "--partition", "1,2", "--forms",
                                  "const,mock:x", "--s", "0.5"], "mock seed"),
        # a degree-2 mock angle shifts by seed * 0.618..., a float; degree-3
        # slots take the same seed
        "params-mock-seed-overflows-float": (
            ["params", "--partition", "1,2", "--forms",
             "const,mock:" + "9" * 400, "--s", "0.5"], "mock seed 999"),
        "eval-nan-s": (["eval", "--partition", "1,1", "--s", "nan",
                        "--height", "3"], "finite"),
        "eval-inf-s": (["eval", "--partition", "1,1", "--s", "inf",
                        "--height", "3"], "finite"),
        "eval-s-gap-overflows": (["eval", "--partition", "1,1", "--s",
                                  "1.7e308+1.7e308j", "--height", "3"],
                                 "float range"),
        "eval-g-wrong-size": (["eval", "--partition", "1,1,1", "--s", "2,0",
                               "--height", "3", "--g", "[[1,0],[0,1]]"],
                              "bad --g"),
        "eval-g-not-square": (["eval", "--partition", "1,1", "--s", "1.5",
                               "--height", "10", "--g", "[[1,2]]"],
                              "bad --g: expected a square matrix"),
        "eval-g-singular": (["eval", "--partition", "1,1", "--s", "1.5",
                             "--height", "10", "--g", "[[1,2],[2,4]]"],
                            "bad --g: matrix is singular"),
        "extract-g-wrong-size": (["extract", "--partition", "1,1", "--s",
                                  "1.5", "--m", "1", "--height", "5", "--g",
                                  "[[1,0,0],[0,1,0],[0,0,1]]"], "bad --g"),
        # finite s and g whose powers overflow the float range
        "eval-gl2-sum-overflows": (GL2_OVERFLOW, "overflows"),
        "eval-gl3-sum-overflows": (GL3_OVERFLOW, "overflows"),
        "extract-gl2-sum-overflows": (
            ["extract", *GL2_OVERFLOW[1:], "--m", "1", "--nodes", "4"],
            "overflows"),
        # past the float range of the extrapolation ratio (s1 = 600) the
        # 4-node quadrature cannot resolve the peaked integrand
        "extract-gl2-ratio-overflows": (
            ["extract", "--partition", "1,1", "--s", "600", "--height", "10",
             "--m", "1", "--nodes", "4"], "node-doubling"),
        # at GL3_OVERFLOW's g the window cover is |v|, |a| <= 30: 10 s
        "extract-gl3-sum-overflows": (
            ["extract", "--partition", "1,1,1", "--s", "600,0", "--height",
             "3", "--g", "[[0.5,0,0],[0,1,0],[0,0,2]]", "--m", "1",
             "--nodes", "4"], "overflows"),
        "extract-gl3-g-ill-conditioned": (
            [*GL3_EXTRACT, "--g", ILL_CONDITIONED], "ill-conditioned"),
        # a row norm |(0, 0, 1) g| = 1e-200 whose square underflows to 0
        "eval-gl3-g-ill-conditioned": ([*GL3_EVAL, "--g", ILL_CONDITIONED],
                                       "ill-conditioned"),
        # sigma_max(g) = 2.1e308 is beyond the float range, so its floor
        # |det g| / sigma_max reads 0; the row norm |(1, 0) g| overflows
        "eval-gl2-row-norm-overflows": (
            ["eval", "--partition", "1,1", "--s", "1.5", "--height", "40",
             "--g", "[[1.5e308,1.5e308],[0,1]]"],
            "a row norm overflows the float range"),
        "eval-gl2-g-ill-conditioned": (
            ["eval", "--partition", "1,1", "--s", "2", "--height", "4", "--g",
             ILL_CONDITIONED_GL2], "ill-conditioned"),
        "extract-gl2-g-ill-conditioned": (
            ["extract", "--partition", "1,1", "--s", "1.5", "--m", "1",
             "--height", "10", "--nodes", "4", "--g", ILL_CONDITIONED_GL2],
            "ill-conditioned"),
        # 2^(4 * 300) overflows a complex power; at s = (200, 200, -400) no
        # power overflows, but the local factors do, and the product is nan
        "divisor-sum-term-overflows": (
            ["divisor-sum", "--partition", "1,1", "--s=300,-300", "--m",
             "720720"], "overflows"),
        "divisor-sum-result-overflows": (
            ["divisor-sum", "--partition", "1,1,1", "--s=200,200", "--m",
             "720720"], "overflows"),
        # at p = 2 the exponent 2 * 1e308i of the p^2 term is infinite, a
        # complex power that Python reports as ZeroDivisionError
        "divisor-sum-infinite-phase": (
            ["divisor-sum", "--partition", "1,1", "--s=1e308j", "--m", "12"],
            "overflows"),
        # cosh(nu t) of the K-Bessel quadrature overflows at nu = 140
        "check-fe-bessel-overflows": (
            ["check-fe", "--partition", "1,1", "--forms", "const,const",
             "--s=140", "--sigma", "2,1", "--mode", "numeric"], "overflows"),
        # the numeric mode's Whittaker factor stops at GL(3)
        "check-fe-numeric-gl4": (
            ["check-fe", "--partition", "2,2", "--forms", "mock:3,mock:5",
             "--s", "0.4", "--sigma", "2,1", "--mode", "numeric"],
            "Whittaker factor implemented for n = 2, 3 only"),
        # det(g) = 1e400 overflows: numpy's warning must not reach stderr
        "eval-gl2-g-det-overflows": (
            ["eval", "--partition", "1,1", "--s", "2", "--height", "4", "--g",
             "[[1e200,0],[0,1e200]]"], "overflows"),
        # json.loads reads NaN and Infinity
        "eval-g-nan": ([*GL3_EVAL, "--g", "[[NaN,0,0],[0,1,0],[0,0,1]]"],
                       "finite"),
        "eval-g-infinity": ([*GL3_EVAL, "--g",
                             "[[1,0,0],[0,1,Infinity],[0,0,1]]"], "finite"),
        "extract-g-nan": ([*GL3_EXTRACT, "--g",
                           "[[1,0,0],[0,NaN,0],[0,0,1]]"], "finite"),
        "extract-g-infinity": (
            ["extract", "--partition", "1,1", "--s", "1.5", "--m", "1",
             "--height", "5", "--g", "[[1,-Infinity],[0,1]]"], "finite"),
    }

    # a RuntimeWarning is a second stderr line outside pytest
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_with_one_line(self, capsys, case):
        argv, needle = self.CASES[case]
        code, out, err = run(capsys, *argv)
        assert_usage_error(code, err)
        assert needle in err
        assert out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_row_norm_overflow_is_no_underflow(self, capsys):
        argv, _ = self.CASES["eval-gl2-row-norm-overflows"]
        _, _, err = run(capsys, *argv)
        assert "underflow" not in err

    # malformed form-spec and affine-map files, whose path replaces FILE
    PARAMS = ["params", "--partition", "2", "--forms", "FILE", "--s", "0"]
    CHECK_FE_21 = ["check-fe", "--partition", "2,1", "--forms",
                   "FILE,const", "--s", "0.3", "--sigma", "2,1", "--mode",
                   "numeric"]
    MAP11 = ["uniqueness", "--partition", "1,1", "--map", "FILE"]
    MAP1 = ["uniqueness", "--partition", "1", "--map", "FILE"]
    FILE_CASES = {
        "form-alpha-not-pairs": (
            PARAMS, '{"name":"x","degree":2,"alpha":[1,2]}', "alpha"),
        "form-alpha-string": (
            PARAMS, '{"name":"x","degree":2,"alpha":[["a",0],[0,0]]}',
            "alpha"),
        "form-alpha-nan": (
            PARAMS, '{"name":"x","degree":2,"alpha":[[NaN,0],[NaN,0]]}',
            "finite"),
        "form-alpha-beyond-float": (
            PARAMS, '{"name":"x","degree":2,"alpha":[[1%s,0],[0,0]]}'
            % ("0" * 400), "alpha"),
        "form-hecke-not-a-pair": (
            PARAMS, '{"name":"x","degree":2,"alpha":[[0,0],[0,0]],'
                    '"hecke":{"2":[1,0],"3":[1]}}', "hecke 3"),
        "form-short-satake": (
            ["divisor-sum", "--partition", "2", "--forms", "FILE", "--s", "0",
             "--m", "4"],
            '{"name":"x","degree":2,"alpha":[[0,0],[0,0]],'
            '"satake":{"2":[[1,0]]}}', "satake"),
        "form-degree-2-in-degree-1-slot": (
            ["params", "--partition", "1", "--forms", "FILE", "--s", "0"],
            '{"name":"x","degree":2,"alpha":[[0,0],[0,0]]}', "degree 2"),
        # the constant form's factor is 1 - x: no Satake data replaces it
        "form-satake-in-degree-1": (
            ["divisor-sum", "--partition", "1", "--forms", "FILE", "--s",
             "0", "--m", "2"], '{"name":"c","degree":1,"alpha":[[0,0]],'
                               '"satake":{"2":[[0.5,0]]}}', "constant"),
        # mock:1's data with alpha = (200, -200): Gamma(200.5) of the
        # adjoint L-value overflows; at alpha = (1e308 i, -1e308 i) the
        # Lanczos power has an infinite phase
        "form-gamma-overflows": (CHECK_FE_21,
                                 _mock_with_alpha([[200, 0], [-200, 0]]),
                                 "gamma_complex at (200.5+0j) overflows"),
        "form-gamma-infinite-phase": (
            CHECK_FE_21, _mock_with_alpha([[0, 1e308], [0, -1e308]]),
            "gamma_complex at (0.5+1e+308j) overflows"),
        # alpha = (-1e308 + i, 1e308 - i): pi z in the reflection is -inf
        "form-gamma-reflection-overflows": (
            CHECK_FE_21, _mock_with_alpha([[-1e308, 1], [1e308, -1]]),
            "gamma_complex at (-1e+308+1j) overflows"),
        "map-bare-entries": (MAP1, '{"A": [[1]], "b": [0]}', "A"),
        "map-not-an-object": (MAP1, '[1, 2]', "map"),
        "map-zero-denominator": (MAP1, '{"A": [[[1, 0]]], "b": [[0, 1]]}',
                                 "A"),
        "map-float-numerator": (
            MAP11, '{"A": [[[1.5, 1], [0, 1]], [[0, 1], [1, 1]]], '
                   '"b": [[0, 1], [0, 1]]}', "A"),
        # the swap of two slots, in a block that mixes parts of size 1, 2
        "map-block-mixes-part-sizes": (
            ["uniqueness", "--partition", "1,2", "--blocks", "2", "--map",
             "FILE"], '{"A": [[[0, 1], [1, 1]], [[1, 1], [0, 1]]], '
                      '"b": [[0, 1], [0, 1]]}', "mixes parts"),
    }

    @pytest.mark.parametrize("case", FILE_CASES)
    def test_malformed_file_exits_2_with_one_line(self, capsys, tmp_path,
                                                  case):
        argv, text, needle = self.FILE_CASES[case]
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run(capsys, *(a.replace("FILE", str(path))
                                       for a in argv))
        assert_usage_error(code, err)
        assert needle in err
        assert out == ""

    def test_missing_form_file_exits_2_with_one_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "params", "--partition", "2", "--forms",
                             str(tmp_path / "absent.json"), "--s", "0")
        assert_usage_error(code, err)
        assert "form-spec file not found" in err
        assert out == ""

    # a height or node count beyond memory, without allocating: numpy says
    # "Unable to allocate 14.6 TiB ..." for eval --height 1000000000000
    @pytest.mark.parametrize("exc, needle", [
        (MemoryError("Unable to allocate 14.6 TiB"), "Unable to allocate"),
        (MemoryError(), "out of memory")])
    def test_memory_error_exits_2(self, capsys, monkeypatch, exc, needle):
        def allocate(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "eval_eisenstein", allocate)
        code, out, err = run(capsys, "eval", "--partition", "1,1", "--s",
                             "1.5", "--height", "5")
        assert_usage_error(code, err)
        assert needle in err
        assert out == ""

    def test_no_module_defines_an_exception_class(self):
        # dispatch catches ValueError, OSError and MemoryError alone, and
        # every error an input causes is a plain ValueError
        names = ["eiskit"] + [m.name for m in pkgutil.iter_modules(
            eiskit.__path__, "eiskit.")]
        assert len(names) == 9
        for name in names:
            module = importlib.import_module(name)
            own = [c for _, c in inspect.getmembers(module, inspect.isclass)
                   if issubclass(c, BaseException) and c.__module__ == name]
            assert own == [], name

    def test_other_exception_propagates(self, monkeypatch):
        # an exception outside that family is a bug, not an input error
        def bug(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "eval_eisenstein", bug)
        with pytest.raises(KeyError):
            dispatch(["eval", "--partition", "1,1", "--s", "1.5",
                      "--height", "5"])

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: eiskit")
