import json
import re
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from metricdep import EuclideanSquared, GaussianKernel, cancellation_joint, distance_matrix
from metricdep.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def toy_sample(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("x_1,y_1\n0,0\n1,1\n")
    return str(path)


@pytest.fixture
def dependent_sample(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(100)
    rows = "\n".join(f"{v},{v}" for v in x)
    path = tmp_path / "dependent.csv"
    path.write_text("x_1,y_1\n" + rows + "\n")
    return str(path)


@pytest.fixture
def constant_y_sample(tmp_path):
    rng = np.random.default_rng(1)
    rows = "\n".join(f"{v},2.0" for v in rng.standard_normal(30))
    path = tmp_path / "const.csv"
    path.write_text("x_1,y_1\n" + rows + "\n")
    return str(path)


class TestCompute:
    def test_mcov_toy_value(self, runner, toy_sample):
        result = runner.invoke(
            main, ["compute", "--input", toy_sample, "--estimator", "mcov", "--metric", "euclid2"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["statistic"] == 0.25
        assert doc["n"] == 2

    def test_hsic_constant_y_is_zero(self, runner, constant_y_sample):
        result = runner.invoke(
            main,
            ["compute", "--input", constant_y_sample, "--estimator", "hsic", "--kernel", "gaussian:sigma=1"],
        )
        assert result.exit_code == 0
        assert abs(json.loads(result.output)["statistic"]) < 1e-12

    def test_missing_file_exits_2_without_output(self, runner, tmp_path):
        out = tmp_path / "result.json"
        result = runner.invoke(
            main,
            ["compute", "--input", str(tmp_path / "nope.csv"), "--estimator", "mcov",
             "--metric", "euclid2", "--output", str(out)],
        )
        assert result.exit_code == 2
        assert not out.exists()

    def test_dimension_mismatch_exits_2(self, runner, tmp_path):
        path = tmp_path / "mismatch.csv"
        path.write_text("x_1,x_2,y_1\n0,0,0\n1,1,1\n")
        for args in (
            ["mcov", "--metric", "euclid2"],
            ["mcov", "--kernel", "gaussian"],
            ["mcov-trace", "--kernel", "gaussian"],
            ["mcov-trace", "--kernel", "linear"],
        ):
            result = runner.invoke(main, ["compute", "--input", str(path), "--estimator", *args])
            assert result.exit_code == 2, args
            assert "dimension" in result.output, args

    def test_bad_cell_names_row_and_column(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_1,y_1\n0,0\n1,abc\n")
        result = runner.invoke(
            main, ["compute", "--input", str(path), "--estimator", "mcov", "--metric", "euclid2"]
        )
        assert result.exit_code == 2
        assert "row 3" in result.output and "y_1" in result.output

    def test_kernel_only_mcov_uses_induced_semimetric(self, runner, toy_sample):
        result = runner.invoke(
            main, ["compute", "--input", toy_sample, "--estimator", "mcov", "--kernel", "linear"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["statistic"] == 0.25
        assert doc["kernel_or_metric"] == "induced_metric:base=(linear)"


class TestAnchor:
    @pytest.mark.parametrize(
        "args",
        [
            ["compute", "--estimator", "dcov", "--metric", "euclid2", "--anchor", "(1;2;3)"],
            ["compute", "--estimator", "hsic", "--kernel", "linear", "--anchor", "(1;2;3)"],
            ["compute", "--estimator", "mcov", "--anchor", "origin"],
            ["compute", "--estimator", "hsic", "--anchor", "(1)"],
            ["test", "--estimator", "mcov-trace", "--kernel", "gaussian", "--anchor", "(1)", "--B", "9"],
            ["test", "--estimator", "dcov", "--kernel", "linear", "--anchor", "origin", "--B", "9"],
        ],
    )
    def test_unused_anchor_exits_2(self, runner, toy_sample, args):
        result = runner.invoke(main, [*args, "--input", toy_sample])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: an anchor is used only")

    @pytest.mark.parametrize("command", [["compute"], ["test", "--B", "9"]])
    @pytest.mark.parametrize("estimator", ["mcov-trace", "hsic"])
    def test_anchor_of_an_induced_kernel_is_used(self, runner, toy_sample, command, estimator):
        result = runner.invoke(
            main,
            [*command, "--input", toy_sample, "--estimator", estimator,
             "--metric", "euclid2", "--anchor", "(0.5)"],
        )
        assert result.exit_code == 0
        label = json.loads(result.output)["kernel_or_metric"]
        assert label == "induced_kernel:base=(euclid2),anchor=(0.5)"

    @pytest.mark.parametrize("command", [["compute"], ["test", "--B", "9"]])
    @pytest.mark.parametrize("estimator", ["mcov-trace", "hsic"])
    @pytest.mark.parametrize("metric", ["euclid2", "induced_metric:base=(gaussian)"])
    def test_anchor_of_the_wrong_dimension_exits_2(self, runner, tmp_path, command, estimator, metric):
        path = tmp_path / "plane.csv"
        path.write_text("x_1,x_2,y_1,y_2\n0,1,2,3\n1,0,3,1\n2,2,0,1\n")
        result = runner.invoke(
            main,
            [*command, "--input", str(path), "--estimator", estimator, "--metric", metric, "--anchor", "(1;2;3)"],
        )
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: dimension mismatch")

    def test_anchor_error_names_the_anchor(self, runner, tmp_path):
        path = tmp_path / "plane.csv"
        path.write_text("x_1,x_2,y_1,y_2\n0,1,2,3\n1,0,3,1\n2,2,0,1\n")
        args = ["compute", "--input", str(path), "--estimator", "hsic", "--metric", "euclid2", "--anchor", "(1;2;3)"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output == (
            "error: dimension mismatch between points and the anchor (1.0;2.0;3.0) "
            "given by --anchor or induced_kernel: 2 vs 3\n"
        )

    def test_oracle_unused_anchor_exits_2(self, runner, tmp_path):
        path = tmp_path / "cancel.json"
        path.write_text(json.dumps(cancellation_joint().to_dict()))
        result = runner.invoke(main, ["oracle", "--input", str(path), "--kernel", "linear", "--anchor", "(7;7)"])
        assert result.exit_code == 2
        assert result.output.startswith("error: an anchor is used only")


class TestTest:
    def test_byte_identical_reruns(self, runner, dependent_sample, tmp_path):
        args = ["test", "--input", dependent_sample, "--estimator", "hsic",
                "--kernel", "gaussian", "--B", "199", "--seed", "7"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert runner.invoke(main, args + ["--output", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--output", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_strong_dependence_minimal_p(self, runner, dependent_sample):
        result = runner.invoke(
            main,
            ["test", "--input", dependent_sample, "--estimator", "hsic",
             "--kernel", "gaussian:sigma=1", "--B", "199", "--seed", "7"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["p_value"] == 1.0 / 200.0
        assert doc["B"] == 199 and doc["seed"] == 7

    def test_zero_permutations_exits_2(self, runner, toy_sample):
        result = runner.invoke(
            main, ["test", "--input", toy_sample, "--estimator", "mcov", "--metric", "euclid2", "--B", "0"]
        )
        assert result.exit_code == 2

    def test_failed_allocation_exits_2(self, runner, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("metricdep.estimators.gram_matrix", fail)
        path = tmp_path / "sample.csv"
        path.write_text("x_1,y_1\n" + "".join(f"{i % 5},{i % 7}\n" for i in range(50)))
        result = runner.invoke(
            main, ["test", "--input", str(path), "--estimator", "hsic", "--kernel", "gaussian", "--B", "9"]
        )
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: n = 50: out of memory ")


def _refused(result, arrays):
    """One ``error:`` line, exit 2, for the memory of ``arrays`` at n = 300."""
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: n = 300 needs about ") and arrays in lines[0]
    assert lines[0].endswith("; a statistic without permutations on vector data holds no array that grows faster than n")


class TestMemory:
    """Physical memory read below two n x n arrays at n = 300 (1.44 MB), and
    above the screen's 6 isqrt(32 n) n floats (1.40 MB) unless a case lowers
    it: what is stored is refused with one line, before it is built."""

    @pytest.fixture
    def run(self, runner, tmp_path, monkeypatch):
        def run(args, d, have=1_420_000):
            monkeypatch.setattr("metricdep.estimators._physical_memory", lambda: have)
            rng = np.random.default_rng(3)
            x = rng.standard_normal((300, d))
            header = ",".join([f"x_{i + 1}" for i in range(d)] + [f"y_{i + 1}" for i in range(d)])
            path = tmp_path / "sample.csv"
            np.savetxt(path, np.hstack([x, 0.3 * x + rng.standard_normal((300, d))]),
                       delimiter=",", header=header, comments="")
            return runner.invoke(main, [args[0], "--input", str(path), *args[1:]])

        return run

    @pytest.mark.parametrize("command", [["compute"], ["test", "--B", "9"]])
    @pytest.mark.parametrize("spec", [["--estimator", "dcov", "--metric", "euclid2"],
                                      ["--estimator", "hsic", "--kernel", "linear"],
                                      ["--estimator", "dcov", "--metric", "induced_metric:base=(linear)"]])
    def test_a_wide_side_is_evaluated_within_the_cap(self, run, command, spec):
        # cdist and the linear kernel's einsum compute each entry from its
        # two points, so the sides are read from the points, with the bits
        # of the stored matrices
        args = [*command, *spec]
        uncapped = run(args, d=20, have=2**40)
        capped = run(args, d=20)
        assert capped.exit_code == 0
        assert capped.output == uncapped.output

    def test_a_declined_screen_is_refused_where_it_stores(self, run):
        _refused(run(["test", "--estimator", "hsic", "--kernel", "gaussian", "--B", "9"], d=5), "for n x n matrices")

    def test_a_screen_over_memory_is_refused_before_any_evaluation(self, run, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a matrix entry was evaluated")

        # the routes evaluate their coerced points by the unchecked _pairwise
        monkeypatch.setattr(GaussianKernel, "_pairwise", fail)
        args = ["test", "--estimator", "hsic", "--kernel", "gaussian:sigma=1", "--B", "9"]
        _refused(run(args, d=2, have=500_000), "for the screen's factors")


class TestOracle:
    def test_product_joint_all_measures_zero(self, runner, tmp_path):
        doc = {
            "support_x": [[0.0], [1.0]],
            "support_y": [[0.0], [2.0]],
            "P": [[0.18, 0.42], [0.12, 0.28]],
        }
        path = tmp_path / "product.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["oracle", "--input", str(path), "--kernel", "gaussian:sigma=1"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert abs(out["mcov"]) < 1e-12
        assert abs(out["hsic"]) < 1e-12
        assert abs(out["dcov"]) < 1e-12

    def test_uniform01_linear_hand_values(self, runner, tmp_path):
        doc = {
            "support_x": [[0.0], [1.0]],
            "support_y": [[0.0], [1.0]],
            "P": [[0.5, 0.0], [0.0, 0.5]],
        }
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["oracle", "--input", str(path), "--kernel", "linear"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["mcov"] == 0.25
        assert out["hsic"] == 0.0625

    def test_invalid_probability_sum_reports_it(self, runner, tmp_path):
        doc = {"support_x": [[0.0]], "support_y": [[0.0]], "P": [[0.7]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["oracle", "--input", str(path)])
        assert result.exit_code == 2
        assert "0.7" in result.output

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"support_x": [[0], [1]], "support_y": [[0], [1]], "P": [[0.5, "a"], [0, 0.5]]}, "P must be"),
            ({"support_x": [[0], [1]], "support_y": [[0], [1]], "P": [[0.5, 0], [0.5]]}, "P must be"),
            ({"support_x": [[0], [1, 2]], "support_y": [[0], [1]], "P": [[0.5, 0], [0, 0.5]]}, "support_x must be"),
            ({"support_x": "ab", "support_y": [[0], [1]], "P": [[0.5, 0], [0, 0.5]]}, "support_x must be"),
            ([1, 2], "must be a JSON object"),
            ("joint", "must be a JSON object"),
        ],
    )
    def test_malformed_joint_exits_2(self, runner, tmp_path, doc, message):
        # exit 1 is kept for a matrix that is not of negative type
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["oracle", "--input", str(path)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]

    def test_cancellation_joint_decomposition(self, runner, tmp_path):
        # the dependence sits in the repeated eigenvalue's two-dimensional
        # eigenspace E: the single sum's terms over E total 0 in any basis
        # of E, and the double sum's terms over E x E are all of HSIC
        path = tmp_path / "cancel.json"
        path.write_text(json.dumps(cancellation_joint().to_dict()))
        for sigma in ("0.5", "0.8", "1", "1.2", "2"):
            result = runner.invoke(
                main, ["oracle", "--input", str(path), "--kernel", f"gaussian:sigma={sigma}", "--decompose"]
            )
            assert result.exit_code == 0, sigma
            out = json.loads(result.output)
            assert abs(out["mcov"]) < 1e-10, sigma
            assert out["hsic"] > 0.01, sigma
            mdec, hdec = out["mcov_decomposition"], out["hsic_decomposition"]
            assert sorted(mdec) == ["covariances", "eigenvalues", "terms", "total"]
            assert sorted(hdec) == ["eigenvalues", "terms", "total"]
            lam = np.array(mdec["eigenvalues"])
            (e,) = np.nonzero(np.isclose(lam, lam[1], rtol=1e-9, atol=0.0))
            assert list(e) == [1, 2], sigma
            assert abs(np.array(mdec["terms"])[e].sum()) < 1e-12, sigma
            in_e = np.array(hdec["terms"])[np.ix_(e, e)].sum()
            assert in_e == pytest.approx(out["hsic"], rel=1e-12), sigma
            assert in_e == pytest.approx(4.0 * lam[1] ** 2, rel=1e-12), sigma

    @pytest.mark.parametrize(
        "flags, kernel, metric",
        [
            ([], "gaussian:sigma=1.0", "induced_metric:base=(gaussian:sigma=1.0)"),
            (["--kernel", "linear"], "linear", "induced_metric:base=(linear)"),
            (["--metric", "euclid2"], "induced_kernel:base=(euclid2),anchor=origin", "euclid2"),
            (
                ["--metric", "euclid2", "--anchor", "(0.5;1)"],
                "induced_kernel:base=(euclid2),anchor=(0.5;1.0)",
                "euclid2",
            ),
            (["--kernel", "linear", "--metric", "euclid2"], "linear", "euclid2"),
        ],
    )
    def test_resolved_specs(self, runner, tmp_path, flags, kernel, metric):
        # the pooled support's median distance is 1, so the gaussian default has sigma = 1
        doc = {
            "support_x": [[0.0, 0.0], [1.0, 0.0]],
            "support_y": [[0.0, 0.0], [0.0, 1.0]],
            "P": [[0.4, 0.1], [0.1, 0.4]],
        }
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["oracle", "--input", str(path), *flags])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert (out["kernel"], out["metric"]) == (kernel, metric)
        assert sorted(out) == ["dcov", "hsic", "kernel", "mcov", "metric"]


class TestScenario:
    def test_minimal_power_run(self, runner):
        result = runner.invoke(
            main,
            ["scenario", "--scenario", "coupled_mixture", "--estimator", "hsic",
             "--n", "20", "--reps", "1", "--B", "1", "--seed", "0"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["reps"] == 1 and doc["B"] == 1
        assert 0.0 <= doc["rejection_rate"] <= 1.0

    def test_csv_append(self, runner, tmp_path):
        out = tmp_path / "rows.csv"
        args = ["scenario", "--scenario", "independent_normal", "--estimator", "mcov",
                "--n", "20", "--reps", "2", "--B", "9", "--seed", "1",
                "--format", "csv", "--output", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        assert runner.invoke(main, args).exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "scenario,estimator,kernel_or_metric,n,sigma,alpha,reps,B,seed,rejection_rate,monte_carlo_se"
        assert len(lines) == 3  # header + two appended rows
        assert lines[1] == lines[2]

    def test_norms_study(self, runner):
        result = runner.invoke(
            main,
            ["scenario", "--scenario", "coupled_mixture", "--study", "norms",
             "--n", "500", "--seed", "3"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert 0.0 <= doc["p_value"] <= 1.0

    def test_config_file_overrides_flags(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "independent_normal", "estimator": "hsic",
            "n": 20, "reps": 1, "B": 5, "seed": 2,
        }))
        result = runner.invoke(main, ["scenario", "--config", str(cfg)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["scenario"] == "independent_normal" and doc["B"] == 5

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"estimator": "bogus"}, "estimator: 'bogus' is not one of"),
            ({"estimator": "mcov_trace"}, "estimator: 'mcov_trace' is not one of"),
            ({"n": "abc"}, "n: 'abc' is not a valid integer"),
            ({"kernel": 5}, "unknown kernel family '5'"),
            ({"study": "bogus"}, "study: 'bogus' is not one of"),
            ({"colour": "red"}, "unknown key 'colour'"),
            ({"n": None}, "n: must not be null"),
            ({"reps": [1, 2]}, "reps: "),
            ({"reps": 2.5}, "reps: 2.5 is not a valid integer"),
            ({"reps": 2.0}, "reps: 2.0 is not a valid integer"),
            ({"reps": True}, "reps: True is not a valid integer"),
            ({"B": True}, "B: True is not a valid integer"),
            ({"seed": 1.7}, "seed: 1.7 is not a valid integer"),
            ({"scenario": "coupled_mixture", "estimator": "dcov", "sigma": True},
             "sigma: True is not a valid float"),
            ({"alpha": False}, "alpha: False is not a valid float"),
        ],
        ids=["estimator", "underscored-estimator", "n", "kernel", "study", "unknown-key", "null", "list",
             "float-reps", "integral-float-reps", "bool-reps", "bool-B", "float-seed", "bool-sigma",
             "bool-alpha"],
    )
    def test_bad_config_value_exits_2(self, runner, tmp_path, setting, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "independent_normal", "n": 10, "reps": 1, "B": 1, **setting}))
        result = runner.invoke(main, ["scenario", "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]

    def test_config_strings_run_as_flags_do(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "coupled_mixture", "estimator": "dcov", "n": "12", "sigma": "0.7",
            "alpha": "0.2", "reps": "2", "B": "3", "seed": "5",
        }))
        from_config = runner.invoke(main, ["scenario", "--config", str(cfg)])
        from_flags = runner.invoke(
            main,
            ["scenario", "--scenario", "coupled_mixture", "--estimator", "dcov", "--n", "12",
             "--sigma", "0.7", "--alpha", "0.2", "--reps", "2", "--B", "3", "--seed", "5"],
        )
        assert from_config.exit_code == from_flags.exit_code == 0
        assert from_config.output == from_flags.output
        doc = json.loads(from_config.output)
        assert (doc["n"], doc["reps"], doc["B"], doc["seed"]) == (12, 2, 3, 5)

    def test_toml_config_without_tomllib_exits_2(self, runner, tmp_path, monkeypatch):
        # Python 3.10 has no tomllib; the import then fails with ImportError
        monkeypatch.setitem(sys.modules, "tomllib", None)
        cfg = tmp_path / "cfg.toml"
        cfg.write_text('scenario = "independent_normal"\n')
        result = runner.invoke(main, ["scenario", "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and "Python 3.11" in lines[0]

    @pytest.mark.parametrize("estimator", ["mcov", "mcov-trace", "hsic", "dcov"])
    @pytest.mark.parametrize("spec", [["--kernel", "linear"], ["--metric", "euclid2"], []])
    def test_resolves_specs_as_test_does(self, runner, toy_sample, estimator, spec):
        common = ["--estimator", estimator, *spec, "--B", "1", "--seed", "0"]
        tested = runner.invoke(main, ["test", "--input", toy_sample, *common])
        studied = runner.invoke(
            main, ["scenario", "--scenario", "independent_normal", "--n", "10", "--reps", "1", *common]
        )
        assert tested.exit_code == studied.exit_code == 0
        label = json.loads(tested.output)["kernel_or_metric"]
        assert json.loads(studied.output)["kernel_or_metric"] == label
        if estimator == "hsic" and spec == ["--metric", "euclid2"]:
            assert label == "induced_kernel:base=(euclid2),anchor=origin"

    def test_unknown_scenario_exits_2(self, runner):
        result = runner.invoke(main, ["scenario", "--scenario", "bogus", "--reps", "1", "--B", "1"])
        assert result.exit_code == 2


class TestValidate:
    def test_squared_euclidean_passes(self, runner, tmp_path):
        pts = np.random.default_rng(2).standard_normal((8, 2))
        d = distance_matrix(EuclideanSquared(), pts)
        path = tmp_path / "good.csv"
        np.savetxt(path, d, delimiter=",")
        result = runner.invoke(main, ["validate", "--input", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["valid"] is True

    def test_violator_exits_1_with_worst_eigenvalue(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,1\n1,0,9\n1,9,0\n")
        result = runner.invoke(main, ["validate", "--input", str(path)])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["valid"] is False
        assert doc["worst_eigenvalue"] == pytest.approx(-5.0 / 6.0, rel=1e-12)

    def test_ragged_csv_exits_2(self, runner, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1\n1\n")
        result = runner.invoke(main, ["validate", "--input", str(path)])
        assert result.exit_code == 2
        assert "row 2" in result.output

    def test_asymmetric_exits_2(self, runner, tmp_path):
        path = tmp_path / "asym.csv"
        path.write_text("0,1\n2,0\n")
        result = runner.invoke(main, ["validate", "--input", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tolerance_outside_zero_to_infinity_exits_2(self, runner, tmp_path, tol):
        path = tmp_path / "good.csv"
        path.write_text("0,1,4\n1,0,1\n4,1,0\n")
        result = runner.invoke(main, ["validate", "--input", str(path), "--tol", tol])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "tolerance" in lines[0]


class TestNonFiniteResults:
    """JSON holds no NaN: a result that is not finite exits 2 with one line."""

    @staticmethod
    def _refused(result):
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: the result is not finite")

    @pytest.mark.parametrize("estimator", ["hsic", "dcov", "mcov"])
    def test_data_past_the_floating_point_range(self, runner, tmp_path, estimator):
        # squared distances of points at 1e160 overflow to infinity
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, 2))
        path = tmp_path / "huge.csv"
        np.savetxt(path, 1e160 * np.hstack([x, x + rng.standard_normal((40, 2))]),
                   delimiter=",", header="x_1,x_2,y_1,y_2", comments="")
        self._refused(runner.invoke(main, ["compute", "--input", str(path), "--estimator", estimator]))

    def test_a_vanishing_oracle_bandwidth(self, tmp_path):
        # in a process of its own, so that no floating-point warning
        # precedes the error line
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"support_x": [[0], [1]], "support_y": [[0], [1]], "P": [[0.5, 0], [0, 0.5]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "metricdep", "oracle", "--input", str(path), "--kernel", "gaussian:sigma=1e-300"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: the result is not finite")


class TestSignedZero:
    @pytest.mark.parametrize("command", [["compute"], ["test", "--B", "9"]])
    @pytest.mark.parametrize(
        "args",
        [
            ["--estimator", "mcov", "--kernel", "gaussian"],
            ["--estimator", "mcov-trace", "--metric", "induced_metric:base=(gaussian)"],
        ],
    )
    def test_a_zero_statistic_prints_as_plus_zero(self, runner, tmp_path, command, args):
        # a constant x is decided before any route, and its 0.0 prints
        # without a sign
        path = tmp_path / "constant_x.csv"
        path.write_text("x_1,y_1\n0,0\n0,1\n")
        result = runner.invoke(main, [*command, "--input", str(path), *args])
        assert result.exit_code == 0
        assert '"statistic": 0.0' in result.output

    @pytest.mark.parametrize(
        "spec",
        [
            ["--kernel", "gaussian:sigma=1"],
            ["--metric", "euclid2"],
            ["--kernel", "linear"],
            ["--metric", "induced_metric:base=(gaussian:sigma=0.5)"],
        ],
    )
    @pytest.mark.parametrize("joint", ["cancellation", "product"])
    def test_a_zero_exact_measure_prints_as_plus_zero(self, runner, tmp_path, joint, spec):
        # the cancellation joint's mcov and every measure of a product joint
        # whose centred joint is exactly 0 are -1/2 or 1 times an exact 0.0
        if joint == "cancellation":
            doc, zeros = cancellation_joint().to_dict(), ["mcov"]
        else:
            doc = {"support_x": [[0.0], [1.0]], "support_y": [[0.0], [2.0]], "P": [[0.25, 0.25], [0.25, 0.25]]}
            zeros = ["mcov", "hsic", "dcov"]
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["oracle", "--input", str(path), *spec, "--decompose"])
        assert result.exit_code == 0
        assert not re.search(r"-0\.0(?![0-9e])", result.output)
        out = json.loads(result.output)
        assert all(str(out[key]) == "0.0" for key in zeros)

    @pytest.mark.parametrize("text", ["0\n", "0,0\n0,0\n"])
    def test_a_zero_worst_eigenvalue_prints_as_plus_zero(self, runner, tmp_path, text):
        path = tmp_path / "zeros.csv"
        path.write_text(text)
        result = runner.invoke(main, ["validate", "--input", str(path)])
        assert result.exit_code == 0
        assert '"worst_eigenvalue": 0.0' in result.output


class TestEntryPoint:
    def test_python_dash_m_invocation(self, toy_sample):
        proc = subprocess.run(
            [sys.executable, "-m", "metricdep", "compute", "--input", toy_sample,
             "--estimator", "mcov", "--metric", "euclid2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["statistic"] == 0.25

    def test_usage_error_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "metricdep", "compute"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
