import json
import math
import subprocess
import sys
import warnings

import pytest

from conewalk import (
    _zoo,
    cli,
    escape_probability_bounds,
    exact_dp,
    excursion_sequence,
    laplace,
    load_model,
    mc,
    report,
    survival_sequence,
)
from conewalk.cli import main, run_report

FIVE_STEP = _zoo.FIVE_STEP.to_dict()


def _model_file(tmp_path_factory, name, model):
    path = tmp_path_factory.mktemp("models") / f"{name}.json"
    path.write_text(json.dumps(model.to_dict()))
    return str(path)


@pytest.fixture(scope="module")
def five_step_path(tmp_path_factory):
    return _model_file(tmp_path_factory, "fivestep", _zoo.FIVE_STEP)


@pytest.fixture(scope="module")
def neg_1d_path(tmp_path_factory):
    return _model_file(tmp_path_factory, "neg1d", _zoo.NEG_1D)


@pytest.fixture(scope="module")
def exterior_path(tmp_path_factory):
    return _model_file(tmp_path_factory, "exterior", _zoo.EXTERIOR)


@pytest.fixture(scope="module")
def pos_1d_path(tmp_path_factory):
    return _model_file(tmp_path_factory, "pos1d", _zoo.POS_1D)


@pytest.fixture(scope="module")
def heavy_ne_path(tmp_path_factory):
    return _model_file(tmp_path_factory, "heavy_ne", _zoo.HEAVY_NE)


@pytest.fixture(scope="module")
def trapped_path(tmp_path_factory):
    return _model_file(tmp_path_factory, "trapped", _zoo.TRAPPED)


@pytest.fixture(scope="module")
def halfspace_five_step_path(tmp_path_factory):
    """Five-step with its quarter plane written as two halfspaces: the same
    cone, but not the orthant that the escape bounds need."""
    path = tmp_path_factory.mktemp("models") / "fivestep_halfspaces.json"
    path.write_text(json.dumps(
        dict(FIVE_STEP, cone={"type": "halfspaces", "normals": [[1, 0], [0, 1]]})))
    return str(path)


@pytest.fixture(scope="module")
def two_pass_verdict(five_step_path):
    """The survival verdict block of five-step at horizon 150, built from the
    two passes the CLI once made for it: survival to 150, and escape bounds to
    A_INF_HORIZON for a_inf."""
    model = load_model(five_step_path)
    verdict = cli._survival_verdict(
        survival_sequence(model, 150), laplace.analyze(model.dist, model.cone),
        escape_probability_bounds(model, exact_dp.A_INF_HORIZON), cli.DEFAULT_KMAX)
    return report.verdict_block(verdict)


@pytest.fixture
def dp_passes(monkeypatch):
    """Horizons of the exact DP passes a run makes, in order."""
    horizons = []
    layers = exact_dp._integer_layers

    def counted(model, n, tilt, keep=None):
        horizons.append(n)
        return layers(model, n, tilt, keep)

    monkeypatch.setattr(exact_dp, "_integer_layers", counted)
    return horizons


class TestAnalyze:
    def test_full_report(self, five_step_path):
        doc, code = run_report(["analyze", "--model", five_step_path,
                                "--horizon", "60", "--kmax", "10"])
        assert code == 0
        assert doc["reportVersion"] == 1
        assert doc["flags"] == {"smallStep": True, "trapped": False,
                                "canReachInterior": True}
        assert doc["laplace"]["classification"] == "interior"
        assert doc["laplace"]["rho"] == pytest.approx(1.0, abs=1e-9)
        assert doc["sequences"]["survival"]["terms"][:3] == ["1/1", "3/5", "13/25"]
        assert doc["verdicts"]["survival"]["outcome"]["type"] == "no-recurrence"
        assert "interior-drift-positive-escape" in doc["regimeTags"]
        lo = doc["bounds"]["best"]["loFloat"]
        hi = doc["bounds"]["best"]["hiFloat"]
        assert lo <= hi and hi - lo < 0.01
        assert doc["assumptions"]["truly_d_dimensional"] is True
        assert sorted(doc["assumptions"]) == [
            "dual_minimum_exists", "global_minimum_exists", "interior_reachable",
            "interior_witness", "truly_d_dimensional"]

    def test_exterior_drift_tagged(self, neg_1d_path):
        doc, code = run_report(["analyze", "--model", neg_1d_path,
                                "--horizon", "60", "--kmax", "10"])
        assert code == 0
        assert doc["laplace"]["classification"] == "exterior"
        assert "exponential-survival-decay" in doc["regimeTags"]
        assert "bounds" not in doc

    def test_3d_walk_with_bounds(self, tmp_path_factory, dp_passes):
        # a tilted octant walk of lattice index 2 that can exit on every axis:
        # survival, the excursion and the bounds come off one 3D pass
        model = _zoo.TILTED_OCTANT
        assert (model.dimension, model.dist.lattice_index) == (3, 2)
        path = _model_file(tmp_path_factory, "tilted_octant", model)
        doc, code = run_report(["analyze", "--model", path, "--horizon", "30",
                                "--kmax", "5", "--target", "2,1,1"])
        assert code == 0
        assert dp_passes == [30]
        survival, excursion, bounds = exact_dp.survival_pass(model, 30, (2, 1, 1))
        assert any(excursion.terms)
        assert doc["sequences"] == {"survival": report.sequence_block(survival),
                                    "excursion": report.sequence_block(excursion)}
        assert doc["bounds"] == report.bounds_block(bounds)


class TestRegimeTags:
    @pytest.mark.parametrize("command", ["rho", "simulate"])
    def test_two_term_tag_follows_the_bounds_rule(self, five_step_path,
                                                  halfspace_five_step_path, command):
        argv = [command, "--horizon", "20", "--samples", "100"]
        doc, code = run_report(argv + ["--model", five_step_path])
        assert code == 0
        orthant = doc["regimeTags"]
        assert "interior-drift-two-term-decay" in orthant
        doc, code = run_report(argv + ["--model", halfspace_five_step_path])
        assert code == 0
        assert doc["regimeTags"] == [
            t for t in orthant if t != "interior-drift-two-term-decay"]


class TestRho:
    def test_known_minimizer(self, neg_1d_path):
        doc, code = run_report(["rho", "--model", neg_1d_path])
        assert code == 0
        assert doc["laplace"]["t0"][0] == pytest.approx(math.log(3) / 2, abs=1e-9)
        assert doc["laplace"]["rho"] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


class TestEnumerate:
    def test_survival_terms(self, neg_1d_path):
        doc, code = run_report(["enumerate", "--model", neg_1d_path,
                                "--horizon", "40", "--kmax", "8"])
        assert code == 0
        terms = doc["sequences"]["survival"]["terms"]
        assert len(terms) == 41
        assert terms[:2] == ["1/1", "1/4"]


class TestExcursion:
    def test_target_sequence(self, five_step_path):
        doc, code = run_report(["excursion", "--model", five_step_path,
                                "--horizon", "40", "--target", "0,0"])
        assert code == 0
        block = doc["sequences"]["excursion"]
        assert block["target"] == [0, 0]
        assert block["terms"][:3] == ["1/1", "0/1", "2/25"]
        fit = doc["verdicts"]["excursionExponent"]
        assert fit["rhoGlobal"] == pytest.approx(math.sqrt(2 + 2 * math.sqrt(2)) * 2 / 5,
                                                 abs=0.2)
        assert fit["kappa"] > 0

    def test_target_defaults_to_the_start(self, five_step_path):
        doc, code = run_report(["excursion", "--model", five_step_path,
                                "--horizon", "10"])
        assert code == 0
        block = doc["sequences"]["excursion"]
        assert block["target"] == [0, 0]
        assert block["terms"][:3] == ["1/1", "0/1", "2/25"]

    def test_no_exponent_from_one_term(self, five_step_path):
        # at horizon 2 the only positive term at n >= 1 is e_2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doc, code = run_report(["excursion", "--model", five_step_path,
                                    "--horizon", "2", "--target", "0,0"])
        assert code == 0
        assert doc["sequences"]["excursion"]["terms"] == ["1/1", "0/1", "2/25"]
        assert "excursionExponent" not in doc["verdicts"]


class TestBounds:
    def test_interval_report(self, five_step_path):
        doc, code = run_report(["bounds", "--model", five_step_path,
                                "--horizon", "50"])
        assert code == 0
        best = doc["bounds"]["best"]
        assert best["loFloat"] <= best["hiFloat"]
        assert len(doc["bounds"]["intervals"]) == 51

    def test_rejected_without_interior_drift(self, neg_1d_path):
        doc, code = run_report(["bounds", "--model", neg_1d_path])
        assert code == 2
        assert "error" in doc


class TestGuess:
    def test_no_recurrence_for_quarter_plane(self, five_step_path):
        doc, code = run_report(["guess", "--model", five_step_path,
                                "--horizon", "80", "--kmax", "15"])
        assert code == 0
        out = doc["verdicts"]["survival"]["outcome"]
        assert out["type"] == "no-recurrence"
        assert out["orderCap"] == 15

    def test_recurrence_for_trapped_walk(self, trapped_path):
        doc, code = run_report(["guess", "--model", trapped_path,
                                "--horizon", "40", "--kmax", "5"])
        assert code == 0
        assert doc["verdicts"]["survival"]["outcome"] == {
            "type": "recurrence",
            "order": 1,
            "coefficients": ["1/1"],
            "characteristicRoots": [{"re": 1.0, "im": 0.0, "multiplicity": 1}],
        }
        assert "trapped-constant-sequence" in doc["regimeTags"]


class TestSimulate:
    def test_plain_and_tilted_blocks(self, neg_1d_path):
        doc, code = run_report(["simulate", "--model", neg_1d_path,
                                "--horizon", "20", "--samples", "5000",
                                "--seed", "7"])
        assert code == 0
        methods = {b["method"] for b in doc["mc"]}
        assert methods == {"plain", "tilted"}
        plain = next(b for b in doc["mc"] if b["method"] == "plain")
        tilted = next(b for b in doc["mc"] if b["method"] == "tilted")
        assert abs(plain["mean"] - tilted["mean"]) <= 5 * (
            plain["stdError"] + tilted["stdError"])

    def test_needs_samples(self, neg_1d_path):
        doc, code = run_report(["simulate", "--model", neg_1d_path])
        assert code == 2

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_zero_tilt_runs_one_estimate(self, monkeypatch, five_step_path,
                                         exterior_path, command):
        # five-step has interior drift, so its tilt is t0 = 0, rho = 1 under
        # its own weights and the tilted estimate is the plain one
        model = load_model(five_step_path)
        an = laplace.analyze(model.dist, model.cone)
        want = [report.mc_block(mc.simulate_survival(model, 30, 2000, 8)),
                report.mc_block(mc.simulate_tilted(model, an, 30, 2000, 8))]
        calls = []
        real = mc._estimate

        def counting(*args, **kwargs):
            calls.append(args[-1])
            return real(*args, **kwargs)

        monkeypatch.setattr(mc, "_estimate", counting)
        argv = [command, "--horizon", "30", "--samples", "2000", "--seed", "8"]
        doc, code = run_report(argv + ["--model", five_step_path])
        assert code == 0
        assert calls == ["plain"]
        assert json.dumps(doc["mc"], sort_keys=True) == json.dumps(want, sort_keys=True)
        calls.clear()
        doc, code = run_report(argv + ["--model", exterior_path])
        assert code == 0
        assert calls == ["plain", "tilted"]
        assert [b["method"] for b in doc["mc"]] == ["plain", "tilted"]


class TestDpPasses:
    def test_analyze_reads_survival_off_the_bounds_pass(self, five_step_path,
                                                         dp_passes):
        _, code = run_report(["analyze", "--model", five_step_path,
                              "--horizon", "30", "--kmax", "5", "--target", "0,0"])
        assert code == 0
        assert dp_passes == [30]  # the excursion is read off the bounds pass

    def test_analyze_target_without_bounds_is_one_pass(self, exterior_path,
                                                       dp_passes):
        # survival and the excursion come off one unpruned pass
        doc, code = run_report(["analyze", "--model", exterior_path,
                                "--horizon", "60", "--kmax", "10", "--target", "0,0"])
        assert code == 0
        assert "bounds" not in doc
        assert dp_passes == [60]
        model = load_model(exterior_path)
        assert doc["sequences"] == {
            "survival": report.sequence_block(survival_sequence(model, 60)),
            "excursion": report.sequence_block(excursion_sequence(model, (0, 0), 60)),
        }

    def test_enumerate_within_a_inf_horizon_is_one_pass(self, five_step_path,
                                                        dp_passes):
        _, code = run_report(["enumerate", "--model", five_step_path,
                              "--horizon", "60"])
        assert code == 0
        assert dp_passes == [60]

    def test_enumerate_past_a_inf_horizon(self, pos_1d_path, heavy_ne_path, dp_passes):
        # a_inf reads the intervals up to A_INF_HORIZON off the survival pass;
        # five-step at 1, 1, 1, 1, 2 runs the identity tilt
        for command, path in (("enumerate", pos_1d_path), ("bounds", heavy_ne_path)):
            dp_passes.clear()
            _, code = run_report([command, "--model", path, "--horizon", "150"])
            assert code == 0
            assert dp_passes == [150]

    @pytest.mark.parametrize("command", ["analyze", "enumerate", "guess", "bounds"])
    def test_one_pass_on_a_bounds_model(self, five_step_path, two_pass_verdict,
                                        dp_passes, command):
        doc, code = run_report([command, "--model", five_step_path,
                                "--horizon", "150"])
        assert code == 0
        assert dp_passes == [150]
        if command != "bounds":
            assert doc["verdicts"]["survival"] == two_pass_verdict

    def test_enumerate_target_reads_the_excursion_off_its_pass(self, exterior_path,
                                                               dp_passes):
        doc, code = run_report(["enumerate", "--model", exterior_path,
                                "--horizon", "60", "--target", "0,0"])
        assert code == 0
        assert dp_passes == [60]
        want, code = run_report(["excursion", "--model", exterior_path,
                                 "--horizon", "60", "--target", "0,0"])
        assert code == 0
        assert doc["sequences"]["excursion"] == want["sequences"]["excursion"]
        assert doc["verdicts"]["excursionExponent"] == want["verdicts"]["excursionExponent"]

    @pytest.mark.parametrize("command", ["analyze", "enumerate", "excursion", "rho",
                                         "bounds", "guess", "simulate"])
    def test_target_on_every_command_is_one_pass(self, five_step_path, dp_passes,
                                                 command):
        # survival commands read the excursion off their pass; rho and
        # simulate make the pruned excursion pass
        doc, code = run_report([command, "--model", five_step_path, "--horizon", "40",
                                "--target", "1,0", "--samples", "200"])
        assert code == 0
        assert dp_passes == [40]
        model = load_model(five_step_path)
        assert doc["sequences"]["excursion"] == report.sequence_block(
            excursion_sequence(model, (1, 0), 40))
        assert "excursionExponent" in doc["verdicts"]

    def test_bounds_rule_fails_before_laplace(self, tmp_path, dp_passes, monkeypatch):
        # Laplace would raise Unbounded here: every step points out of the cone
        path = tmp_path / "dying.json"
        path.write_text(json.dumps(dict(
            FIVE_STEP, steps=[{"v": [-1, 0], "w": "1/2"}, {"v": [0, -1], "w": "1/2"}],
            start=[1, 1])))

        def no_laplace(*args):
            raise AssertionError("Laplace ran")

        monkeypatch.setattr(laplace, "analyze", no_laplace)
        with pytest.warns(UserWarning, match="no confined path"):
            doc, code = run_report(["bounds", "--model", str(path)])
        assert code == 2
        assert doc["error"] == ("DriftNotInterior: the boundary exit functional "
                                "needs an interior drift")
        assert dp_passes == []

    @pytest.mark.parametrize("path, argv, error", [
        ("halfspace_five_step_path", ["bounds"],
         "UnsupportedCone: the boundary exit functional needs the orthant"),
        ("five_step_path", ["simulate", "--horizon", "300", "--target", "0,0"],
         "ConewalkError: simulate needs --samples > 0"),
    ])
    def test_rejected_before_laplace(self, request, dp_passes, monkeypatch,
                                     path, argv, error):
        def no_laplace(*args):
            raise AssertionError("Laplace ran")

        monkeypatch.setattr(laplace, "analyze", no_laplace)
        doc, code = run_report(argv + ["--model", request.getfixturevalue(path)])
        assert code == 2
        assert doc["error"] == error
        assert dp_passes == []

    @pytest.mark.parametrize("command", ["analyze", "enumerate", "guess"])
    def test_too_short_horizon_fails_before_the_dp(self, five_step_path, neg_1d_path,
                                                   dp_passes, command):
        for path in (five_step_path, neg_1d_path):
            doc, code = run_report([command, "--model", path, "--horizon", "8"])
            assert code == 2
            assert doc["error"] == "InsufficientTerms: need at least 10 terms, got 9"
        assert dp_passes == []

    @pytest.mark.parametrize("target", ["-1", "0,0"])
    def test_bad_target_fails_before_the_dp(self, neg_1d_path, dp_passes,
                                            monkeypatch, target):
        # without the check, the survival pass would overrun the budget first
        monkeypatch.setenv("CONEWALK_MEM_BUDGET", "20000")
        doc, code = run_report(["analyze", "--model", neg_1d_path,
                                "--horizon", "400", "--target", target])
        assert code == 2
        assert doc["error"].startswith("PointOutsideCone: ")
        assert dp_passes == []


COMMANDS = ("analyze", "enumerate", "excursion", "rho", "bounds", "guess", "simulate")


class TestParser:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_full_argv_parses(self, command):
        args = cli._parser().parse_args([
            command, "--model", "m.json", "--horizon", "40", "--kmax", "7",
            "--target", "1,2", "--samples", "100", "--seed", "3", "--normalize",
            "--out", "report", "--format", "csv"])
        assert vars(args) == {
            "command": command, "model": "m.json", "horizon": 40, "kmax": 7,
            "target": "1,2", "samples": 100, "seed": 3, "normalize": True,
            "out": "report", "format": "csv"}

    @pytest.mark.parametrize("argv,message", [
        (["walk", "--model", "m.json"], "argument command: invalid choice: 'walk'"),
        (["analyze"], "the following arguments are required: --model"),
    ], ids=["unknown-command", "no-model"])
    def test_usage_errors_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            run_report(argv)
        assert exit_.value.code == 2 and message in capsys.readouterr().err


class TestErrorsAndExitCodes:
    def test_missing_file(self):
        doc, code = run_report(["analyze", "--model", "/nonexistent.json"])
        assert code == 2
        assert "error" in doc

    def test_directory_as_model(self, tmp_path):
        doc, code = run_report(["analyze", "--model", str(tmp_path)])
        assert code == 2
        assert doc["error"].startswith("IsADirectoryError: ")

    def test_non_utf8_model(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(FIVE_STEP).encode() + b" \xe9")
        doc, code = run_report(["analyze", "--model", str(path)])
        assert code == 2
        assert doc["error"].startswith("MalformedFile: model file is not UTF-8")

    def test_out_names_an_existing_file(self, neg_1d_path, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        doc, code = run_report(["rho", "--model", neg_1d_path, "--out", str(out)])
        assert code == 2
        assert doc["error"].startswith("FileExistsError: ")

    def test_stalled_minimizer(self, exterior_path, monkeypatch):
        # rho needs the minimizer; enumerate runs without its laplace block
        monkeypatch.setattr(laplace, "MAX_ITER", 0)
        doc, code = run_report(["rho", "--model", exterior_path, "--horizon", "40"])
        assert code == 2
        assert doc["error"].startswith("NotConverged: ")
        doc, code = run_report(["enumerate", "--model", exterior_path, "--horizon", "40"])
        assert code == 0
        assert "laplace" not in doc and "survival" in doc["sequences"]
        assert doc["verdicts"]["survival"]["rhoSource"] == "sequence"
        # 21 terms are too few to estimate a rate, and Laplace gave none
        doc, code = run_report(["enumerate", "--model", exterior_path, "--horizon", "20"])
        assert code == 0
        verdict = doc["verdicts"]["survival"]
        assert (verdict["rhoSource"], verdict["rhoHat"]) == ("assumed", 1.0)
        assert "rateDiagnostics" not in verdict

    def test_negative_seed(self, five_step_path):
        doc, code = run_report(["analyze", "--model", five_step_path, "--horizon", "10",
                                "--samples", "100", "--seed", "-1"])
        assert code == 2
        assert doc["error"] == "ConewalkError: the seed must be in [0, 2^64), got -1"

    def test_malformed_model(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        doc, code = run_report(["analyze", "--model", str(path)])
        assert code == 2

    @pytest.mark.parametrize("entry", ['"nan"', "1e999", '"x"'])
    def test_non_numeric_or_infinite_normal(self, tmp_path, entry):
        doc = dict(FIVE_STEP, cone={"type": "halfspaces", "normals": [["BAD", 0], [0, 1]]})
        path = tmp_path / "normals.json"
        path.write_text(json.dumps(doc).replace('"BAD"', entry))
        doc, code = run_report(["analyze", "--model", str(path)])
        assert code == 2
        assert doc["error"].startswith("MalformedFile: normal must be finite numbers")

    def test_memory_budget_exit_code(self, five_step_path, monkeypatch):
        monkeypatch.setenv("CONEWALK_MEM_BUDGET", "10000")
        doc, code = run_report(["enumerate", "--model", five_step_path,
                                "--horizon", "400"])
        assert code == 3
        assert "try horizon" in doc["error"]

    def test_no_horizon_fits_the_memory_budget(self, five_step_path, monkeypatch):
        monkeypatch.setenv("CONEWALK_MEM_BUDGET", "0")
        doc, code = run_report(["enumerate", "--model", five_step_path,
                                "--horizon", "20"])
        assert code == 3
        assert doc["error"].startswith("MemoryBudgetExceeded: horizon 20 needs ~")
        assert doc["error"].endswith("(budget 0.0 B); no horizon fits")

    @pytest.mark.parametrize("value", ["abc", "1e9", "-1"])
    def test_malformed_memory_budget_exits_2(self, five_step_path, monkeypatch, value):
        monkeypatch.setenv("CONEWALK_MEM_BUDGET", value)
        doc, code = run_report(["enumerate", "--model", five_step_path,
                                "--horizon", "10"])
        assert code == 2
        assert doc["error"] == ("ConewalkError: CONEWALK_MEM_BUDGET must be a whole number "
                                f"of bytes, got {value!r}")

    @pytest.mark.parametrize("command", ["analyze", "enumerate", "excursion", "rho",
                                         "bounds", "guess", "simulate"])
    @pytest.mark.parametrize("target, error", [
        ("a,b", "ConewalkError"), ("0,,0", "ConewalkError"), ("", "ConewalkError"),
        ("0,-1", "PointOutsideCone"), ("0", "PointOutsideCone"),
    ])
    def test_bad_target(self, five_step_path, command, target, error):
        doc, code = run_report([command, "--model", five_step_path,
                                "--horizon", "10", "--kmax", "2",
                                "--target", target, "--samples", "10"])
        assert code == 2
        assert doc["error"].startswith(f"{error}: ")

    @pytest.mark.parametrize("command", ["analyze", "enumerate", "excursion", "rho",
                                         "bounds", "guess", "simulate"])
    def test_negative_horizon(self, five_step_path, command):
        doc, code = run_report([command, "--model", five_step_path,
                                "--horizon", "-5", "--samples", "10"])
        assert code == 2
        assert "--horizon must be non-negative" in doc["error"]

    @pytest.mark.parametrize("command", ["analyze", "enumerate", "excursion", "rho",
                                         "bounds", "guess", "simulate"])
    def test_negative_samples(self, five_step_path, dp_passes, command):
        doc, code = run_report([command, "--model", five_step_path,
                                "--horizon", "40", "--samples", "-5"])
        assert code == 2
        assert doc["error"] == "ConewalkError: --samples must be non-negative, got -5"
        assert dp_passes == []

    @pytest.mark.parametrize("kmax", ["0", "-3"])
    @pytest.mark.parametrize("command", ["analyze", "enumerate", "excursion", "rho",
                                         "bounds", "guess", "simulate"])
    def test_nonpositive_kmax(self, five_step_path, command, kmax):
        doc, code = run_report([command, "--model", five_step_path, "--horizon", "40",
                                "--kmax", kmax, "--samples", "10"])
        assert code == 2
        assert "--kmax must be positive" in doc["error"]

    def test_normalize_flag(self, tmp_path):
        doc = dict(FIVE_STEP, steps=[{"v": [1, 0], "w": "1/5"},
                                     {"v": [-1, 0], "w": "1/5"}])
        path = tmp_path / "un.json"
        path.write_text(json.dumps(doc))
        _, code = run_report(["enumerate", "--model", str(path),
                              "--horizon", "30", "--kmax", "5"])
        assert code == 2
        with pytest.warns(UserWarning, match="no confined path"), \
                pytest.warns(UserWarning, match="do not span"):
            _, code = run_report(["enumerate", "--model", str(path),
                                  "--horizon", "30", "--kmax", "5", "--normalize"])
        assert code == 0


class TestOutputs:
    def test_out_directory_files(self, five_step_path, tmp_path):
        out = tmp_path / "report"
        _, code = run_report(["analyze", "--model", five_step_path,
                              "--horizon", "30", "--kmax", "5",
                              "--target", "0,0", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["reportVersion"] == 1
        survival = (out / "survival.csv").read_text().splitlines()
        assert survival[0] == "n,numerator,denominator,value"
        assert survival[1] == "0,1,1,1.0"
        model = load_model(five_step_path)
        for name, seq in (("survival", survival_sequence(model, 30)),
                          ("excursion", excursion_sequence(model, (0, 0), 30))):
            assert (out / f"{name}.csv").read_text() == seq.to_csv()

    def test_csv_stdout(self, neg_1d_path, capsys):
        code = main(["enumerate", "--model", neg_1d_path, "--horizon", "10",
                     "--kmax", "1", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,numerator,denominator,value"
        assert len(lines) == 12

    def test_json_stdout(self, neg_1d_path, capsys):
        code = main(["rho", "--model", neg_1d_path])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["laplace"]["rho"] == pytest.approx(math.sqrt(3) / 2)

    def test_console_entry_point(self, neg_1d_path):
        proc = subprocess.run(
            [sys.executable, "-m", "conewalk.cli", "rho", "--model", neg_1d_path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["laplace"]["classification"] == "exterior"

    def test_runs_without_scipy(self, five_step_path, tmp_path):
        # scipy is a test dependency only; analyze rejects halfspace cones
        # (exact DP is orthant-only), so rho runs the wedge's existence tests
        wedge = tmp_path / "wedge.json"
        wedge.write_text(json.dumps(
            dict(FIVE_STEP, cone={"type": "halfspaces", "normals": [[1, 0], [1, -1]]})))
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from conewalk.cli import run_report\n"
            f"_, a = run_report(['analyze', '--model', {five_step_path!r}, '--horizon', '12'])\n"
            f"_, b = run_report(['rho', '--model', {str(wedge)!r}])\n"
            "sys.exit(a or b)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
