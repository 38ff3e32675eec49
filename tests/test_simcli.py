import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import nistab as ns
from nistab.simcli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VERIFY_FAILED,
    WINDOW,
    _reference_wiring,
    main,
)

from conftest import double_integrator, first_order_lag_minus, non_minimal_double_integrator


def _per_step(G, Gbar, wiring, dt, steps, r=1.0):
    """Reference step response: the recursion x <- Ad x + Bd r, one sample at
    a time, on the zero-order-hold pair of ``step_response``; stops after the
    first sample whose state is non-finite or above the divergence limit."""
    A_cl, B_cl, C_cl = _reference_wiring(G, Gbar, wiring)
    n = A_cl.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = A_cl * dt
    aug[:n, n:] = B_cl * dt
    E = scipy.linalg.expm(aug)
    Ad, Bd = E[:n, :n], E[:n, n:]
    x = np.zeros((n, 1))
    y = []
    for _ in range(steps):
        y.append((C_cl @ x).ravel())
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > ns.simcli.DIVERGENCE_LIMIT:
            return np.array(y), True
        x = Ad @ x + Bd * r
    return np.array(y), False


def _assert_matches_per_step(res, G, Gbar, wiring, dt, steps, r=1.0):
    y, diverged = _per_step(G, Gbar, wiring, dt, steps, r)
    assert len(res.t) == len(res.y) == len(y)
    assert res.diverged == diverged
    np.testing.assert_allclose(res.y, y, rtol=0.0, atol=1e-12 * np.max(np.abs(y)))
    np.testing.assert_allclose(res.t, np.arange(len(y)) * dt, rtol=0.0, atol=0.0)


@pytest.fixture(scope="module")
def arm_plants(beam_params):
    return {modes: ns.modal_to_ss(ns.finite_dim_approx(beam_params, modes))
            for modes in (1, 2, 5, 10)}


class TestStepResponseBlocks:
    """The samples come from block products with powers of the one ZOH matrix;
    the per-step recursion is the reference."""

    @pytest.mark.parametrize("wiring", ["additive", "replace"])
    @pytest.mark.parametrize("T_end, dt", [(10.0, 1e-3), (40.0, 0.02), (400.0, 0.1)])
    @pytest.mark.parametrize("modes", [1, 2, 5, 10])
    def test_agrees_with_per_step_recursion(self, arm_plants, paper_irc,
                                            modes, T_end, dt, wiring):
        G = arm_plants[modes]
        res = ns.step_response(G, paper_irc.realization, wiring=wiring,
                               T_end=T_end, dt=dt)
        assert not res.diverged
        _assert_matches_per_step(res, G, paper_irc.realization, wiring, dt,
                                 round(T_end / dt) + 1)

    @pytest.mark.parametrize("T_end, dt, steps", [
        (1e-4, 1e-3, 2), (0.006, 1e-3, 7), (0.999, 1e-3, 1000),
        (WINDOW - 1, 1.0, WINDOW), (WINDOW, 1.0, WINDOW + 1),
        (2 * WINDOW, 1.0, 2 * WINDOW + 1), (3.0, 1e-3, 3001)])
    def test_step_counts_around_the_window(self, arm_plants, paper_irc, T_end, dt, steps):
        res = ns.step_response(arm_plants[2], paper_irc.realization,
                               T_end=T_end, dt=dt)
        _assert_matches_per_step(res, arm_plants[2], paper_irc.realization,
                                 "additive", dt, steps)

    def test_divergence_at_the_same_sample(self):
        G, Gbar = double_integrator(), first_order_lag_minus(0.5)
        res = ns.step_response(G, Gbar, T_end=200.0, dt=0.05)
        assert res.diverged
        # the trajectory crosses the limit well inside the run, past one window
        assert WINDOW < len(res.t) < 4001
        _assert_matches_per_step(res, G, Gbar, "additive", 0.05, 4001)

    def test_zero_reference_exact_zeros_past_the_window(self, arm_plants, paper_irc):
        res = ns.step_response(arm_plants[5], paper_irc.realization, r=0.0,
                               T_end=10.0, dt=1e-3)
        assert not res.diverged and len(res.t) == 10001
        np.testing.assert_array_equal(res.y, np.zeros_like(res.y))

    def test_power_overflow_on_an_undriven_unstable_state(self):
        # the controller's state at +20 is never reached by the reference, so
        # it stays exactly 0; E^1024 overflows, and inf * 0 would be NaN
        G = ns.StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        Gbar = ns.StateSpaceModel(np.diag([-1.0, 20.0]), [[1.0], [0.0]],
                                  [[0.1, 0.0]], [[0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = ns.step_response(G, Gbar, T_end=300.0, dt=0.05)
        assert not res.diverged and len(res.t) == 6001
        _assert_matches_per_step(res, G, Gbar, "additive", 0.05, 6001)

    def test_keeps_only_one_window_of_states(self, arm_plants, paper_irc):
        # all 100,001 states of the 10-mode loop (n = 24) would take 19 MB;
        # y is 1.6 MB and one window of states 0.2 MB
        G = arm_plants[10]
        ns.step_response(G, paper_irc.realization, T_end=0.01, dt=1e-3)
        tracemalloc.start()
        try:
            res = ns.step_response(G, paper_irc.realization, T_end=100.0, dt=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.t) == 100001
        assert peak < 8e6


class TestStepResponse:
    def test_zero_reference_zero_output(self, arm_plant, paper_irc):
        res = ns.step_response(arm_plant, paper_irc.realization, r=0.0,
                               T_end=1.0, dt=0.01)
        assert not res.diverged
        np.testing.assert_array_equal(res.theta, np.zeros_like(res.theta))
        np.testing.assert_array_equal(res.Vs, np.zeros_like(res.Vs))

    def test_case_study_bounded_and_settles(self, arm_plant, paper_irc):
        # slowest loop pole decays at about 0.019/s, so settle well past that
        res = ns.step_response(arm_plant, paper_irc.realization,
                               T_end=400.0, dt=0.1)
        assert not res.diverged
        assert np.all(np.isfinite(res.theta))
        # settles onto the exact closed-loop DC value
        from nistab.simcli import _reference_wiring

        A_cl, B_cl, C_cl = _reference_wiring(arm_plant, paper_irc.realization,
                                             "additive")
        y_inf = -(C_cl @ np.linalg.solve(A_cl, B_cl)).ravel()
        assert res.theta[-1] == pytest.approx(y_inf[0], abs=2e-3)

    def test_exact_discretization_consistent_across_dt(self, arm_plant, paper_irc):
        r1 = ns.step_response(arm_plant, paper_irc.realization, T_end=2.0, dt=0.02)
        r2 = ns.step_response(arm_plant, paper_irc.realization, T_end=2.0, dt=0.01)
        np.testing.assert_allclose(r1.theta, r2.theta[::2], atol=1e-10)

    def test_sample_count_does_not_pass_t_end(self, arm_plant, paper_irc):
        # 0.07 / 0.01 = 7.000000000000001: ceil gave a ninth sample at t = 0.08
        res = ns.step_response(arm_plant, paper_irc.realization, T_end=0.07, dt=0.01)
        assert len(res.t) == 8
        assert res.t[-1] == pytest.approx(0.07)
        # 0.14 / 0.02 and 0.14 / 0.01 both land just above an integer
        r1 = ns.step_response(arm_plant, paper_irc.realization, T_end=0.14, dt=0.02)
        r2 = ns.step_response(arm_plant, paper_irc.realization, T_end=0.14, dt=0.01)
        assert len(r1.t) == 8 and len(r2.t) == 15
        np.testing.assert_allclose(r1.theta, r2.theta[::2], atol=1e-10)

    def test_unstable_pair_flagged_divergent(self):
        res = ns.step_response(double_integrator(), first_order_lag_minus(0.5),
                               T_end=200.0, dt=0.05)
        assert res.diverged

    def test_bounded_norm_under_hurwitz_loop(self, arm_plant, paper_irc):
        res = ns.step_response(arm_plant, paper_irc.realization,
                               T_end=40.0, dt=0.05, r=2.5)
        assert np.max(np.abs(res.y)) < 50.0

    def test_replace_wiring_selectable(self, arm_plant, paper_irc):
        res = ns.step_response(arm_plant, paper_irc.realization,
                               wiring="replace", T_end=1.0, dt=0.01)
        assert res.config["wiring"] == "replace"

    def test_unknown_wiring_rejected(self, arm_plant, paper_irc):
        with pytest.raises(ns.NistabError):
            ns.step_response(arm_plant, paper_irc.realization, wiring="bogus")


class TestRunAnalysis:
    def test_case_study_pipeline(self, arm_plant, paper_irc):
        plant_src = ns.model_to_dict(arm_plant)
        ctrl_src = {"irc": {"Gamma": paper_irc.Gamma.tolist(),
                            "Phi": paper_irc.Phi.tolist(),
                            "Delta": paper_irc.Delta.tolist()}}
        rep = ns.run_analysis(plant_src, ctrl_src)
        assert rep.ni_report.is_ni and rep.sni_report.is_sni
        assert rep.verdict.outcome is ns.Outcome.STABLE
        assert rep.verdict.theorem_used is ns.Theorem.DOUBLE_POLE
        assert rep.verdict.oracle_agrees is True
        assert rep.oracle_hurwitz is True
        out = rep.to_dict()
        json.dumps(out)
        assert out["schema_version"] == 2

    def test_one_pass(self, arm_plant, paper_irc, monkeypatch):
        """Each stage of the analysis, the PBH test included, runs once per report.

        The dc-gain plant has no origin pole: the verdict reads no Laurent
        data, and the report's own read shares the verdict's record."""
        dc_plant, _ = ns.random_ni_plant(np.random.default_rng(3), "dc_gain")
        eye = np.eye(dc_plant.m)
        cases = ((arm_plant, paper_irc.realization),
                 (dc_plant, ns.make_irc(eye, eye, 2.0 * eye).realization))
        names = ("classify_ni", "classify_sni", "laurent_coefficients",
                 "direct_stability", "is_minimal")
        calls = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        modules = [mod for key, mod in sys.modules.items() if key.startswith("nistab.")]
        for name in names:
            fn = getattr(ns, name)
            for mod in modules:
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted(name, fn))
        for plant, ctrl in cases:
            calls.update(dict.fromkeys(names, 0))
            rep = ns.run_analysis(plant, ctrl)
            assert rep.verdict.outcome is ns.Outcome.STABLE
            assert rep.laurent is not None
            assert calls == dict.fromkeys(names, 1)

    def test_non_minimal_plant_reported(self):
        ctrl = {"irc": {"Gamma": [[1.0]], "Phi": [[1.0]], "Delta": [[2.0]]}}
        rep = ns.run_analysis(non_minimal_double_integrator(), ctrl)
        assert rep.verdict.outcome is ns.Outcome.INCONCLUSIVE
        assert rep.verdict.reason.startswith(
            "classification unavailable: NotMinimalError: ")
        assert rep.oracle_hurwitz is True
        out = json.loads(json.dumps(rep.to_dict()))
        assert out["ni_report"] is None and out["laurent"] is None
        assert out["sni_report"]["is_sni"] is True

    def test_ni_violating_plant_reported(self):
        plant = {"A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}
        ctrl = {"irc": {"Gamma": [[1.0]], "Phi": [[1.0]], "Delta": [[2.0]]}}
        rep = ns.run_analysis(plant, ctrl)
        assert rep.verdict.outcome is ns.Outcome.PRECONDITION_FAILED


class TestCli:
    def _write(self, tmp_path, name, obj):
        f = tmp_path / name
        f.write_text(json.dumps(obj))
        return str(f)

    def test_stability_exit_codes(self, tmp_path, capsys):
        plant = self._write(tmp_path, "p.json", ns.model_to_dict(double_integrator()))
        ctrl = self._write(tmp_path, "c.json",
                           {"irc": {"Gamma": [[1.0]], "Phi": [[1.0]], "Delta": [[2.0]]}})
        assert main(["stability", plant, ctrl]) == EXIT_OK
        out = capsys.readouterr().out
        assert "stable" in out

    def test_printed_tolerances_are_those_used(self, tmp_path, capsys):
        plant = self._write(tmp_path, "p.json", ns.model_to_dict(double_integrator()))
        ctrl = self._write(tmp_path, "c.json",
                           {"irc": {"Gamma": [[1.0]], "Phi": [[1.0]], "Delta": [[2.0]]}})
        assert main(["--json", "--tol", "1e-3", "stability", plant, ctrl]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"]["tolerances"]["boundary_band"] == 1e-3
        assert data["tolerances"]["boundary_band"] == 1e-3

    def test_zero_tolerance_band_is_used(self, tmp_path, capsys):
        plant = self._write(tmp_path, "p.json", ns.model_to_dict(double_integrator()))
        ctrl = self._write(tmp_path, "c.json",
                           {"irc": {"Gamma": [[1.0]], "Phi": [[1.0]], "Delta": [[2.0]]}})
        assert main(["--json", "--tol", "0", "stability", plant, ctrl]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"]["tolerances"]["boundary_band"] == 0.0
        assert data["tolerances"]["boundary_band"] == 0.0

    def test_negative_tolerance_band_exit_2(self, tmp_path, capsys):
        plant = self._write(tmp_path, "p.json", ns.model_to_dict(double_integrator()))
        ctrl = self._write(tmp_path, "c.json",
                           {"irc": {"Gamma": [[1.0]], "Phi": [[1.0]], "Delta": [[2.0]]}})
        assert main(["--tol=-1e-3", "stability", plant, ctrl]) == EXIT_INPUT_ERROR
        assert "--tol" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        ctrl = self._write(tmp_path, "c.json",
                           {"irc": {"Gamma": [[1.0]], "Phi": [[1.0]], "Delta": [[2.0]]}})
        assert main(["stability", str(bad), str(ctrl)]) == EXIT_INPUT_ERROR

    def test_non_minimal_plant_exit_0(self, tmp_path, capsys):
        plant = self._write(tmp_path, "p.json",
                            ns.model_to_dict(non_minimal_double_integrator()))
        ctrl = self._write(tmp_path, "c.json",
                           {"irc": {"Gamma": [[1.0]], "Phi": [[1.0]], "Delta": [[2.0]]}})
        assert main(["stability", plant, ctrl]) == EXIT_OK
        assert "outcome: inconclusive" in capsys.readouterr().out

    def test_precondition_failure_exit_3(self, tmp_path):
        plant = self._write(tmp_path, "p.json",
                            {"A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]})
        ctrl = self._write(tmp_path, "c.json",
                           {"irc": {"Gamma": [[1.0]], "Phi": [[1.0]], "Delta": [[2.0]]}})
        assert main(["stability", plant, ctrl]) == EXIT_PRECONDITION

    def test_classify_json_output(self, tmp_path, capsys):
        plant = self._write(tmp_path, "p.json", ns.model_to_dict(double_integrator()))
        assert main(["--json", "classify", plant]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["ni"]["is_ni"] is True
        assert data["sni"]["is_sni"] is False

    def test_laurent_command(self, tmp_path, capsys):
        plant = self._write(tmp_path, "p.json", ns.model_to_dict(double_integrator()))
        assert main(["--json", "laurent", plant]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(data["G2"], [[1.0]], atol=1e-9)

    def test_verify_command(self, capsys):
        assert main(["--json", "verify", "--count", "16", "--seed", "5"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["agreement_fraction"] == 1.0

    def test_python_m_nistab(self):
        # `python -m nistab.simcli` ran a second copy of the CLI module, with
        # runpy's "found in sys.modules" RuntimeWarning
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONWARNINGS="default",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run(
            [sys.executable, "-m", "nistab", "--json", "verify", "--count", "4", "--seed", "8"],
            capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == EXIT_OK, run.stderr
        assert "Warning" not in run.stderr
        assert json.loads(run.stdout)["agreement_fraction"] == 1.0

    def test_verify_fails_on_disagreement_or_precondition(self, monkeypatch, capsys):
        def report(disagreements, precondition_failed):
            return ns.MonteCarloReport(
                count=4, applicable=4 - precondition_failed,
                agreements=4 - precondition_failed - len(disagreements), boundary=0,
                inconclusive=0, precondition_failed=precondition_failed,
                disagreements=disagreements, by_theorem={})

        for rep, code in ((report([], 0), EXIT_OK),
                          (report([(2, "mixed", "stable")], 0), EXIT_VERIFY_FAILED),
                          (report([], 1), EXIT_VERIFY_FAILED)):
            monkeypatch.setattr(ns.simcli, "montecarlo_agreement",
                                lambda count, seed, rep=rep: rep)
            assert main(["--json", "verify", "--count", "4"]) == code
            capsys.readouterr()

    def test_beam_scan_csv(self, capsys):
        assert main(["beam", "scan", "--wmin", "1.0", "--wmax", "5.0",
                     "--points", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "omega,value"
        assert len(lines) == 6

    def test_simulate_csv(self, tmp_path, capsys):
        plant = self._write(tmp_path, "p.json", ns.model_to_dict(double_integrator()))
        ctrl = self._write(tmp_path, "c.json",
                           {"irc": {"Gamma": [[1.0]], "Phi": [[1.0]], "Delta": [[2.0]]}})
        assert main(["simulate", plant, ctrl, "--tend", "0.5", "--dt", "0.1"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,theta,Vs"
        assert len(lines) == 7

    @pytest.mark.parametrize("irc", [
        {"Gamma": [[1.0]], "Phi": [[1.0]]},
        {"Gamma": [[1.0]], "Phi": [[1.0]], "Delta": "two"},
        [[1.0], [1.0], [2.0]],
    ], ids=["missing_delta", "string_entry", "list_wrapper"])
    def test_malformed_irc_wrapper_exit_2(self, tmp_path, capsys, irc):
        # each once escaped main as KeyError, ValueError or TypeError
        ctrl = self._write(tmp_path, "c.json", {"irc": irc})
        assert main(["classify", ctrl]) == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--count", "-5"],
        ["verify", "--count", "0"],
        ["beam", "scan", "--points", "0"],
        ["beam", "scan", "--wmin", "-1", "--points", "3"],
        ["beam", "scan", "--wmin", "5", "--wmax", "5", "--points", "3"],
        ["beam", "scan", "--wmin", "5", "--wmax", "1", "--points", "3"],
        ["beam", "scan", "--wmax", "inf", "--points", "3"],
        ["beam", "approx", "--modes", "222"],
    ], ids=["count_negative", "count_zero", "points_zero", "wmin_negative",
            "wmax_equal", "wmax_below", "wmax_infinite", "modes_overflow"])
    def test_out_of_range_numbers_exit_2(self, capsys, argv):
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err

    def test_beam_modes_command(self, capsys):
        assert main(["beam", "modes", "--count", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3.39532644" in out
