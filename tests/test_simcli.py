import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nistab as ns
from nistab.simcli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VERIFY_FAILED,
    main,
)

from conftest import double_integrator, first_order_lag_minus


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
        """Each stage of the analysis, the PBH test included, runs once per report."""
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
        rep = ns.run_analysis(arm_plant, paper_irc.realization)
        assert rep.verdict.outcome is ns.Outcome.STABLE
        assert calls == dict.fromkeys(names, 1)

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

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        ctrl = self._write(tmp_path, "c.json",
                           {"irc": {"Gamma": [[1.0]], "Phi": [[1.0]], "Delta": [[2.0]]}})
        assert main(["stability", str(bad), str(ctrl)]) == EXIT_INPUT_ERROR

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

    def test_beam_modes_command(self, capsys):
        assert main(["beam", "modes", "--count", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3.39532644" in out
