import json
import subprocess
import sys

import pytest


def run_cli(*argv: str):
    return subprocess.run(
        [sys.executable, "-m", "memwave.cli", *argv],
        capture_output=True, text=True)


class TestCLI:
    def test_verify_all_passes(self, tmp_path):
        out = tmp_path / "out"
        res = run_cli("verify-all", "--N", "4", "--n-prod", "500",
                      "--Nt", "2048", "--out", str(out))
        assert res.returncode == 0, res.stdout + res.stderr
        for name in ("spectrum", "gaps", "riesz", "biorth", "control",
                     "simulate", "beam"):
            payload = json.loads((out / f"report_{name}.json").read_text())
            assert payload["status"] == "pass"
            assert payload["checks"]
        assert (out / "spectrum.csv").exists()
        assert (out / "close_pairs.csv").exists()
        assert (out / "control.json").exists()
        assert (out / "beam_sweep.csv").exists()

    def test_deterministic_reports(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            res = run_cli("gaps", "--N", "4", "--seed", "7", "--out", str(out))
            assert res.returncode == 0
            payload = json.loads((out / "report_gaps.json").read_text())
            payload.pop("timestamp")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_simulate_defaults_write_nothing_to_stderr(self, tmp_path):
        # the rk4 order probe runs at and above the 10*T*N resolution rule,
        # so no resolution warning fires at the defaults
        res = run_cli("simulate", "--out", str(tmp_path))
        assert res.returncode == 0, res.stdout + res.stderr
        assert res.stderr == ""

    def test_memoryless_coupling_rejected(self, tmp_path):
        res = run_cli("spectrum", "--M", "0", "--out", str(tmp_path))
        assert res.returncode == 1
        assert "memory" in res.stderr

    def test_excluded_velocity_rejected(self, tmp_path):
        res = run_cli("gaps", "--c", "1", "--out", str(tmp_path))
        assert res.returncode == 1
        assert "accumulate" in res.stderr

    @pytest.mark.parametrize("flag, value", [
        ("--M", "nan"), ("--M", "inf"), ("--T", "inf"), ("--c", "nan")])
    def test_nonfinite_parameter_rejected(self, tmp_path, flag, value):
        res = run_cli("control", flag, value, "--out", str(tmp_path))
        assert res.returncode == 1
        assert "parameter rejected" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "report_control.json").exists()

    @pytest.mark.parametrize("argv", [
        ("biorth", "--reg", "-1"), ("biorth", "--n-prod", "10"),
        ("control", "--Nt", "0"), ("simulate", "--Nt", "0"),
        ("beam", "--eps-sweep", "0.01"), ("control", "--reg", "-1")])
    def test_refusal_inside_command_is_reported(self, tmp_path, argv):
        res = run_cli(*argv, "--N", "4", "--out", str(tmp_path))
        assert res.returncode == 1, res.stdout + res.stderr
        assert "Traceback" not in res.stderr
        payload = json.loads((tmp_path / f"report_{argv[0]}.json").read_text())
        assert payload["status"] == "fail"
        (completed,) = [c for c in payload["checks"] if c["name"] == "completed"]
        assert completed["passed"] is False
        assert completed["value"] == "InvalidParameterError" and completed["note"]
        if argv[0] == "beam":
            # refused before any check: no vacuous pass, no one-point fit
            assert not any(c["passed"] is True for c in payload["checks"])
            assert "RankWarning" not in res.stderr

    def test_import_leaves_scipy_integrate_unloaded(self):
        # every integral in src/ is a closed form or Gauss-Legendre, and the
        # product tail's polygamma values come from their series, so no layer
        # module pays for importing scipy.integrate or scipy.special
        code = ("import sys, memwave.model, memwave.spectrum, memwave.gaps, "
                "memwave.biorthogonal, memwave.moment_control, memwave.simulator, "
                "memwave.beam, memwave.cli; "
                "print([m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules])")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_subcritical_control_warns(self, tmp_path):
        res = run_cli("control", "--T", "5", "--N", "4", "--out", str(tmp_path))
        assert res.returncode == 2
        payload = json.loads((tmp_path / "report_control.json").read_text())
        assert payload["status"] == "warning"
        assert payload["warnings"]

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "M": 1.0, "c": 0.5, "T": 30.0,
            "omega0": [[0.0, 1.0]], "N": 3}))
        res = run_cli("gaps", "--config", str(cfg), "--out", str(tmp_path))
        assert res.returncode == 0
        payload = json.loads((tmp_path / "report_gaps.json").read_text())
        assert payload["params"]["c"] == 0.5
