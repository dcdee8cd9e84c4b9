import json
import subprocess
import sys


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
