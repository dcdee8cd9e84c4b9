import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)


def write_report(directory: Path, terminal: float, timestamp: str) -> None:
    directory.mkdir()
    payload = {
        "command": "control",
        "timestamp": timestamp,
        "checks": [
            {"name": "control_norm", "passed": None, "value": 2.0},
            {"name": "terminal_relative_total", "passed": True, "value": terminal},
        ],
    }
    (directory / "report_control.json").write_text(json.dumps(payload))


def test_identical_up_to_timestamp(tmp_path, capsys):
    write_report(tmp_path / "a", 1.6e-6, "2026-01-01")
    write_report(tmp_path / "b", 1.6e-6, "2026-01-02")
    assert report_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "0 value(s) differ" in capsys.readouterr().out


def test_moved_value_is_named_by_check(tmp_path, capsys):
    write_report(tmp_path / "a", 1.6e-6, "t")
    write_report(tmp_path / "b", 8.7e-11, "t")
    rows = report_diff.compare_dirs(tmp_path / "a", tmp_path / "b", 0.0)
    assert rows == [("report_control.json", "checks[terminal_relative_total].value",
                     1.6e-6, 8.7e-11)]
    assert report_diff.compare_dirs(tmp_path / "a", tmp_path / "b", 1.0) == []
    assert report_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "1 value(s) differ" in capsys.readouterr().out


def test_csv_sidecar_compared_cell_by_cell(tmp_path, capsys):
    for name, norm in (("a", "2.5"), ("b", "2.5000001")):
        write_report(tmp_path / name, 1.6e-6, "t")
        (tmp_path / name / "atoms.csv").write_text(
            f"m,k,norm\n-1,1,1.25\n1,1,{norm}\n")
    rows = report_diff.compare_dirs(tmp_path / "a", tmp_path / "b", 0.0)
    assert rows == [("atoms.csv", "row[1].norm", 2.5, 2.5000001)]
    assert report_diff.compare_dirs(tmp_path / "a", tmp_path / "b", 1e-6) == []
    assert report_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "atoms.csv  row[1].norm  2.5 -> 2.5000001" in capsys.readouterr().out
