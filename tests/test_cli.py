import json
import subprocess
import sys

from frameguard.cli import main


def test_run_text_and_json(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc a 40\nstore a 38 4\n")

    assert main(["run", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "overflow=1" in out

    assert main(["run", str(trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdicts"]["overflow"] == 1
    assert payload["checks"]["access_checks"] == 1


def test_fail_on_violation_exit_code(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc a 40\nstore a 40 1\n")
    assert main(["run", str(trace), "--fail-on-violation"]) == 1
    capsys.readouterr()
    trace.write_text("alloc a 40\nstore a 39 1\n")
    assert main(["run", str(trace), "--fail-on-violation"]) == 0


def test_gen_then_run_manifest(tmp_path, capsys):
    trace = tmp_path / "w.txt"
    manifest_file = tmp_path / "w.json"
    assert main([
        "gen", "--seed", "9", "--objects", "60", "--faults", "0.3",
        "--fault-kinds", "overflow,double_free", "--accesses", "3",
        "--out", str(trace), "--manifest", str(manifest_file),
    ]) == 0
    capsys.readouterr()

    manifest = json.loads(manifest_file.read_text())
    assert manifest["fault_count"] == len(manifest["faults"]) > 0

    assert main(["run", str(trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    detected = sum(v for k, v in payload["verdicts"].items()
                   if k not in ("ok", "untracked"))
    assert detected == manifest["fault_count"]


def test_gen_to_stdout(capsys):
    assert main(["gen", "--seed", "1", "--objects", "3", "--accesses", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("alloc")


def test_env_overrides(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc a 40\nstore a 40 1\n")
    monkeypatch.setenv("FRAMEGUARD_FAIL_ON_VIOLATION", "1")
    monkeypatch.setenv("FRAMEGUARD_PAD", "1")
    assert main(["run", str(trace)]) == 1
    capsys.readouterr()


def test_run_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("alloc a 8\nload a 0 1\n"))
    assert main(["run", "-"]) == 0
    assert "ok=1" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc a 40\nstore a 36 4\n")
    proc = subprocess.run(
        [sys.executable, "-m", "frameguard", "run", str(trace), "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdicts"]["ok"] == 1


def test_bad_trace_exits_2_with_line(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc a 40\nstore b 0 1\n")
    assert main(["run", str(trace)]) == 2
    assert "line 2" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.txt")]) == 2
    assert "missing.txt" in capsys.readouterr().err


def test_arena_exhaustion_exits_2(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc a 200000\nalloc b 200000\n")
    assert main(["run", str(trace), "--arena-size", "0x40000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("frameguard: arena exhausted") and err.count("\n") == 1


def test_offset_outside_address_space_exits_2(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc a 10\nload a 0x1000000000000 1\n")
    assert main(["run", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("frameguard: ") and "'a'" in err and err.count("\n") == 1
