import json
import subprocess
import sys

import pytest

from frameguard import cli
from frameguard.cli import main
from frameguard.harness import EngineConfig, WorkloadParams, gen_workload, run_trace


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


def test_environment_sets_no_option(tmp_path, capsys, monkeypatch):
    # flags are the only configuration: neither a malformed value nor a
    # would-be exit policy in the environment changes the run
    trace = tmp_path / "t.txt"
    trace.write_text("alloc a 40\nstore a 40 1\n")
    monkeypatch.setenv("FRAMEGUARD_PAD", "x")
    monkeypatch.setenv("FRAMEGUARD_FAIL_ON_VIOLATION", "1")
    assert main(["run", str(trace)]) == 0
    assert "overflow=1" in capsys.readouterr().out


def test_run_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("alloc a 8\nload a 0 1\n"))
    assert main(["run", "-"]) == 0
    assert "ok=1" in capsys.readouterr().out


def test_form_feed_in_stdin_does_not_shift_line_numbers(capsys, monkeypatch):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(b"alloc a 10\f\nload zz 0 1\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["run", "-"]) == 2
    assert capsys.readouterr().err == "frameguard: line 2: undefined id 'zz'\n"


def test_a_frame_below_the_arena_base_is_served(capsys, monkeypatch):
    # b's 19-frame [0, 0x80000) begins below the base 0x30000
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("alloc a 0xFFE0\nalloc b 64\nstore b 0 4\n"))
    argv = ["run", "-", "--arena-base", "0x30000", "--arena-size", "0x100000",
            "--fail-on-violation"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "verdicts:   ok=1 overflow=0" in captured.out and captured.err == ""


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


@pytest.mark.parametrize("argv, message", [
    (["run", "t.txt", "--pad", "x"],
     "argument --pad: invalid integer value: 'x' (see frameguard run --help)"),
    (["gen", "--seed", "3"],
     "the following arguments are required: --objects (see frameguard gen --help)"),
    (["run"], "the following arguments are required: trace (see frameguard run --help)"),
], ids=["bad_pad", "gen_without_objects", "bare_run"])
def test_argument_errors_exit_2_with_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"frameguard: {message}\n" and captured.out == ""


def test_arena_exhaustion_exits_2(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc a 200000\nalloc b 200000\n")
    assert main(["run", str(trace), "--arena-size", "0x40000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("frameguard: arena exhausted") and err.count("\n") == 1


def test_entry_conflict_exits_2(tmp_path, capsys):
    # padding wider than a header lets two objects share one entry
    trace = tmp_path / "t.txt"
    trace.write_text("alloc a 65504\nalloc b 100\n")
    assert main(["run", str(trace), "--pad", "17"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("frameguard: entry") and err.count("\n") == 1


def test_out_of_range_size_exits_2_naming_its_line(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc a 8\nrealloc a 0x100000000\n")
    assert main(["run", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("frameguard: ") and "line 2" in err and err.count("\n") == 1


def test_offset_outside_address_space_exits_2(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc a 10\nload a 0x1000000000000 1\n")
    assert main(["run", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("frameguard: ") and "'a'" in err and err.count("\n") == 1


_GEN = ["gen", "--seed", "5", "--objects", "2"]


@pytest.mark.parametrize("argv, fields", [
    (["run", "t.txt"], {}),
    (["run", "t.txt", "--arena-base", "0x20000"], {"arena_base": 0x20000}),
    (["run", "t.txt", "--arena-size", "0x10000000"], {"arena_size": 0x10000000}),
    (["run", "t.txt", "--pad", "0"], {"pad_bytes": 0}),
    (["run", "t.txt", "--arith-checks"], {"arith_checks": True}),
    (["run", "t.txt", "--jitter", "5"], {"placement_jitter": 5}),
    (["run", "t.txt", "--seed", "3"], {"placement_seed": 3}),
    (_GEN, {}),
    (_GEN + ["--faults", "0.2"], {"fault_rate": 0.2}),
    (_GEN + ["--fault-kinds", "overflow,use_after_free,"],
     {"fault_kinds": ("overflow", "use_after_free")}),
    (_GEN + ["--sizes", "loguniform:1:100000"], {"size_dist": "loguniform:1:100000"}),
    (_GEN + ["--accesses", "2"], {"accesses_per_object": 2}),
    (_GEN + ["--edge-probe"], {"edge_probe": True}),
    (_GEN + ["--arrays", "0.3"], {"array_fraction": 0.3}),
    (_GEN + ["--free-fraction", "0.5"], {"free_fraction": 0.5}),
])
def test_each_flag_sets_its_field_and_omitted_flags_the_defaults(
        argv, fields, tmp_path, capsys, monkeypatch):
    seen = []

    def spy_run(events, config):
        seen.append(config)
        return run_trace(events, config)

    def spy_gen(seed, params):
        seen.append((seed, params))
        return gen_workload(seed, params)

    monkeypatch.setattr(cli, "run_trace", spy_run)
    monkeypatch.setattr(cli, "gen_workload", spy_gen)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text("alloc a 40\nstore a 38 4\n")
    assert main(argv) == 0
    if argv[0] == "run":
        assert seen == [EngineConfig(**fields)]
    else:
        assert seen == [(5, WorkloadParams(objects=2, **fields))]
