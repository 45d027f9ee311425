import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameguard import cli
from frameguard.cli import main
from frameguard.harness import _GRAMMAR, EngineConfig, WorkloadParams, gen_workload, run_trace


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


# -- any stdin, any option values: exit 0, 1 or 2, never a traceback ------

_FUZZ_INTS = st.builds(
    lambda n, render: render(n),
    st.one_of(st.integers(0, 64), st.integers(-64, 1 << 17), st.integers(-(1 << 70), 1 << 70)),
    st.sampled_from((str, hex)),
)


@st.composite
def _fuzz_line(draw) -> bytes:
    """A line of any of the 12 ops, sometimes malformed, or raw bytes."""
    if draw(st.integers(0, 15)) == 0:
        return draw(st.binary(max_size=12))    # often invalid UTF-8
    op = draw(st.sampled_from(sorted(_GRAMMAR)))
    spec = _GRAMMAR[op]
    words = [op] + [draw(st.sampled_from("abc")) for _ in range(spec.ids)]
    words += [draw(_FUZZ_INTS) for _ in spec.fields]
    if draw(st.integers(0, 9)) == 0:
        words = words[:-1] if draw(st.booleans()) else words + [draw(_FUZZ_INTS)]
    line = draw(st.sampled_from((" ", "\t", "\f", " \f "))).join(words)
    if draw(st.booleans()):
        line += " # " + draw(st.text(max_size=6))
    return line.encode("utf-8")


@st.composite
def _fuzz_stdin(draw) -> bytes:
    lines = [] if draw(st.integers(0, 3)) == 0 else [
        b"alloc a 64", b"alloc_array b 4 8", b"alloc c 0x10000"]
    lines += draw(st.lists(_fuzz_line(), max_size=12))
    return b"".join(line + draw(st.sampled_from((b"\n", b"\r\n", b"\r"))) for line in lines)


_FUZZ_OPTIONS = {
    "--pad": ("0", "1", "17", "0x10", "-1", "x", ""),
    "--jitter": ("0", "3", "0x40", "-2", "1.5"),
    "--seed": ("0", "9", "-9", "0b101", "seed"),
    "--arena-base": ("0x100000000000", "0x30000", "0", "0x10001", "0xffffffff0000",
                     "-0x10000", "2**44"),
    "--arena-size": ("0x100000", "0x10000000", "0", "0x10001", "0x1000000000000", "-0x10000"),
}


@st.composite
def _fuzz_options(draw) -> list[str]:
    argv = []
    for flag, values in _FUZZ_OPTIONS.items():
        if draw(st.integers(0, 3)) == 0:
            argv += [flag, draw(st.one_of(st.sampled_from(values), _FUZZ_INTS))]
    for flag in ("--json", "--arith-checks", "--fail-on-violation"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@settings(max_examples=200, deadline=None)
@given(data=_fuzz_stdin(), options=_fuzz_options())
def test_any_stdin_and_options_exit_0_1_or_2_with_one_error_line(data, options):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(["run", "-", *options])
            except SystemExit as exc:    # argparse refusing an option value
                status = exc.code
    finally:
        sys.stdin = stdin
    err = err.getvalue()
    assert "Traceback" not in err
    assert status in (0, 1, 2)
    if status == 2:
        assert err.startswith("frameguard: ") and err.endswith("\n") and err.count("\n") == 1
    else:
        assert err == ""
