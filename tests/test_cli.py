import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frameguard import cli
from frameguard.cli import main
from frameguard.harness import (
    _GRAMMAR,
    EngineConfig,
    WorkloadParams,
    format_trace,
    gen_workload,
    parse_trace,
    run_trace,
)


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

    stdin = io.TextIOWrapper(io.BytesIO(b"alloc a 8\nload a 0 1\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
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

    stdin = io.TextIOWrapper(io.BytesIO(b"alloc a 0xFFE0\nalloc b 64\nstore b 0 4\n"),
                             encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
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


@pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
def test_stdin_is_decoded_as_a_file_is_whatever_the_locale(locale, tmp_path):
    # under C and C.UTF-8 Python reads stdin with surrogateescape, which
    # would let invalid UTF-8 through where a file refuses it
    data = b"alloc \xff 8\nload \xff 0 1\n"
    trace = tmp_path / "t.txt"
    trace.write_bytes(data)
    env = {**os.environ, "LC_ALL": locale}
    env.pop("PYTHONIOENCODING", None)
    env.pop("PYTHONUTF8", None)
    run = [sys.executable, "-m", "frameguard", "run"]
    from_file = subprocess.run(run + [str(trace)], capture_output=True, env=env)
    from_stdin = subprocess.run(run + ["-"], input=data, capture_output=True, env=env)
    for proc in (from_file, from_stdin):
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr.startswith(b"frameguard: ") and proc.stderr.count(b"\n") == 1
    assert from_stdin.stderr == from_file.stderr


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


_DIGITS = "9" * 4000      # an int every parser accepts; its hex form has 3,322 digits
_TOKEN = "9" * 5000       # past int()'s 4,300-digit limit: argparse echoes the token
_WORD = "x" * 5000


@pytest.mark.parametrize("argv, start", [
    (["run", "t.txt", "--pad", _DIGITS], "region ["),
    (["run", "t.txt", "--jitter", _DIGITS], "arena exhausted: "),
    (["run", "t.txt", "--arena-base", _DIGITS], "arena base 0x"),
    (["run", "t.txt", "--arena-size", _DIGITS], "arena size 0x"),
    (["run", "t.txt", "--pad", _TOKEN], "argument --pad: invalid integer value: '999"),
    (["run", "t.txt", "--seed", _TOKEN], "argument --seed: invalid integer value: '999"),
    (["gen", "--seed", "1", "--objects", _TOKEN], "argument --objects: invalid integer value"),
    (["gen", "--seed", "1", "--objects", "2", "--faults", "0." + _WORD],
     "argument --faults: invalid float value: '0.xxx"),
    (["gen", "--seed", "1", "--objects", "2", "--sizes", _WORD], "bad size distribution 'xxx"),
    (["gen", "--seed", "1", "--objects", "2", "--fault-kinds", _WORD], "unknown fault kind 'xxx"),
    (["run", "t.txt", _WORD], "unrecognized arguments: xxx"),
    (["gen", "--seed", "1", "--objects", "2", "--out", _WORD], "[Errno "),
], ids=["pad", "jitter", "arena_base", "arena_size", "pad_token", "seed_token",
        "objects_token", "faults_token", "sizes", "fault_kinds", "unrecognized", "out_path"])
def test_an_error_line_cuts_long_operands(argv, start, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text("alloc a 8\n")
    try:
        status = main(argv)
    except SystemExit as exc:    # argparse refusing an argument
        status = exc.code
    err = capsys.readouterr().err
    assert status == 2 and err.startswith(f"frameguard: {start}") and err.count("\n") == 1
    assert len(err) - 1 <= 200 and " characters)" in err


_SEE_HELP = "... (see frameguard --help)\n"


@pytest.mark.parametrize("argv, start, end", [
    # three 300-character words, each cut to about 60: a 242-character line
    (["run", "t.txt"] + [c * 300 for c in "abc"], "unrecognized arguments: ", _SEE_HELP),
    # three 99-character words, too short to cut one by one
    (["run", "t.txt"] + ["x" * 99] * 3, "unrecognized arguments: ", _SEE_HELP),
    # an OSError echoes the path whole; its words stay under 100 characters
    (["gen", "--seed", "1", "--objects", "2", "--out", "no/" + " ".join(["y" * 90] * 5)],
     "[Errno ", "...\n"),
], ids=["three_cut_words", "three_uncut_words", "spaced_out_path"])
def test_an_error_line_is_bounded_whatever_its_operands(argv, start, end, tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text("alloc a 8\n")
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    err = capsys.readouterr().err
    assert status == 2 and err.count("\n") == 1 and len(err) - 1 == 200
    assert err.startswith(f"frameguard: {start}") and err.endswith(end)


# the line ends str.splitlines() knows, and other control characters
_CONTROLS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029\x00\x1b\t"


@pytest.mark.parametrize("char", list(_CONTROLS) + ["\r\n"],
                         ids=lambda c: repr(c)[1:-1].replace("\\", ""))
def test_an_error_line_escapes_control_characters_of_operands(char, capsys):
    # argparse echoes an unrecognized argument raw, not as its repr
    with pytest.raises(SystemExit) as e:
        main(["run", "t.txt", f"a{char}b"])
    assert e.value.code == 2
    assert capsys.readouterr().err == (
        f"frameguard: unrecognized arguments: a{repr(char)[1:-1]}b (see frameguard --help)\n")


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


_CLOSED = "frameguard: standard {} is closed\n"


@pytest.mark.parametrize("argv, closed, status, err", [
    (_GEN + ["--sizes", "uniform:5:3"], None, 2,
     "frameguard: size distribution 'uniform:5:3' has LO above HI\n"),
    (["run", "-"], "stdin", 2, _CLOSED.format("input")),
    (["run", "t.txt"], "stdout", 2, _CLOSED.format("output")),
    (_GEN, "stdout", 2, _CLOSED.format("output")),
    (_GEN + ["--out", "g.txt"], "stdout", 0, ""),     # writing a file needs no stdout
    (["run", "missing.txt"], "stderr", 2, ""),        # no line to write, still exit 2
], ids=["sizes_lo_above_hi", "run_stdin_closed", "run_stdout_closed", "gen_stdout_closed",
        "gen_out_stdout_closed", "run_stderr_closed"])
def test_unusable_input_found_past_argparse_exits_2_with_its_line(
        argv, closed, status, err, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text("alloc a 8\n")
    if closed:
        # Python sets sys.stdin, sys.stdout or sys.stderr to None when its
        # descriptor is closed
        monkeypatch.setattr(sys, closed, None)
    assert main(argv) == status
    assert capsys.readouterr().err == err
    if status == 0:
        assert (tmp_path / "g.txt").read_text().startswith("alloc")


def test_a_closed_stdin_exits_2_with_one_line():
    proc = subprocess.run(["sh", "-c", '"$0" -m frameguard run - <&-', sys.executable],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", _CLOSED.format("input"))


def test_an_argument_error_with_stderr_closed_exits_2(monkeypatch):
    # Python 3.10's argparse writes its message to sys.stderr unguarded
    monkeypatch.setattr(sys, "stderr", None)
    with pytest.raises(SystemExit) as e:
        main(["run", "t.txt", "--pad", "x"])
    assert e.value.code == 2


_STDERR_CASES = pytest.mark.parametrize("argv, stdin", [
    (["run", "-"], "alloc a 0\n"),
    (["run", "-", "--pad", "x"], ""),
], ids=["past_argparse", "argparse"])


@_STDERR_CASES
def test_a_closed_stderr_still_exits_2(argv, stdin):
    proc = subprocess.run(["sh", "-c", '"$0" -m frameguard "$@" 2>&-', sys.executable, *argv],
                          input=stdin, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "")


@_STDERR_CASES
def test_a_read_only_stderr_still_exits_2(argv, stdin):
    # sys.stderr is then a stream whose write raises OSError
    with open(os.devnull) as read_only:
        proc = subprocess.run([sys.executable, "-m", "frameguard", *argv], input=stdin,
                              stdout=subprocess.PIPE, stderr=read_only, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")


# -- any stdin, any option values: exit 0, 1 or 2, never a traceback ------

_FUZZ_INTS = st.one_of(
    st.builds(
        lambda n, render: render(n),
        st.one_of(st.integers(0, 64), st.integers(-64, 1 << 17), st.integers(-(1 << 70), 1 << 70),
                  # up to 4,000 digits: an int every parser accepts, whatever its length
                  st.integers(1, 4000).flatmap(lambda d: st.integers(-10 ** d, 10 ** d))),
        st.sampled_from((str, hex)),
    ),
    # past int()'s 4,300-digit limit, and long tokens that are no number
    st.builds(lambda d, c: c * d, st.integers(4301, 5000), st.sampled_from("19")),
    st.builds(lambda d, c: c * d, st.integers(41, 5000), st.sampled_from("xZ-")),
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


# operands no option takes: argparse echoes each of them raw in one line
_FUZZ_OPERANDS = st.lists(
    st.one_of(st.builds(lambda d, c: c * d, st.integers(1, 400), st.sampled_from("xZ9")),
              st.text(alphabet="xZ9 " + _CONTROLS, min_size=1, max_size=40)),
    min_size=1, max_size=4)


@st.composite
def _fuzz_options(draw) -> list[str]:
    argv = draw(_FUZZ_OPERANDS) if draw(st.integers(0, 3)) == 0 else []
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
        _assert_one_error_line(err)
    else:
        assert err == ""


def _assert_one_error_line(err: str) -> None:
    """err is one `frameguard:` line of at most 200 printable characters."""
    assert err.startswith("frameguard: ") and err.endswith("\n")
    assert err[:-1].isprintable() and len(err) - 1 <= 200


# -- any gen option values: exit 0 with a trace that replays to its
# manifest, or exit 2 -----------------------------------------------------

def _mostly(valid, invalid):
    """A value from valid, or one time in eight from invalid."""
    return st.integers(0, 7).flatmap(lambda i: invalid if i == 0 else valid)


_SIZE = st.integers(1, 1 << 20)
_FRACTION = _mostly(st.one_of(st.sampled_from(("0", "1", "1e-9", "0x0p0")), st.floats(0, 1).map(str)),
                    st.sampled_from(("-0.1", "1.01", "nan", "inf", "-inf", "x", "", "0x1")))

_GEN_FUZZ_OPTIONS = {
    "--sizes": _mostly(
        st.one_of(st.builds("fixed:{}".format, _SIZE),
                  st.builds(lambda rule, a, b: f"{rule}:{min(a, b)}:{max(a, b)}",
                            st.sampled_from(("uniform", "loguniform")), _SIZE, _SIZE)),
        st.one_of(st.sampled_from(("fixed:0", "uniform:9:8", "loguniform:1:1048577", "fixed:-1",
                                   "fixed", "uniform:1", "uniform:1:2:3", "gauss:1:2", "fixed:x",
                                   "", ":", "fixed:1e3")),
                  st.builds("fixed:{}".format, st.integers(-(1 << 70), 1 << 70)))),
    "--faults": _FRACTION,
    "--fault-kinds": _mostly(
        st.lists(st.sampled_from(("overflow", "underflow", "use_after_free", "double_free", "")),
                 min_size=1, max_size=5).map(",".join),
        st.sampled_from(("bogus", "OVERFLOW", "overflow,,x", " overflow"))),
    # at most 40 accesses of each of at most 20 objects: a small trace
    "--accesses": _mostly(st.integers(0, 40).map(str),
                          st.sampled_from(("-1", "x", "2.5", "", "9" * 5000))),
    "--arrays": _FRACTION,
    "--free-fraction": _FRACTION,
}


@st.composite
def _fuzz_gen_argv(draw) -> list[str]:
    objects = draw(_mostly(st.integers(1, 20).map(str), st.sampled_from(("0", "-1", "x", ""))))
    argv = ["gen", "--seed", str(draw(st.integers(-(1 << 70), 1 << 70))), "--objects", objects]
    for flag, values in _GEN_FUZZ_OPTIONS.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv.append("--edge-probe")
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_fuzz_gen_argv())
def test_any_gen_options_exit_0_with_a_trace_that_replays_its_manifest_or_2(argv, tmp_path):
    manifest_file = tmp_path / "m.json"
    manifest_file.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv + ["--manifest", str(manifest_file)])
        except SystemExit as exc:    # argparse refusing an option value
            status = exc.code
    err = err.getvalue()
    assert "Traceback" not in err
    assert status in (0, 2)
    if status == 2:
        _assert_one_error_line(err)
        return
    assert err == ""
    text = out.getvalue()
    events = parse_trace(text)
    assert format_trace(events) == text
    manifest = json.loads(manifest_file.read_text())
    assert manifest["fault_count"] == len(manifest["faults"])
    assert run_trace(events).violations == [(f["event"], f["kind"]) for f in manifest["faults"]]


def test_run_peaks_at_a_bounded_size_per_event(tmp_path):
    # a small_hot-shaped trace: 2000 small objects, 32 accesses each,
    # 70,000 events.  About 37 B an event: the file's bytes and their
    # decoded text (16 B a line each), the parsed rows at about 9 B, each
    # column as narrow as its values, and the replay, whose 5,234
    # violations take about 9 B each in two columns.
    params = WorkloadParams(objects=2000, size_dist="uniform:8:512", accesses_per_object=32,
                            fault_rate=0.02, edge_probe=True)
    events, _ = gen_workload(7, params)
    trace = tmp_path / "t.txt"
    trace.write_text(format_trace(events))
    n = len(events)
    del events
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", str(trace)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 43
