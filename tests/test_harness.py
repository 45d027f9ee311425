import gc
import hashlib
import importlib.util
import io
import math
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameguard.harness import (
    _GRAMMAR,
    EngineConfig,
    TraceEvent,
    TraceRuntimeError,
    TraceSyntaxError,
    WorkloadParams,
    emit_report,
    format_trace,
    gen_workload,
    parse_trace,
    run_trace,
)
from frameguard.messages import cut
from oracles import trace_refusal_oracle


# -- parsing -----------------------------------------------------------

def test_parse_basic():
    events = parse_trace("alloc a 40\nstore a 36 4\n")
    assert events == [
        TraceEvent("alloc", id="a", args=(40, 0)),
        TraceEvent("store", id="a", args=(36, 4)),
    ]


def test_parse_comments_blank_lines_and_hex():
    text = """
    # heap setup
    alloc buf 0x28 7   # forty bytes, type 7

    load buf -1 1
    """
    events = parse_trace(text)
    assert events[0] == TraceEvent("alloc", id="buf", args=(40, 7))
    assert events[1] == TraceEvent("load", id="buf", args=(-1, 1))


def test_parse_all_ops():
    text = (
        "alloc a 64\n"
        "alloc_array b 10 8\n"
        "realloc a 128\n"
        "ptr_add a 64\n"
        "memcpy a b 8\n"
        "strcpy a b 5\n"
        "strncpy b a 8\n"
        "scope_begin\n"
        "alloc c 32\n"
        "scope_end\n"
        "free a\n"
        "free b\n"
    )
    assert len(parse_trace(text)) == 12


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TraceSyntaxError) as e:
        parse_trace("alloc a 40\nstore b 0 1\n")
    assert e.value.line_no == 2 and "undefined id" in str(e.value)

    with pytest.raises(TraceSyntaxError) as e:
        parse_trace("bogus a 1\n")
    assert e.value.line_no == 1

    with pytest.raises(TraceSyntaxError):
        parse_trace("alloc a forty\n")
    with pytest.raises(TraceSyntaxError):
        parse_trace("alloc a 0\n")
    with pytest.raises(TraceSyntaxError):
        parse_trace("alloc a 40 1 2\n")
    with pytest.raises(TraceSyntaxError):
        parse_trace("scope_end\n")
    with pytest.raises(TraceSyntaxError):
        parse_trace("alloc a 8\nload a 0 0\n")
    with pytest.raises(TraceSyntaxError):
        parse_trace("alloc a 8\nmemcpy a a -4\n")


@pytest.mark.parametrize("text, line_no", [
    ("alloc a 8\nrealloc a 0x100000000\n", 2),
    ("alloc a 40 -1\n", 1),
    ("alloc a 8\nalloc b 0x100000000\n", 2),
    ("alloc a 8\nalloc_array b 70000 70000\n", 2),
])
def test_parse_rejects_out_of_range_32bit_fields(text, line_no):
    with pytest.raises(TraceSyntaxError) as e:
        parse_trace(text)
    assert e.value.line_no == line_no and f"line {line_no}:" in str(e.value)


_A = "alloc a 8\n"

# Every message parse_trace raises, byte for byte, with its line number.
_SYNTAX_ERRORS = [
    # unknown op
    ("bogus a 1\n", "line 1: unknown operation 'bogus'"),
    ("Alloc a 8\n", "line 1: unknown operation 'Alloc'"),
    # argument counts
    ("alloc\n", "line 1: alloc takes 2..3 arguments, got 0"),
    ("alloc a\n", "line 1: alloc takes 2..3 arguments, got 1"),
    ("alloc a 40 1 2\n", "line 1: alloc takes 2..3 arguments, got 4"),
    (_A + "load a 0\n", "line 2: load takes 3..3 arguments, got 2"),
    (_A + "store a 0 1 2\n", "line 2: store takes 3..3 arguments, got 4"),
    (_A + "ptr_add a 1 2\n", "line 2: ptr_add takes 2..2 arguments, got 3"),
    (_A + "free\n", "line 2: free takes 1..1 arguments, got 0"),
    (_A + "memcpy a\n", "line 2: memcpy takes 3..3 arguments, got 1"),
    ("scope_begin x\n", "line 1: scope_begin takes 0..0 arguments, got 1"),
    # undefined ids, first and second, checked before any field
    ("load b 0 1\n", "line 1: undefined id 'b'"),
    ("load b x 1\n", "line 1: undefined id 'b'"),
    (_A + "ptr_add b 1\n", "line 2: undefined id 'b'"),
    (_A + "memcpy b a 8\n", "line 2: undefined id 'b'"),
    (_A + "memcpy a b 8\n", "line 2: undefined id 'b'"),
    (_A + "memcpy a b x\n", "line 2: undefined id 'b'"),
    # non-integer fields
    ("alloc a forty\n", "line 1: size 'forty' is not an integer"),
    ("alloc a 010\n", "line 1: size '010' is not an integer"),
    (_A + "load a 1.5 1\n", "line 2: offset '1.5' is not an integer"),
    (_A + "store a 0 four\n", "line 2: access_size 'four' is not an integer"),
    # each bounded field out of range
    ("alloc a 0\n", "line 1: size 0 outside [1, 4294967295]"),
    ("alloc a 0x100000000\n", "line 1: size 0x100000000 outside [1, 4294967295]"),
    ("alloc a 8 -1\n", "line 1: type_id -1 outside [0, 4294967295]"),
    ("alloc a 8 4294967296\n", "line 1: type_id 4294967296 outside [0, 4294967295]"),
    ("alloc_array a 0 4\n", "line 1: count 0 outside [1, inf]"),
    ("alloc_array a 4 0\n", "line 1: elem_size 0 outside [1, inf]"),
    (_A + "realloc a 0\n", "line 2: new_size 0 outside [1, 4294967295]"),
    (_A + "realloc a 4294967296\n", "line 2: new_size 4294967296 outside [1, 4294967295]"),
    (_A + "load a 0 0\n", "line 2: access_size 0 outside [1, inf]"),
    (_A + "store a -1 0\n", "line 2: access_size 0 outside [1, inf]"),
    (_A + "memcpy a a -1\n", "line 2: n -1 outside [0, inf]"),
    (_A + "strcpy a a -1\n", "line 2: srclen -1 outside [0, inf]"),
    (_A + "strncpy a a -1\n", "line 2: n -1 outside [0, inf]"),
    # fields are checked in order, each fully before the next
    ("alloc a 0 x\n", "line 1: size 0 outside [1, 4294967295]"),
    ("alloc_array a x 0\n", "line 1: count 'x' is not an integer"),
    ("alloc_array a 0 x\n", "line 1: count 0 outside [1, inf]"),
    # the alloc_array product is a 32-bit header size
    ("alloc_array a 70000 70000\n", "line 1: count * elem_size 4900000000 outside [1, 4294967295]"),
    ("alloc_array b 65536 65536\n", "line 1: count * elem_size 4294967296 outside [1, 4294967295]"),
    # scopes
    ("scope_end\n", "line 1: scope_end without matching scope_begin"),
    ("scope_begin\nscope_end\nscope_end\n", "line 3: scope_end without matching scope_begin"),
    # comment and blank lines count
    ("# header\n\nalloc a 8  # c\n\tload a 0 0\n", "line 4: access_size 0 outside [1, inf]"),
    (["alloc a 8\n", "# c\n", "load a 0 0\r\n"], "line 3: access_size 0 outside [1, inf]"),
]


@pytest.mark.parametrize("source, message", _SYNTAX_ERRORS)
def test_syntax_error_messages_are_pinned(source, message):
    with pytest.raises(TraceSyntaxError) as e:
        parse_trace(source)
    assert str(e.value) == message
    assert f"line {e.value.line_no}: " == message[:message.index(":") + 2]


_LONG = "1" * 4301    # one digit past int()'s default string limit


@pytest.mark.parametrize("source, message", [
    (_A + f"load a {_LONG} 1\n",
     f"line 2: offset '{'1' * 40}'... (4301 characters) is not an integer"),
    (f"alloc a {'9' * 4000}\n",
     f"line 1: size {'9' * 40}... (4000 characters) outside [1, 4294967295]"),
    ("x" * 5000 + " a\n", f"line 1: unknown operation '{'x' * 40}'... (5000 characters)"),
    ("load " + "x" * 5000 + " 0 1\n", f"line 1: undefined id '{'x' * 40}'... (5000 characters)"),
    (f"alloc_array a {'9' * 45} 1\n",
     f"line 1: count * elem_size {'9' * 40}... (45 characters) outside [1, 4294967295]"),
    # a product too long for a decimal string: only its leading digits are converted
    (f"alloc_array a {'9' * 4300} {'9' * 4300}\n",
     f"line 1: count * elem_size {'9' * 40}... (8600 characters) outside [1, 4294967295]"),
])
def test_syntax_errors_show_a_bounded_part_of_a_long_token(source, message):
    with pytest.raises(TraceSyntaxError) as e:
        parse_trace(source)
    assert str(e.value) == message
    assert "line %d: %s" % trace_refusal_oracle(io.StringIO(source)) == message


_powers_of_ten = st.builds(lambda k, d, sign: sign * (10 ** k + d),
                          st.integers(0, 9000), st.integers(-1, 1), st.sampled_from([1, -1]))
_wide_ints = st.integers(0, 30000).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(), _powers_of_ten, _wide_ints))
def test_an_int_is_cut_as_its_decimal_string_would_be(value):
    # Decimal's string has no digit limit, so it serves as the reference
    digits = str(Decimal(value))
    assert cut(value) == (digits if len(digits) <= 40
                           else f"{digits[:40]}... ({len(digits)} characters)")


def test_parse_accepts_alloc_array_filling_32_bits():
    # 65535 * 65537 == 2**32 - 1, the largest size a header holds
    assert parse_trace("alloc_array a 65535 65537\n") == [
        TraceEvent("alloc_array", id="a", args=(65535, 65537))]


U32_MAX = 2**32 - 1
_ids = st.text(alphabet="abxyz_09", min_size=1, max_size=3)
_sizes = st.sampled_from([1, U32_MAX]) | st.integers(1, U32_MAX)
_type_ids = st.sampled_from([0, 1, U32_MAX]) | st.integers(0, U32_MAX)
_offsets = st.integers()
_positive = st.integers(min_value=1)
_counts = st.integers(min_value=0)


@st.composite
def _traces(draw):
    """A valid trace over all twelve ops: ids allocated before use,
    scopes balanced, integers across each field's full range."""
    events, ids, depth = [], [], 0
    for _ in range(draw(st.integers(0, 30))):
        ops = ["alloc", "alloc_array", "scope_begin"] + ["scope_end"] * (depth > 0)
        if ids:
            ops += ["realloc", "free", "load", "store", "ptr_add",
                    "memcpy", "strcpy", "strncpy"]
        op = draw(st.sampled_from(ops))
        if op == "alloc":
            ids.append(draw(_ids))
            ev = TraceEvent(op, ids[-1], args=(draw(_sizes), draw(_type_ids)))
        elif op == "alloc_array":
            ids.append(draw(_ids))
            count = draw(_sizes)   # count * elem_size is a 32-bit header size
            ev = TraceEvent(op, ids[-1], args=(count, draw(st.integers(1, U32_MAX // count))))
        elif op in ("scope_begin", "scope_end"):
            depth += 1 if op == "scope_begin" else -1
            ev = TraceEvent(op)
        else:
            name = draw(st.sampled_from(ids))
            if op == "realloc":
                ev = TraceEvent(op, name, args=(draw(_sizes),))
            elif op == "free":
                ev = TraceEvent(op, name)
            elif op in ("load", "store"):
                ev = TraceEvent(op, name, args=(draw(_offsets), draw(_positive)))
            elif op == "ptr_add":
                ev = TraceEvent(op, name, args=(draw(_offsets),))
            else:
                ev = TraceEvent(op, name, draw(st.sampled_from(ids)), args=(draw(_counts),))
        events.append(ev)
    return events + [TraceEvent("scope_end")] * depth


@settings(deadline=None)
@given(_traces())
def test_format_parse_round_trip_over_every_op(events):
    text = format_trace(events)
    assert parse_trace(text) == events
    assert format_trace(parse_trace(text)) == text


_spacing = st.sampled_from([" ", "\t", "  ", " \t"])


@st.composite
def _decorated(draw, events):
    """events' trace text with comment-only and blank lines, inline
    comments, tabs, trailing blanks, CRLF endings and each integer in
    a form int(tok, 0) reads: decimal, 0x, 0o, 0b or underscore-grouped."""
    lines = []
    for ev, line in zip(events, format_trace(events).splitlines()):
        toks = line.split()
        n_ids = 1 + bool(ev.id) + bool(ev.id2)
        for i in range(n_ids, len(toks)):
            n = int(toks[i])
            toks[i] = draw(st.sampled_from([str(n), hex(n), oct(n), bin(n), f"{n:_}"]))
        text = draw(st.sampled_from(["", " ", "\t"])) + draw(_spacing).join(toks)
        text += draw(st.sampled_from(["", " ", "\t", "  # note", "\t#x # y", "#"]))
        while draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "# comment", "\t# alloc a 1", "#"])))
        lines.append(text)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@settings(deadline=None)
@given(st.data())
def test_parse_ignores_layout_comments_and_line_endings(data):
    events = data.draw(_traces())
    text = data.draw(_decorated(events))
    assert parse_trace(text) == events
    assert parse_trace(text.splitlines(keepends=True)) == events


_SEPARATORS = "\f\v\x1c\x1d\x1e\x85\u2028\u2029"


def test_str_lines_end_only_at_newlines():
    # a form feed is whitespace: the second line is line 2, not line 3
    with pytest.raises(TraceSyntaxError) as e:
        parse_trace("alloc a 10\f\nload zz 0 1\n")
    assert str(e.value) == "line 2: undefined id 'zz'" and e.value.line_no == 2
    # a Unicode line separator does not end a comment
    alloc = [TraceEvent("alloc", id="a", args=(10, 0))]
    assert parse_trace("alloc a 10 # note\u2028 more\n") == alloc
    assert parse_trace("alloc a 10 # note\u2028 free a\n") == alloc
    # outside a comment every other separator is whitespace
    assert parse_trace("".join(f"alloc{sep}a 10{sep}\n" for sep in _SEPARATORS)) == alloc * 8
    # \n, \r\n and \r end lines, as in a text file
    assert parse_trace("scope_begin\rscope_end\r\nscope_begin\nscope_end") == [
        TraceEvent("scope_begin"), TraceEvent("scope_end")] * 2


def _outcome(source):
    try:
        return parse_trace(source)
    except TraceSyntaxError as e:
        return e.line_no, str(e)


@settings(deadline=None)
@given(st.data())
def test_str_splits_into_lines_like_a_text_file(data):
    events = data.draw(_traces())
    chars = list(data.draw(_decorated(events)))
    for _ in range(data.draw(st.integers(1, 8))):
        sep = data.draw(st.sampled_from(_SEPARATORS + "\r\n"))
        chars.insert(data.draw(st.integers(0, len(chars))), sep)
    text = "".join(chars)
    expected = _outcome(io.StringIO(text, newline=None))
    assert _outcome(text) == expected
    text_file = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=None)
    assert _outcome(text_file) == expected


_BAD_OPS = ["bogus", "Alloc", "load_", "free2", "scope"]
_NOT_INTS = ["x", "1.5", "010", "0x", "four", "1__0", "0b2"]


@st.composite
def _broken_lines(draw):
    """A valid trace's lines with one line broken: an oversized
    alloc_array or a scope_end (maybe with no scope open) inserted, a
    line given one or two faults, or both.  The faults are a wrong op,
    an undefined id, a non-integer or out-of-range field, and a dropped
    or extra token."""
    lines = format_trace(draw(_traces())).splitlines()   # at least one line
    inserted = draw(st.sampled_from([None, None, "product", "scope_end"]))
    if inserted is None:
        with_fields = [i for i, line in enumerate(lines) if len(line.split()) > 2]
        at = draw(st.sampled_from(with_fields or range(len(lines))))
    else:
        at = draw(st.integers(0, len(lines)))
        if inserted == "product":
            count = draw(_sizes)
            elem = draw(st.integers(U32_MAX // count + 1, 2 * U32_MAX))
            lines.insert(at, f"alloc_array {draw(_ids)} {count} {elem}")
        else:
            lines.insert(at, "scope_end")
    toks = lines[at].split()
    spec = _GRAMMAR.get(toks[0]) if toks else None
    used = range(1, 1 + spec.ids) if spec and not spec.defines else ()
    fields = list(enumerate(spec.fields, start=1 + spec.ids)) if spec else []
    fields = [(i, f) for i, f in fields if i < len(toks)]
    outside = [(i, v) for i, (_, lo, hi) in fields for v in (hi + 1, lo - 1)
               if abs(v) != math.inf]
    # Hypothesis favours early entries: the op fault, which hides every
    # other, comes last
    faults = ["range"] * bool(outside) + ["id"] * bool(used) + ["not_int"] * bool(fields)
    faults += ["drop", "extra"] + ["op"] * bool(toks)
    chosen = draw(st.lists(st.sampled_from(faults), min_size=inserted is None, max_size=2))
    # edits first, so token positions hold until a token is dropped or added
    for fault in sorted(chosen, key=lambda f: f in ("drop", "extra")):
        if fault == "op":
            toks[0] = draw(st.sampled_from(_BAD_OPS))
        elif fault == "id":
            toks[draw(st.sampled_from(used))] = "ghost"
        elif fault == "not_int":
            toks[draw(st.sampled_from(fields))[0]] = draw(st.sampled_from(_NOT_INTS))
        elif fault == "range":
            i, v = draw(st.sampled_from(outside))
            toks[i] = draw(st.sampled_from([str, hex]))(v)
        elif fault == "drop" and len(toks) > 1:
            del toks[draw(st.integers(1, len(toks) - 1))]
        else:
            extra = draw(_ids | st.integers().map(str) | st.sampled_from(_NOT_INTS))
            toks.insert(draw(st.integers(1, len(toks))) if toks else 0, extra)
    lines[at] = " ".join(toks)
    return lines


@settings(max_examples=300, deadline=None)
@given(_broken_lines())
def test_refusals_match_the_line_at_a_time_reference(lines):
    expected = trace_refusal_oracle(lines)
    text = "\n".join(lines) + "\n"
    if expected is None:
        parse_trace(text)
        return
    line_no, reason = expected
    with pytest.raises(TraceSyntaxError) as e:
        parse_trace(text)
    assert (e.value.line_no, str(e.value)) == (line_no, f"line {line_no}: {reason}")


def test_format_round_trip():
    params = WorkloadParams(objects=40, accesses_per_object=3, fault_rate=0.2,
                            fault_kinds=("overflow", "underflow", "double_free"),
                            array_fraction=0.3, free_fraction=0.2)
    events, _ = gen_workload(3, params)
    assert parse_trace(format_trace(events)) == events


def test_events_share_op_and_id_strings():
    text = "alloc buf_1 64\nalloc dst_2 8\nstore buf_1 0 4\nmemcpy dst_2 buf_1 8\nfree buf_1\n"
    events = parse_trace(text)
    keys = {op: op for op in _GRAMMAR}
    assert all(ev.op is keys[ev.op] for ev in events)
    buf, dst = events[0].id, events[1].id
    assert events[2].id is buf and events[4].id is buf
    assert events[3].id is dst and events[3].id2 is buf


def test_parsed_events_retain_few_bytes_each():
    # a small_hot-shaped trace: small objects, 32 accesses each
    params = WorkloadParams(objects=200, size_dist="uniform:8:512", accesses_per_object=32,
                            fault_rate=0.02, edge_probe=True)
    events, _ = gen_workload(7, params)
    text = format_trace(events)
    del events
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = parse_trace(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # about 150 B: the list slot, the event, its args tuple and any
    # int past the small-int cache
    assert retained / len(events) < 200


# -- execution ---------------------------------------------------------

def test_run_overflow_trace():
    report = run_trace(parse_trace("alloc a 40\nstore a 38 4\n"))
    assert report.verdicts["overflow"] == 1
    assert report.violations == [(1, "overflow")]


def test_run_double_free_trace():
    report = run_trace(parse_trace("alloc a 200000\nfree a\nfree a\n"))
    assert report.verdicts["double_free"] == 1
    assert report.verdicts["ok"] == 1 and sum(report.verdicts.values()) == 2
    assert report.violations == [(2, "double_free")]


def test_run_use_after_free_trace():
    report = run_trace(parse_trace("alloc a 200000\nfree a\nload a 0 8\n"))
    assert report.verdicts["use_after_free"] == 1


def test_far_small_access_is_out_of_frame():
    # the slot the access lands in holds no header, so the pointer left
    # its frame: an escape, whether or not arithmetic is checked
    for config in (EngineConfig(), EngineConfig(arith_checks=True)):
        report = run_trace(parse_trace("alloc a 10\nstore a 100000 1\n"), config)
        assert report.violations == [(1, "out_of_frame")]


def test_far_big_access_is_judged_against_the_frames_live_owner():
    # a's pointer moved 131 KB past its end lands in the n-frame of d,
    # whose table entry is live, so both stores are judged against d:
    # the first passes as ok, the second hits d's header (underflow)
    text = ("alloc a 100000\nalloc f 31040\nalloc d 100000\n"
            "store a 131072 4\nstore a 131056 4\n")
    report = run_trace(parse_trace(text))
    assert report.violations == [(4, "underflow")]
    assert report.verdicts["ok"] == 1 and sum(report.verdicts.values()) == 2


@pytest.mark.parametrize("op, args", [
    ("load", (0, 1)), ("store", (0, 1)), ("ptr_add", (0,)),
])
def test_unbound_id_is_a_runtime_error_naming_it(op, args):
    # parse_trace refuses such a line, so the events are built by hand
    events = [TraceEvent("alloc", id="a", args=(40, 0)), TraceEvent(op, id="ghost", args=args)]
    with pytest.raises(TraceRuntimeError, match="id 'ghost' used before allocation"):
        run_trace(events)


@pytest.mark.parametrize("name, offset, shown", [
    ("a", -(1 << 48), "offset -281474976710656 moves 'a'"),
    ("a", 1 << 48, "offset 281474976710656 moves 'a'"),
    # long operands are cut as a syntax error cuts a token
    ("a", "1" * 4300, f"offset {'1' * 40}... (4300 characters) moves 'a'"),
    ("x" * 5000, 1 << 48, f"offset 281474976710656 moves '{'x' * 40}'... (5000 characters)"),
], ids=[str(-(1 << 48)), str(1 << 48), "4300_digit_offset", "5000_character_id"])
def test_offset_outside_the_address_space_is_a_runtime_error(name, offset, shown):
    with pytest.raises(TraceRuntimeError) as e:
        run_trace(parse_trace(f"alloc {name} 40\nstore {name} {offset} 1\n"))
    assert str(e.value) == f"{shown} outside the 48-bit space"


def test_realloc_trace_rebinds():
    text = "alloc a 40\nrealloc a 200000\nstore a 199999 1\nstore a 200000 1\n"
    report = run_trace(parse_trace(text))
    assert report.verdicts["ok"] >= 2          # realloc + in-bounds store
    assert report.verdicts["overflow"] == 1


def test_scope_end_releases_scope_allocations():
    text = (
        "scope_begin\n"
        "alloc big 200000\n"
        "scope_end\n"
        "load big 0 1\n"
    )
    report = run_trace(parse_trace(text))
    assert report.verdicts["use_after_free"] == 1


def test_nested_scopes_do_not_touch_outer_records():
    text = (
        "scope_begin\n"
        "alloc outer 200000\n"
        "scope_begin\n"
        "alloc inner 200000\n"
        "scope_end\n"
        "load inner 0 1\n"   # released with the inner scope
        "load outer 0 1\n"   # still live
        "scope_end\n"
        "load outer 0 1\n"   # released with the outer scope
    )
    report = run_trace(parse_trace(text))
    assert report.violations == [(5, "use_after_free"), (8, "use_after_free")]
    assert report.verdicts["ok"] == 1 and sum(report.verdicts.values()) == 3


def test_realloc_in_a_scope_is_released_at_its_scope_end():
    text = "scope_begin\nalloc a 40\nrealloc a 200000\nscope_end\nload a 0 1\n"
    report = run_trace(parse_trace(text))
    assert report.violations == [(4, "use_after_free")]
    assert report.verdicts["ok"] == 1 and sum(report.verdicts.values()) == 2


@pytest.mark.parametrize("outer", [False, True])
def test_outer_id_reallocated_in_an_inner_scope_survives_it(outer):
    text = "alloc a 40\nscope_begin\nrealloc a 200000\nscope_end\nload a 0 1\n"
    if outer:
        text = "scope_begin\n" + text + "scope_end\n"
    report = run_trace(parse_trace(text))
    assert report.violations == []
    assert report.verdicts["ok"] == 2 and sum(report.verdicts.values()) == 2


@pytest.mark.parametrize("rebind", ["realloc a 256", "alloc a 256"])
def test_rebinding_an_id_resets_its_cursor(rebind):
    # a cursor left at offset 60 of the old 64-byte object would make
    # the copy an overflow
    text = f"alloc a 64\nalloc b 256\nptr_add a 60\n{rebind}\nmemcpy a b 100\n"
    report = run_trace(parse_trace(text))
    assert report.violations == []
    assert report.verdicts["ok"] == 1 + rebind.startswith("realloc")


@pytest.mark.parametrize("event, message", [
    (TraceEvent("bogus"), "unknown operation 'bogus'"),
    (TraceEvent("scope_end"), "scope_end without matching scope_begin"),
    # long operands are cut, and an int too long for a decimal string is shown
    (TraceEvent("x" * 5000), f"unknown operation '{'x' * 40}'... (5000 characters)"),
    (TraceEvent("load", id="x" * 5000, args=(0, 1)),
     f"id '{'x' * 40}'... (5000 characters) used before allocation"),
    (TraceEvent("load", id="a", args=(10 ** 5000, 1)),
     f"offset 1{'0' * 39}... (5001 characters) moves 'a' outside the 48-bit space"),
])
def test_events_parse_trace_refuses_are_runtime_errors(event, message):
    # parse_trace refuses such a line, so the event is built by hand
    with pytest.raises(TraceRuntimeError) as e:
        run_trace([TraceEvent("alloc", id="a", args=(40, 0)), event])
    assert str(e.value) == message


_HUGE_SIZE = f"header size 1{'0' * 39}... (5001 characters) not a 32-bit value"


@pytest.mark.parametrize("event, message", [
    (TraceEvent("alloc", id="b", args=(10 ** 5000, 0)), _HUGE_SIZE),
    (TraceEvent("alloc", id="b", args=(8, 10 ** 5000)),
     f"type id 1{'0' * 39}... (5001 characters) not a 32-bit value"),
    (TraceEvent("alloc_array", id="b", args=(10 ** 5000, 1)), _HUGE_SIZE),
    (TraceEvent("realloc", id="a", args=(10 ** 5000,)), _HUGE_SIZE),
], ids=["alloc", "alloc_type_id", "alloc_array", "realloc"])
def test_arena_refuses_a_huge_size_with_a_bounded_message(event, message):
    # parse_trace bounds these fields, so the event is built by hand
    with pytest.raises(ValueError) as e:
        run_trace([TraceEvent("alloc", id="a", args=(40, 0)), event])
    assert str(e.value) == message


def test_ptr_add_is_noop_without_arith_checks():
    text = "alloc a 40\nptr_add a 100000\nstore a 0 1\n"
    report = run_trace(parse_trace(text))
    assert sum(report.verdicts.values()) == 1   # the store; ptr_add gave none
    assert report.checks["arith_checks"] == 0
    assert len(report.violations) == 0


def test_ptr_add_out_of_frame_reported_distinctly():
    # the pointer leaves the slot and comes back without a dereference:
    # the only reports are frame escapes, never a spatial violation.
    # Arithmetic is judged stepwise, so the outbound hop and the return
    # hop (whose operand is still out-of-frame) are both flagged.
    text = "alloc a 40\nptr_add a 100000\nptr_add a 0\nstore a 0 1\n"
    config = EngineConfig(arith_checks=True)
    report = run_trace(parse_trace(text), config)
    assert report.verdicts["out_of_frame"] == 2
    assert report.verdicts["overflow"] == 0 and report.verdicts["underflow"] == 0
    assert report.checks["arith_checks"] == 2
    assert report.verdicts["ok"] == 1 and sum(report.verdicts.values()) == 3
    assert report.violations == [(1, "out_of_frame"), (2, "out_of_frame")]


def test_memcpy_trace_uses_moved_cursors():
    text = (
        "alloc dst 64\n"
        "alloc src 64\n"
        "ptr_add dst 32\n"
        "memcpy dst src 32\n"   # fits: 32 bytes from offset 32
        "memcpy dst src 33\n"   # one byte too many
        "alloc gone 200000\n"
        "free gone\n"
        "memcpy dst gone 33\n"  # dst judged first: overflow, not use_after_free
    )
    report = run_trace(parse_trace(text))
    assert report.violations == [(4, "overflow"), (7, "overflow")]
    assert report.verdicts["ok"] == 2 and sum(report.verdicts.values()) == 4


def test_strcpy_and_strncpy_traces():
    text = (
        "alloc dst 10\n"
        "alloc src 32\n"
        "strcpy dst src 9\n"    # 9 + terminator fits exactly
        "strcpy dst src 10\n"   # terminator does not fit
        "strncpy dst src 10\n"
        "strncpy dst src 11\n"
    )
    report = run_trace(parse_trace(text))
    assert report.violations == [(3, "overflow"), (5, "overflow")]
    assert report.verdicts["ok"] == 2 and sum(report.verdicts.values()) == 4


def test_empty_trace_report():
    report = run_trace([])
    assert report.event_count == 0
    assert report.overhead["ratio"] == 1.0
    assert len(report.violations) == 0


def _retained_bytes(events):
    """tracemalloc growth over one run_trace: what its report keeps alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_trace(events)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, report
    finally:
        tracemalloc.stop()


def test_report_memory_does_not_grow_with_trace_length():
    sizes = {}
    for stores in (1000, 20000):
        events = parse_trace("alloc a 64\n" + "store a 0 4\n" * stores)
        sizes[stores], report = _retained_bytes(events)
        assert report.verdicts["ok"] == stores and report.violations == []
    assert abs(sizes[20000] - sizes[1000]) < 64 * 1024


def test_report_determinism():
    params = WorkloadParams(objects=150, accesses_per_object=4, fault_rate=0.1,
                            fault_kinds=("overflow", "double_free"),
                            array_fraction=0.2, free_fraction=0.3)
    config = EngineConfig(placement_jitter=4, placement_seed=9)
    outs = []
    for _ in range(2):
        events, manifest = gen_workload(42, params)
        report = run_trace(events, config)
        outs.append((format_trace(events), manifest,
                     emit_report(report, "json"), emit_report(report, "text")))
    assert outs[0] == outs[1]


def test_run_trace_reads_any_iterable_once():
    params = WorkloadParams(objects=120, accesses_per_object=4, fault_rate=0.1,
                            fault_kinds=("overflow", "use_after_free", "double_free"),
                            free_fraction=0.5)
    events = parse_trace(format_trace(gen_workload(5, params)[0]))
    listed = run_trace(events)
    assert run_trace(ev for ev in events) == listed
    assert listed.event_count == len(events)
    assert run_trace(iter(())).event_count == 0


# -- workload generation -------------------------------------------------

def test_workload_no_faults_manifest_empty():
    events, manifest = gen_workload(7, WorkloadParams(objects=100))
    assert manifest == {}
    report = run_trace(events)
    assert len(report.violations) == 0


def test_small_object_run_on_large_arena_stays_small():
    # only the few objects that straddle a slot boundary are big-framed,
    # so a handful of division arrays is used out of 2**18
    events, _ = gen_workload(7, WorkloadParams(objects=1000))
    tracemalloc.start()
    try:
        report = run_trace(events, EngineConfig(arena_size=1 << 34))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.violations) == 0
    assert peak < 5 * 1024 * 1024


def test_workload_fault_rate_density():
    params = WorkloadParams(objects=500, accesses_per_object=4, fault_rate=0.1)
    events, manifest = gen_workload(11, params)
    # ~10% of 2000 access slots carry an expected violation
    assert 120 <= len(manifest) <= 280


def test_workload_manifest_exact_agreement():
    params = WorkloadParams(
        objects=400,
        accesses_per_object=3,
        fault_rate=0.25,
        fault_kinds=("overflow", "underflow", "use_after_free", "double_free"),
        array_fraction=0.25,
        free_fraction=0.2,
    )
    events, manifest = gen_workload(123, params)
    report = run_trace(events)
    assert dict(report.violations) == manifest


def test_workload_edge_probe():
    params = WorkloadParams(objects=50, accesses_per_object=1, edge_probe=True)
    events, manifest = gen_workload(5, params)
    assert sum(1 for k in manifest.values() if k == "overflow") == 50
    assert sum(1 for k in manifest.values() if k == "underflow") == 50
    report = run_trace(events)
    assert dict(report.violations) == manifest


def test_workload_size_distributions():
    for dist in ("fixed:64", "uniform:1:127", "loguniform:1:1048576"):
        events, _ = gen_workload(1, WorkloadParams(objects=30, size_dist=dist))
        run_trace(events)
    with pytest.raises(ValueError):
        WorkloadParams(objects=1, size_dist="uniform:0:10")
    with pytest.raises(ValueError):
        WorkloadParams(objects=1, size_dist="fixed:2000000")
    with pytest.raises(ValueError):
        WorkloadParams(objects=1, size_dist="nope:1:2")


def test_workload_param_validation():
    with pytest.raises(ValueError):
        WorkloadParams(objects=0)
    with pytest.raises(ValueError):
        WorkloadParams(objects=1, fault_rate=1.5)
    with pytest.raises(ValueError):
        WorkloadParams(objects=1, fault_rate=0.5, fault_kinds=())
    with pytest.raises(ValueError):
        WorkloadParams(objects=1, fault_kinds=("stray",))
    with pytest.raises(ValueError):
        WorkloadParams(objects=1, accesses_per_object=-1)
    with pytest.raises(ValueError):
        WorkloadParams(objects=1, array_fraction=-0.1)
    with pytest.raises(ValueError):
        WorkloadParams(objects=1, free_fraction=1.5)


# -- reporting -----------------------------------------------------------

def test_json_report_schema_and_key_order():
    import json

    events, _ = gen_workload(2, WorkloadParams(objects=20))
    report = run_trace(events)
    text = emit_report(report, "json")
    payload = json.loads(text)
    assert list(payload) == ["verdicts", "overhead", "checks"]
    assert list(payload["verdicts"]) == [
        "ok", "overflow", "underflow", "out_of_frame",
        "use_after_free", "double_free", "untracked",
    ]
    assert list(payload["overhead"]) == ["header_bytes", "table_bytes", "payload_bytes", "ratio"]
    assert list(payload["checks"]) == ["access_checks", "arith_checks", "lookups_small", "lookups_big"]
    assert payload["overhead"]["ratio"] == pytest.approx(
        (payload["overhead"]["header_bytes"] + payload["overhead"]["table_bytes"]
         + payload["overhead"]["payload_bytes"]) / payload["overhead"]["payload_bytes"]
    )


# All twelve ops, both frame classes and every verdict kind a trace can
# reach (a trace's pointers are all tagged, so untracked stays 0), with
# arithmetic checks on
_PINNED_TRACE = """\
alloc s 40
alloc_array arr 10 8
alloc t 32
scope_begin
alloc big 100000 7
store big 99999 1
store big -1 1
scope_end
load big 0 1
load s 0 8
store s 40 1
ptr_add s 100000
ptr_add arr 8
strcpy t s 31
strncpy t arr 33
realloc s 64
memcpy s arr 72
free t
free t
realloc t 10
"""

_PINNED_TEXT = (
    "events:     20\n"
    "verdicts:   ok=6 overflow=3 underflow=1 out_of_frame=1 use_after_free=1 "
    "double_free=2 untracked=0\n"
    "violations: 8\n"
    "checks:     access=8 arith=2 lookups_small=5 lookups_big=3\n"
    "overhead:   headers=80B table=384B payload=100216B ratio=1.0046\n"
    "arena:      live=2 live_headers=32B table_reserved=1572864B used=100304B\n"
)

_PINNED_JSON = """\
{
  "verdicts": {
    "ok": 6,
    "overflow": 3,
    "underflow": 1,
    "out_of_frame": 1,
    "use_after_free": 1,
    "double_free": 2,
    "untracked": 0
  },
  "overhead": {
    "header_bytes": 80,
    "table_bytes": 384,
    "payload_bytes": 100216,
    "ratio": 1.0046299992017242
  },
  "checks": {
    "access_checks": 8,
    "arith_checks": 2,
    "lookups_small": 5,
    "lookups_big": 3
  }
}
"""


def test_report_bytes_are_pinned():
    report = run_trace(parse_trace(_PINNED_TRACE), EngineConfig(arith_checks=True))
    assert report.violations == [
        (6, "underflow"), (8, "use_after_free"), (10, "overflow"), (11, "out_of_frame"),
        (14, "overflow"), (16, "overflow"), (18, "double_free"), (19, "double_free")]
    assert emit_report(report, "text") == _PINNED_TEXT
    assert emit_report(report, "json") == _PINNED_JSON


def test_text_report_mentions_totals():
    report = run_trace(parse_trace("alloc a 40\nstore a 40 1\n"))
    text = emit_report(report, "text")
    assert "violations: 1" in text
    assert "ratio=" in text
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def _bench_workloads():
    """perfbench/common.py's WORKLOADS, loaded by path and left unchanged."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "common.py"
    spec = importlib.util.spec_from_file_location("_perfbench_common", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


# SHA-256 of the JSON and the text report of each benchmark workload at
# seed 7; the text digest covers the `arena:` line, read from live_stats
_BENCH_REPORT_SHA256 = {
    "mixed": ("9a0ac19a614451f6cb5801293c725e54884250a311ccd3c52b86371332adcf86",
              "54ba00b9237ae22b62feec40e4b44b3cdca9351d395fe1f5d482d5dca1076529"),
    "small_hot": ("3051079576c84b2ebd6d17505a52e42101f1aa7798d955ec454973aa8276cf81",
                  "06bfb8a061d0296c67e826593c4ba72becf2894406bffc3d5db44ceb91107287"),
    "big_churn": ("4d3a2948b03d0ae35d4d3e70dcdb63d327957fd11dfb2574b13122d18e17021f",
                  "560bd4a511a1610efe5e16e3a7e7ce821d056af98b1dc8cc79cdf8ed54d6bd2e"),
}


def test_benchmark_workload_reports_are_pinned():
    workloads = _bench_workloads()
    assert workloads.keys() == _BENCH_REPORT_SHA256.keys()
    for name, (json_sha, text_sha) in _BENCH_REPORT_SHA256.items():
        workload = workloads[name]
        events, manifest = gen_workload(7, workload.params)
        report = run_trace(parse_trace(format_trace(events)), workload.config)
        del events
        assert dict(report.violations) == manifest, name
        digests = tuple(hashlib.sha256(emit_report(report, fmt).encode()).hexdigest()
                        for fmt in ("json", "text"))
        assert digests == (json_sha, text_sha), name
