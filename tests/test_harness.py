import collections.abc
import functools
import gc
import hashlib
import importlib.util
import io
import json
import math
import random
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frameguard import harness
from frameguard.arena import Arena
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


# tokens whose repr is wider than they are: each escape shows up to
# 10 characters for one, and a quote can change the quoting
_escaped_tokens = st.text(
    st.sampled_from(["\U000e0001", "\x01", "\u200b", "\\", "'", '"', "x", "\u00e9"]),
    min_size=1, max_size=80)
_any_tokens = st.text(min_size=1, max_size=80).filter(lambda t: t.split() == [t] and "#" not in t)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_escaped_tokens, _any_tokens),
       st.sampled_from(["load {} 0 1", "{} a", "alloc a {}", "alloc a 8\nmemcpy a {} 1"]))
@example("\U000e0001" * 40, "load {} 0 1")
def test_a_refusal_shows_a_bounded_width_of_any_token(tok, template):
    source = template.format(tok) + "\n"
    try:
        parse_trace(source)
    except TraceSyntaxError as e:
        message = str(e)
    else:   # tok was an op name, an integer or a defined id
        return
    assert len(message) <= 200
    assert "line %d: %s" % trace_refusal_oracle(io.StringIO(source)) == message
    # the run-time error names an id the same way
    if template == "load {} 0 1":
        with pytest.raises(TraceRuntimeError) as e:
            run_trace(parse_trace(f"alloc {tok} 8\nload {tok} 0x1000000000000 1\n"))
        assert len(str(e.value)) <= 200


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


@st.composite
def _text_files(draw):
    """A trace's text, valid or not: LF, CR, CRLF, the other Unicode line
    separators and commented-out U+2028s inserted at random, and the last
    line end maybe left off."""
    chars = list(draw(_decorated(draw(_traces()))))
    for _ in range(draw(st.integers(1, 8))):
        sep = draw(st.sampled_from([*_SEPARATORS, "\r", "\n", "\r\n", " # \u2028"]))
        chars.insert(draw(st.integers(0, len(chars))), sep)
    text = "".join(chars)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(deadline=None)
@given(_text_files())
@example("alloc a 8\r\nload a 0 1\r\n")                     # CRLF
@example("alloc a 8\rload a 0 1\nfree a\n")                   # a lone CR
@example("alloc a 8\nfree a\r")                               # a CR at the very end
@example("alloc a 8\rload a 0 1\rload zz 0 1")                # no LF at all
@example("alloc a 8\nfree a")                                 # no final line end
@example("alloc a 8 # x\u2028 free a\r\nload zz 0 1\n")      # U+2028 in a comment
@example("\r\n\r\r\n\n\rload zz 0 1\r")                       # blank lines of each ending
def test_str_splits_into_lines_like_a_text_file(text):
    expected = _outcome(io.StringIO(text, newline=None))
    assert _outcome(text) == expected
    text_file = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=None)
    assert _outcome(text_file) == expected
    # a str is split a slice at a time; slices of 1 to 7 characters end
    # at nearly every LF, and a CRLF must never straddle two of them
    with pytest.MonkeyPatch.context() as mp:
        for chunk in (1, 2, 3, 7):
            mp.setattr(harness, "_CHUNK", chunk)
            assert _outcome(text) == expected


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


# one literal line per op: a round trip cannot see a spacing change
_EXACT_LINES = [
    (TraceEvent("alloc", "a", "", (64, 0)), "alloc a 64"),
    (TraceEvent("alloc", "t", "", (64, 7)), "alloc t 64 7"),
    (TraceEvent("alloc_array", "v", "", (10, 8)), "alloc_array v 10 8"),
    (TraceEvent("realloc", "a", "", (128,)), "realloc a 128"),
    (TraceEvent("free", "t"), "free t"),
    (TraceEvent("load", "a", "", (-3, 4)), "load a -3 4"),
    (TraceEvent("store", "v", "", (79, 1)), "store v 79 1"),
    (TraceEvent("ptr_add", "a", "", (-16,)), "ptr_add a -16"),
    (TraceEvent("memcpy", "a", "v", (80,)), "memcpy a v 80"),
    (TraceEvent("strcpy", "v", "a", (0,)), "strcpy v a 0"),
    (TraceEvent("strncpy", "a", "v", (12,)), "strncpy a v 12"),
    (TraceEvent("scope_begin"), "scope_begin"),
    (TraceEvent("scope_end"), "scope_end"),
]


def test_each_op_formats_to_its_exact_line():
    assert {ev.op for ev, _ in _EXACT_LINES} == set(_GRAMMAR)   # a new op must be added here
    for ev, line in _EXACT_LINES:
        assert format_trace([ev]) == line + "\n"
    assert format_trace([ev for ev, _ in _EXACT_LINES]) == "".join(
        line + "\n" for _, line in _EXACT_LINES)


# alloc takes one field or two: its type id may be left off
@pytest.mark.parametrize("op, args", [
    ("alloc", ()), ("alloc", (8, 0, 1, 2)), ("alloc", (8, 0, 1)), ("load", (1,)),
    ("load", (1, 2, 3)), ("free", (5,)), ("scope_begin", (1,)),
])
def test_args_that_do_not_fit_their_op_raise_type_error(op, args):
    with pytest.raises(TypeError):
        format_trace([TraceEvent(op, "a", "", args)])


def test_a_trace_is_a_sequence_of_its_events():
    text = "alloc a 40\nalloc b 8 7\nscope_begin\nmemcpy b a 8\nload a 0 8\nscope_end\n"
    trace = parse_trace(text)
    events = [TraceEvent("alloc", "a", "", (40, 0)), TraceEvent("alloc", "b", "", (8, 7)),
              TraceEvent("scope_begin"), TraceEvent("memcpy", "b", "a", (8,)),
              TraceEvent("load", "a", "", (0, 8)), TraceEvent("scope_end")]
    assert isinstance(trace, harness.Trace) and isinstance(trace, collections.abc.Sequence)
    assert len(trace) == 6
    assert [trace[k] for k in range(6)] == events == [trace[k] for k in range(-6, 0)]
    assert trace[-1] == events[-1] and trace[1:4] == events[1:4]
    for k in (6, -7):
        with pytest.raises(IndexError):
            trace[k]
    # == and != against a list, in either order
    assert trace == events and events == trace and trace == parse_trace(text)
    assert not (trace != events or events != trace)
    changed = events[:4] + [TraceEvent("load", "a", "", (0, 4))] + events[5:]
    for other in (changed, events[:-1], events + events[-1:], []):
        assert trace != other and other != trace
        assert not (trace == other or other == trace)
    assert trace != tuple(events) and trace != text
    # indexing and iteration share the row's objects, and read equal fields
    assert trace[3].id2 is trace[0].id and trace[3].id is trace[1].id
    assert trace[4].args == list(trace)[4].args and trace[2].op is list(trace)[2].op


_SLICES = pytest.mark.parametrize(
    "k", [slice(1, 4), slice(None, None, -2), slice(5, 2), slice(-2, None)],
    ids=["1:4", "::-2", "5:2", "-2:"])


def _assert_slice_builds_only_its_items(view, k, monkeypatch):
    expected = list(view)[k]
    built = []
    item = type(view)._item
    monkeypatch.setattr(type(view), "_item",
                        lambda self, *row: built.append(row) or item(self, *row))
    sliced = view[k]
    assert sliced == expected and type(sliced) is list
    assert len(built) == len(expected)


@_SLICES
def test_slicing_a_trace_builds_only_the_sliced_events(k, monkeypatch):
    trace = parse_trace("alloc a 40\nalloc b 8 7\nscope_begin\nmemcpy b a 8\n"
                        "load a 0 8\nscope_end\nstore b -1 2\n")
    _assert_slice_builds_only_its_items(trace, k, monkeypatch)


# one violation of each kind, two overflows and two underflows
_VIOLATING = ("alloc a 40\nstore a 40 1\nload a -1 1\nalloc b 8\nfree b\nfree b\n"
              "load b 0 1\nstore a 100000 1\nstore a 0 4\nload a 44 2\nstore a -3 1\n")
_VIOLATIONS = [(1, "overflow"), (2, "underflow"), (5, "double_free"), (6, "use_after_free"),
               (7, "out_of_frame"), (9, "overflow"), (10, "underflow")]


def test_a_reports_violations_are_a_sequence_of_pairs():
    violations = run_trace(parse_trace(_VIOLATING)).violations
    pairs = _VIOLATIONS
    assert isinstance(violations, collections.abc.Sequence)
    assert len(violations) == 7 and violations
    assert [violations[k] for k in range(7)] == pairs == [violations[k] for k in range(-7, 0)]
    assert violations[-1] == (10, "underflow") and violations[-7] == (1, "overflow")
    for k in (7, -8):
        with pytest.raises(IndexError):
            violations[k]
    # == and != against a list, in either order
    assert violations == pairs and pairs == violations
    assert not (violations != pairs or pairs != violations)
    changed = pairs[:2] + [(5, "use_after_free")] + pairs[3:]
    for other in (changed, pairs[:-1], pairs + pairs[-1:], []):
        assert violations != other and other != violations
        assert not (violations == other or other == violations)
    assert violations != tuple(pairs) and violations != dict(pairs)
    assert dict(violations) == dict(pairs)
    # each kind is the plain str the report held as a list, so JSON reads alike
    assert all(type(i) is int and type(kind) is str for i, kind in violations)
    assert all(type(kind) is str for sliced in (violations[::-1], violations[2:]) for _, kind in sliced)
    assert json.dumps(list(violations)) == json.dumps(pairs)
    empty = run_trace(parse_trace("alloc a 8\nload a 0 8\n")).violations
    assert not empty and len(empty) == 0 and empty == [] and [] == empty


def test_a_report_and_a_trace_repr_show_their_items():
    trace = parse_trace("alloc a 8\nload a 8 1\n")
    assert repr(trace) == ("Trace([TraceEvent(op='alloc', id='a', id2='', args=(8, 0)), "
                           "TraceEvent(op='load', id='a', id2='', args=(8, 1))])")
    assert "violations=_Violations([(1, 'overflow')])" in repr(run_trace(trace))


@_SLICES
def test_slicing_violations_builds_only_the_sliced_pairs(k, monkeypatch):
    violations = run_trace(parse_trace(_VIOLATING)).violations
    assert list(violations)[k] == _VIOLATIONS[k]
    _assert_slice_builds_only_its_items(violations, k, monkeypatch)


def test_a_report_retains_few_bytes_per_violation():
    # 12,000 violations, each in two columns: an 8 B event index and a
    # 1 B kind code, plus the columns' spare room (a (index, kind) tuple
    # and its index int took about 89 B)
    n = 12_000
    trace = parse_trace("alloc a 16\n" + "store a 16 1\nload a -1 1\n" * (n // 2))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_trace(trace)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.violations) == n and report.violations[-2:] == [(n - 1, "overflow"),
                                                                      (n, "underflow")]
    assert retained / n < 16


def test_events_share_op_and_id_strings():
    text = "alloc buf_1 64\nalloc dst_2 8\nstore buf_1 0 4\nmemcpy dst_2 buf_1 8\nfree buf_1\n"
    events = parse_trace(text)
    keys = {op: op for op in _GRAMMAR}
    assert all(ev.op is keys[ev.op] for ev in events)
    buf, dst = events[0].id, events[1].id
    assert events[2].id is buf and events[4].id is buf
    assert events[3].id is dst and events[3].id2 is buf


def test_equal_fields_read_back_as_equal_args():
    text = "alloc a 300 0\nalloc b 300\nload a 1000 4\nstore b 1000 4\n"
    events = parse_trace(text)
    assert events[0].args == events[1].args == (300, 0)
    assert events[2].args == events[3].args == (1000, 4)
    # the int columns change no event: they still equal the generated ones
    generated, _ = gen_workload(5, WorkloadParams(objects=50, accesses_per_object=8))
    parsed = parse_trace(format_trace(generated))
    assert parsed == generated
    assert [ev.args for ev in parsed] == [ev.args for ev in generated]


_SMALL_HOT = WorkloadParams(objects=2000, size_dist="uniform:8:512", accesses_per_object=32,
                            fault_rate=0.02, edge_probe=True)
_MIXED = WorkloadParams(objects=5000, size_dist="loguniform:1:65536", accesses_per_object=8,
                        fault_rate=0.05, fault_kinds=("overflow", "underflow", "use_after_free",
                                                      "double_free"),
                        edge_probe=True, free_fraction=0.5)


@functools.lru_cache(maxsize=None)
def _parse_footprint(line_end: str = "\n", params: WorkloadParams = _SMALL_HOT
                     ) -> tuple[int, int, int, int]:
    """(events, characters, bytes retained, bytes peak) of parsing the
    text of a trace of params at seed 7, its lines ended by line_end.  By
    default it is small_hot-shaped: 2000 small objects, 32 accesses
    each, 70,000 events in all."""
    events, _ = gen_workload(7, params)
    text = format_trace(events).replace("\n", line_end)
    del events
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = parse_trace(text)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return len(events), len(text), retained - before, peak - before


def test_parsed_events_retain_few_bytes_each():
    n, _, retained, _ = _parse_footprint()
    # about 9 B: a row's op code (1 B), id index (2 B), id2 index (1 B),
    # offset or size (2 B) and access size (1 B), each column as narrow as
    # its values, the columns' spare room and 2000 id strings; no field is
    # an int object, and no event is built.  With 4 B ids and fields it is
    # 19 B.
    assert retained / n < 11


def test_parsed_mixed_events_retain_few_bytes_each():
    # the mixed benchmark workload's shape: 57,977 events with 21,924
    # distinct args.  About 14.5 B: a row (9 B, its sizes past 2^16 take
    # 4 B), the columns' spare room and 5000 id strings; distinct fields
    # cost no more than equal ones
    n, _, retained, _ = _parse_footprint("\n", _MIXED)
    assert retained / n < 17


@pytest.mark.parametrize("line_end", ["\n", "\r"])
def test_parsing_a_str_copies_no_whole_text(line_end):
    _, chars, retained, peak = _parse_footprint(line_end)
    # about 0.2 B a character: one slice and its lines at a time.  A
    # text-mode copy of the whole text alone takes 4 B a character.
    assert peak - retained < chars


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
    ("load", (0, 1)), ("store", (0, 1)), ("ptr_add", (0,)), ("free", ()), ("realloc", (64,)),
])
def test_unbound_id_is_a_runtime_error_naming_it(op, args):
    # parse_trace refuses such a line, so the events are built by hand
    events = [TraceEvent("alloc", id="a", args=(40, 0)), TraceEvent(op, id="ghost", args=args)]
    with pytest.raises(TraceRuntimeError) as e:
        run_trace(events)
    assert str(e.value) == "undefined id 'ghost'"


_ALLOC_A = TraceEvent("alloc", id="a", args=(40, 0))


@pytest.mark.parametrize("dst, src", [("ghost", "a"), ("a", "ghost"), ("ghost", "phantom")],
                         ids=["dst", "src", "both"])
@pytest.mark.parametrize("op", ["memcpy", "strcpy", "strncpy"])
def test_an_unbound_copy_operand_is_a_runtime_error_naming_dst_first(op, dst, src):
    with pytest.raises(TraceRuntimeError) as e:
        run_trace([_ALLOC_A, TraceEvent(op, dst, src, (8,))])
    assert str(e.value) == "undefined id 'ghost'"


@pytest.mark.parametrize("op, args", [("load", (0,)), ("alloc", ()), ("free", (1, 2)),
                                      ("load", (0, 4, 9))])
def test_an_event_with_the_wrong_field_count_is_a_runtime_error(op, args):
    # counted as its line's arguments are, the id with the fields
    with pytest.raises(TraceRuntimeError) as e:
        run_trace([_ALLOC_A, TraceEvent(op, "a", "", args)])
    takes = {"load": "3..3", "alloc": "2..3", "free": "1..1"}[op]
    assert str(e.value) == f"{op} takes {takes} arguments, got {1 + len(args)}"


def test_an_alloc_event_may_leave_its_type_id_off():
    events = [TraceEvent("alloc", "a", "", (40,)), TraceEvent("store", "a", "", (38, 4))]
    assert run_trace(events) == run_trace(parse_trace("alloc a 40\nstore a 38 4\n"))
    # format_trace writes it as it writes a type id of 0
    text = format_trace(events)
    assert text == "alloc a 40\nstore a 38 4\n" and format_trace(parse_trace(text)) == text


def _reading(events, read):
    """A one-shot generator over events that records in read each index it yields."""
    for k, event in enumerate(events):
        read.append(k)
        yield event


@pytest.mark.parametrize("bad", [
    TraceEvent("bogus"), TraceEvent("load", id="ghost", args=(0, 1)),
    TraceEvent("free", id="ghost"), TraceEvent("memcpy", "a", "ghost", (8,)),
    TraceEvent("scope_end"), TraceEvent("store", id="a", args=(1 << 48, 1)),
    TraceEvent("load", id="a", args=(0,)),
], ids=["unknown_op", "unbound_load", "unbound_free", "unbound_src", "scope_end", "offset",
        "field_count"])
def test_an_event_iterables_error_leaves_the_events_after_it_unread(bad):
    read = []
    events = [_ALLOC_A, TraceEvent("store", id="a", args=(0, 1)), bad,
              TraceEvent("store", id="a", args=(0, 1)), TraceEvent("alloc", id="b", args=(8, 0))]
    with pytest.raises(TraceRuntimeError):
        run_trace(_reading(events, read))
    assert read == [0, 1, 2]


@pytest.mark.parametrize("events, turn, message", [
    # the offset error at event 1 comes before the unbound id at event 2
    ([_ALLOC_A, TraceEvent("store", id="a", args=(1 << 48, 1)),
      TraceEvent("load", id="ghost", args=(0, 1))],
     1, "offset 281474976710656 moves 'a' outside the 48-bit space"),
    ([TraceEvent("scope_begin"), TraceEvent("scope_end"), TraceEvent("scope_end")],
     2, "scope_end without matching scope_begin"),
], ids=["offset_before_unbound", "third_scope_end"])
def test_an_event_iterables_first_error_wins_at_its_turn(events, turn, message):
    read = []
    with pytest.raises(TraceRuntimeError) as e:
        run_trace(_reading(events, read))
    assert str(e.value) == message
    assert read == list(range(turn + 1))


# ints from a few digits to under 4,300, so a field is in its bounds,
# just out of them, or past them by far
_event_ints = st.one_of(st.integers(1, 64), st.integers(1, 64), st.integers(-2, 70000),
                        st.integers(-10 ** 4299, 10 ** 4299))


@st.composite
def _any_events(draw):
    """An event of any op, usually one that allocates, at times one that
    is no token of its line, with any field count, usually its op's,
    fields that are usually ints and at times the bytes of one or a str
    that is no token of its line, and ids that are usually one token each
    and at times none, two, or one cut by a comment."""
    op = draw(st.sampled_from(["alloc"] * 4 + ["alloc_array"] * 2
                              + [*_GRAMMAR, "bogus", "alloc a", " alloc"]))
    n = len(_GRAMMAR[op].fields) if op in _GRAMMAR else 0
    k = draw(st.sampled_from([n] * 12 + [0, 1, 2, 3]))
    fields = st.one_of(*[_event_ints] * 9, _event_ints.map(lambda v: str(v).encode()),
                       st.sampled_from(["8 0", "8#x", " 8", "8 ", "0 1#", "x y", ""]))
    args = draw(st.lists(fields, min_size=k, max_size=k))
    ids = st.sampled_from(["a", "b"] * 6 + ["", "a b", "a#b", "#"])
    return TraceEvent(op, draw(ids), draw(ids), tuple(args))


def _event_line(event):
    """event as trace text: its op, the ids its op takes, then its args."""
    n_ids = _GRAMMAR[event.op].ids if event.op in _GRAMMAR else 1
    return " ".join([event.op, *(event.id, event.id2)[:n_ids], *map(str, event.args)])


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_events(), max_size=10))
def test_an_event_is_refused_with_the_reason_of_its_line(events):
    events = [_ALLOC_A, *events]    # so that most lists get past their first event
    lines = [_event_line(event) for event in events]
    expected = trace_refusal_oracle(lines)
    turn = expected[0] - 1 if expected else len(events)
    config = EngineConfig(arena_size=1 << 40)   # room for every alloc the rules let by
    try:    # the events before the refused one, replayed from their text
        run_trace(parse_trace(lines[:turn]), config)
        first_error = None
    except TraceRuntimeError as e:
        first_error = str(e)    # an offset past the 48-bit space comes first
    read = []
    try:
        outcome = run_trace(_reading(events, read), config)
    except TraceRuntimeError as e:
        outcome = str(e), read[-1]  # read holds 0 to read[-1]: the events after it are unread
    if first_error:
        assert outcome[0] == first_error and outcome[1] < turn
    elif expected:
        assert outcome == (expected[1], turn)
    else:
        assert outcome == run_trace(parse_trace(lines), config)


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


@pytest.mark.parametrize("moves", ["", "realloc a 200000\nrealloc b 200000\n"])
@pytest.mark.parametrize("depth", [1, 2])
def test_allocations_in_a_scope_are_released_at_its_scope_end(moves, depth):
    # alloc and alloc_array take the scope id at different positions; a
    # realloc takes its scope from the record, so a scope id that landed
    # in alloc_array's type_id would leave the moved object live
    text = ("scope_begin\n" * depth + "alloc_array a 4 8\nalloc b 8 7\n" + moves
            + "scope_end\n" * depth)
    report = run_trace(parse_trace(text))
    assert report.live_stats["live_allocations"] == 0
    assert report.live_stats["total_allocations"] == 2 + 2 * bool(moves)
    assert report.violations == []


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
     f"undefined id '{'x' * 40}'... (5000 characters)"),
    (TraceEvent("load", id="a", args=(10 ** 5000, 1)),
     f"offset 1{'0' * 39}... (5001 characters) moves 'a' outside the 48-bit space"),
    # a field that is no int, or out of its bounds, gets its line's reason
    (TraceEvent("alloc", id="b", args=(40.5, 0)), "size '40.5' is not an integer"),
    (TraceEvent("alloc", id="b", args=(None, 0)), "size 'None' is not an integer"),
    (TraceEvent("load", id="a", args=(0, None)), "access_size 'None' is not an integer"),
    (TraceEvent("load", id="a", args=(0, 0)), "access_size 0 outside [1, inf]"),
    (TraceEvent("alloc", id="b", args=(0, 0)), "size 0 outside [1, 4294967295]"),
    (TraceEvent("alloc", id="b", args=(8, 1 << 32)),
     "type_id 4294967296 outside [0, 4294967295]"),
    (TraceEvent("alloc_array", id="b", args=(70000, 70000)),
     "count * elem_size 4900000000 outside [1, 4294967295]"),
    # bytes that int(tok, 0) would read are no int and no str: the line's token is b'12'
    (TraceEvent("alloc", id="b", args=(b"12", 0)), "size \"b'12'\" is not an integer"),
    # an id that is not one token is read as its line: alloc  8 0, load  0 1,
    # load a b 0 1 and free # (free a#b frees a)
    (TraceEvent("alloc", id="", args=(8, 0)), "size 0 outside [1, 4294967295]"),
    (TraceEvent("load", id="", args=(0, 1)), "load takes 3..3 arguments, got 2"),
    (TraceEvent("load", id="a b", args=(0, 1)), "load takes 3..3 arguments, got 4"),
    (TraceEvent("free", id="#"), "free takes 1..1 arguments, got 0"),
    # so is an op or a str field: alloc a b 8, load a 0 1 2, alloc b  0 0
    (TraceEvent("alloc a", id="b", args=(8,)), "size 'b' is not an integer"),
    (TraceEvent("load", id="a", args=(0, "1 2")), "load takes 3..3 arguments, got 4"),
    (TraceEvent("alloc", id="b", args=(" 0", 0)), "size 0 outside [1, 4294967295]"),
    # an operand that is no str and no int is shown as its str, as in its line
    (TraceEvent(None), "unknown operation 'None'"),
    (TraceEvent("alloc", id="b", args=(Decimal(0), 0)), "size 0 outside [1, 4294967295]"),
    # a line that holds no token keeps the event's own reason
    (TraceEvent(""), "unknown operation ''"),
    (TraceEvent("#"), "unknown operation '#'"),
    # an int too long for str() is written as its hex: alloc  0x... 0, alloc  8 0x...
    (TraceEvent("alloc", args=(10 ** 5000, 0)), "size 0 outside [1, 4294967295]"),
    (TraceEvent("alloc", args=(8, 10 ** 5000)),
     f"size {hex(10 ** 5000)[:40]}... (4155 characters) outside [1, 4294967295]"),
])
def test_events_parse_trace_refuses_are_runtime_errors(event, message):
    # parse_trace refuses such a line, so the event is built by hand
    with pytest.raises(TraceRuntimeError) as e:
        run_trace([TraceEvent("alloc", id="a", args=(40, 0)), event])
    assert str(e.value) == message


def test_an_event_whose_id_is_no_token_replays_as_its_line():
    # alloc  8 5 defines the id 8, as its line does, and no id ""
    events = [TraceEvent("alloc", "", "", (8, 5)), TraceEvent("load", "8", "", (4, 4))]
    assert run_trace(events) == run_trace(parse_trace("alloc 8 5\nload 8 4 4\n"))
    with pytest.raises(TraceRuntimeError) as e:
        run_trace([*events, TraceEvent("load", "", "", (4, 4))])
    assert str(e.value) == "load takes 3..3 arguments, got 2"


def test_an_event_whose_op_or_field_is_no_token_replays_as_its_line():
    # alloc a 8 0 leaves off no field, and # ends alloc b 8 and load b 0 9
    events = [TraceEvent("alloc", "a", "", ("8 0",)), TraceEvent("alloc", "b", "", ("8#x", 0)),
              TraceEvent(" store", "a", "", (7, 1)), TraceEvent("load", "b", "", (0, "9#"))]
    report = run_trace(events)
    assert report == run_trace(parse_trace("alloc a 8 0\nalloc b 8#x 0\n store a 7 1\n"
                                           "load b 0 9#\n"))
    assert report.violations == [(3, "overflow")] and report.verdicts["ok"] == 1


_HUGE_SIZE = f"header size 1{'0' * 39}... (5001 characters) not a 32-bit value"


@pytest.mark.parametrize("call, message", [
    (lambda arena: arena.alloc(10 ** 5000), _HUGE_SIZE),
    (lambda arena: arena.alloc(8, 10 ** 5000),
     f"type id 1{'0' * 39}... (5001 characters) not a 32-bit value"),
    (lambda arena: arena.alloc_array(10 ** 5000, 1), _HUGE_SIZE),
    (lambda arena: arena.realloc(arena.alloc(40).tagged, 10 ** 5000), _HUGE_SIZE),
], ids=["alloc", "alloc_type_id", "alloc_array", "realloc"])
def test_arena_refuses_a_huge_size_with_a_bounded_message(call, message):
    # run_trace refuses such a field before the arena sees it, so the
    # arena is called directly
    with pytest.raises(ValueError) as e:
        call(Arena())
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


@pytest.mark.parametrize("size", [64, 1 << 17], ids=["small", "big"])
def test_a_churn_with_ptr_add_keeps_at_most_120_bytes_per_round(size):
    # alloc, ptr_add and free of one id: rebinding drops the old
    # pointer's cursor, and release keeps no record of either class, so
    # a round keeps about 62 B (its cleared header or vacated entry)
    rounds, kept = 20_000, []
    churn = [TraceEvent("alloc", "a", "", (size, 0)), TraceEvent("ptr_add", "a", "", (8,)),
             TraceEvent("free", "a", "", ())]

    def events():
        yield from churn    # one-time growth stays out of the count
        gc.collect()
        kept.append(tracemalloc.get_traced_memory()[0])
        for _ in range(rounds):
            yield from churn
        gc.collect()
        kept.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        report = run_trace(events(), EngineConfig(arena_size=1 << 40))
    finally:
        tracemalloc.stop()
    assert report.verdicts["ok"] == rounds + 1 and report.violations == []
    assert (kept[1] - kept[0]) / rounds <= 120


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


# field values about the edges of the int32 and int64 columns that a
# Trace holds fields in; a value past an edge widens its column
_EDGES = (2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1, 2 ** 63, 2 ** 70)
# sizes of both frame classes, and offsets around their bounds and the edges
_RUN_SIZES = st.sampled_from([1, 10, 40, 64, 500, 4096, 40000, 1 << 16, (1 << 17) + 3])
_RUN_OFFSETS = st.one_of(st.integers(-32, 80), st.sampled_from(
    [-(1 << 16), 1 << 15, 1 << 17, -2 ** 31 - 1, -2 ** 63 - 1, *_EDGES]))


@st.composite
def _runnable_traces(draw):
    """A valid trace over all twelve ops, with nested scopes, whose
    sizes a default arena replays; an offset past the 48-bit space ends
    its replay with a TraceRuntimeError."""
    events, ids, depth = [], [], 0
    for _ in range(draw(st.integers(0, 40))):
        ops = ["alloc", "alloc_array", "scope_begin"] + ["scope_end"] * (depth > 0)
        if ids:
            ops += ["realloc", "free", "load", "store", "ptr_add",
                    "memcpy", "strcpy", "strncpy"] * 2
        op = draw(st.sampled_from(ops))
        if op in ("alloc", "alloc_array"):
            ids.append(draw(st.sampled_from(ids + ["a", "b", "c", "d"])))
            size = draw(_RUN_SIZES)
            type_id = draw(st.sampled_from((0, 1, 2) + _EDGES[:3]))
            ev = TraceEvent(op, ids[-1], args=(size, type_id) if op == "alloc"
                            else (max(1, size // 8), 8))
        elif op in ("scope_begin", "scope_end"):
            depth += 1 if op == "scope_begin" else -1
            ev = TraceEvent(op)
        else:
            name = draw(st.sampled_from(ids))
            if op == "realloc":
                ev = TraceEvent(op, name, args=(draw(_RUN_SIZES),))
            elif op == "free":
                ev = TraceEvent(op, name)
            elif op in ("load", "store"):
                access = st.one_of(st.integers(1, 16), st.sampled_from(_EDGES))
                ev = TraceEvent(op, name, args=(draw(_RUN_OFFSETS), draw(access)))
            elif op == "ptr_add":
                ev = TraceEvent(op, name, args=(draw(_RUN_OFFSETS),))
            else:
                n = st.one_of(st.integers(0, 70000), st.sampled_from(_EDGES))
                ev = TraceEvent(op, name, draw(st.sampled_from(ids)), (draw(n),))
        events.append(ev)
    return events + [TraceEvent("scope_end")] * depth


def _run_outcome(events, config):
    """run_trace's report, or the type and message of what it raised."""
    try:
        return run_trace(events, config)
    except (TraceRuntimeError, ValueError) as e:
        return type(e), str(e)


@settings(deadline=None, max_examples=300)
@given(events=_runnable_traces(), arith_checks=st.booleans())
@example(events=parse_trace("scope_begin\nalloc a 40\nscope_begin\nalloc_array b 3 8\n"
                            "load a 0 4\nstore b 24 1\nptr_add a 48\nmemcpy b a 8\n"
                            "strcpy a b 30\nstrncpy b a 4\nrealloc a 200000\nfree b\n"
                            "scope_end\nfree a\nscope_end\n"), arith_checks=True)
def test_a_trace_its_list_and_a_generator_over_it_replay_alike(events, arith_checks):
    trace = parse_trace(format_trace(events))
    config = EngineConfig(arith_checks=arith_checks)
    outcome = _run_outcome(trace, config)
    assert _run_outcome(list(trace), config) == outcome
    assert _run_outcome((ev for ev in trace), config) == outcome


_WIDE_EVENTS = [
    TraceEvent("alloc", "a", "", (64, 0)), TraceEvent("load", "a", "", (2 ** 31 - 1, 4)),
    TraceEvent("store", "a", "", (2 ** 31, 2 ** 31 - 1)),
    TraceEvent("load", "a", "", (-2 ** 31 - 1, 2 ** 31)),
    TraceEvent("alloc", "b", "", (2 ** 32 - 1, 0)), TraceEvent("alloc", "c", "", (8, 2 ** 32 - 1)),
    TraceEvent("load", "c", "", (0, 2 ** 63)), TraceEvent("store", "b", "", (8, 2 ** 70)),
    TraceEvent("memcpy", "a", "c", (2 ** 63,)), TraceEvent("strncpy", "c", "a", (2 ** 70,)),
    TraceEvent("realloc", "a", "", (2 ** 31,)),
]


@pytest.mark.parametrize("last, error", [
    (None, None),
    (TraceEvent("ptr_add", "a", "", (2 ** 63,)), "offset 9223372036854775808 moves 'a'"),
    (TraceEvent("load", "c", "", (2 ** 70, 1)), "offset 1180591620717411303424 moves 'c'"),
], ids=["report", "2^63_offset", "2^70_offset"])
def test_fields_past_32_and_64_bits_parse_round_trip_and_replay_alike(last, error):
    events = _WIDE_EVENTS + [last] * (last is not None) + [TraceEvent("load", "a", "", (0, 4))]
    text = format_trace(events)
    trace = parse_trace(text)
    assert trace == events and list(trace) == events and format_trace(trace) == text
    config = EngineConfig(arena_size=1 << 33)     # room for b's 4 GiB
    outcome = _run_outcome(trace, config)
    assert _run_outcome(list(trace), config) == outcome
    if error:
        assert outcome == (TraceRuntimeError, f"{error} outside the 48-bit space")
    else:
        assert outcome.event_count == len(events) and outcome.verdicts["overflow"] == 4


@pytest.mark.parametrize("line, kinds", [
    ("load a 127 1", ("b", "b")), ("load a -128 1", ("b", "b")), ("load a 128 1", ("h", "b")),
    ("load a -129 1", ("h", "b")), ("load a 1 32767", ("b", "h")), ("load a 32768 1", ("i", "b")),
    ("load a 2147483647 2147483647", ("i", "i")), ("load a -2147483648 1", ("i", "b")),
    ("load a -2147483649 1", ("q", "b")), ("alloc a 8 4294967295", ("b", "q")),
    ("load a 9223372036854775807 1", ("q", "b")), ("load a -9223372036854775808 1", ("q", "b")),
    ("load a 1 9223372036854775808", ("b", "list")),
    ("load a -9223372036854775809 1", ("list", "b")),
])
def test_a_field_column_widens_only_as_far_as_its_values_need(line, kinds):
    text = f"alloc a 8\nload a -3 4\n{line}\nstore a 1 2\n"
    trace = parse_trace(text)
    assert [getattr(c, "typecode", "list") for c in trace.columns[3:]] == list(kinds)
    # the values before and after the widening value are kept
    assert format_trace(trace) == text
    assert [ev.args for ev in trace[:2] + trace[3:]] == [(8, 0), (-3, 4), (1, 2)]


@pytest.mark.parametrize("n, line, row, kinds", [
    (255, "memcpy o1 o255 1", (1, 255), ("B", "B")), (256, "load o256 0 1", (256, 0), ("H", "B")),
    (256, "memcpy o1 o256 1", (1, 256), ("H", "H")),
])
def test_an_id_column_widens_only_as_far_as_its_indexes_need(n, line, row, kinds):
    # o{k}'s index is k, since index 0 is ""
    text = "".join(f"alloc o{k} 8\n" for k in range(1, n + 1)) + f"memcpy o2 o3 4\n{line}\n"
    trace = parse_trace(text)
    assert [c.typecode for c in trace.columns[1:3]] == list(kinds)
    # the indexes before the widening index are kept
    assert format_trace(trace) == text
    assert list(trace.columns[1]) == [*range(1, n + 1), 2, row[0]]
    assert list(trace.columns[2]) == [0] * n + [3, row[1]]


# -- workload generation -------------------------------------------------

# 1, 2**k and 2**k +- 1 up to 2**21, where n.bit_length() steps, and any n
_DRAW_BOUNDS = st.one_of(
    st.sampled_from(sorted({m for k in range(22) for m in (2 ** k - 1, 2 ** k, 2 ** k + 1)
                            if 1 <= m <= 2 ** 21})),
    st.integers(1, 2 ** 21))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64),
       requests=st.lists(st.tuples(st.sampled_from(("randrange", "randint", "choice")),
                                   _DRAW_BOUNDS), max_size=40))
def test_below_draws_what_randrange_randint_and_choice_draw(seed, requests):
    rng, twin = random.Random(seed), random.Random(seed)
    below = harness._below(rng)
    for method, n in requests:
        if method == "randrange":
            assert below(n) == twin.randrange(n)
        elif method == "randint":
            assert 1 + below(n) == twin.randint(1, n)
        else:
            seq = range(10, 10 + n)
            assert seq[below(len(seq))] == twin.choice(seq)
    assert rng.getstate() == twin.getstate()


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


# SHA-256 of format_trace(events) and of the JSON of the manifest's
# sorted (index, kind) pairs, for each benchmark workload and for one
# parameter set at two size rules that between them reach every draw
# gen_workload makes, all at seed 7
_EVERY_DRAW = dict(objects=400, accesses_per_object=6, fault_rate=0.2,
                   fault_kinds=("overflow", "underflow", "use_after_free", "double_free"),
                   edge_probe=True, array_fraction=0.5, free_fraction=0.3)
_GEN_SHA256 = {
    "mixed": ("45b69094683aedfca9b11d7f97af29ed0520754cc64844d3022fd0ef507eb298",
              "9bf871977ac1d3a5c0d896b131de234f437ed696feff821854e1cbc10634b8e7"),
    "small_hot": ("84cf703fa7e8268d585e761fc2f41460ca4b4dcb8c381765784007451fd648ef",
                  "99fe77401c84cb4830f939dca7c840b6d15480dd7436c5ac09344953d78c2bd7"),
    "big_churn": ("8de74e6f078f2af449f56fc57f519e0588e8a8321b72eaf297388ab037882dcc",
                  "9f1f03af9206ff920bd5f8e1a5cd7f62aeddc07ece65649f39120c7ea4a73242"),
    "fixed:300": ("42329d6851018ee9daf455ae8737bf2c0f83110d30198098b01e6a5f41b5dd99",
                  "6a53584263c46fe58efa41057a1ed86bc7ee084209d81124b5dc9d511abda61e"),
    "uniform:1:4096": ("a4f63e8e90f19754dd168e1b66b09d65d05696a52cfdb52fe5accb20c60a027c",
                       "8f61596af65a555d32c8b2c01e86f4fc721a31740aa45efa3703470810bbdb34"),
}


def test_generated_traces_and_manifests_are_pinned():
    params = {name: workload.params for name, workload in _bench_workloads().items()}
    params.update((dist, WorkloadParams(size_dist=dist, **_EVERY_DRAW))
                  for dist in ("fixed:300", "uniform:1:4096"))
    assert params.keys() == _GEN_SHA256.keys()
    for name, (trace_sha, manifest_sha) in _GEN_SHA256.items():
        events, manifest = gen_workload(7, params[name])
        digests = (hashlib.sha256(format_trace(events).encode()).hexdigest(),
                   hashlib.sha256(json.dumps(sorted(manifest.items())).encode()).hexdigest())
        assert digests == (trace_sha, manifest_sha), name
