import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameguard.harness import (
    EngineConfig,
    TraceEvent,
    TraceSyntaxError,
    WorkloadParams,
    emit_report,
    format_trace,
    gen_workload,
    parse_trace,
    run_trace,
)


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


def test_format_round_trip():
    params = WorkloadParams(objects=40, accesses_per_object=3, fault_rate=0.2,
                            fault_kinds=("overflow", "underflow", "double_free"),
                            array_fraction=0.3, free_fraction=0.2)
    events, _ = gen_workload(3, params)
    assert parse_trace(format_trace(events)) == events


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


def test_text_report_mentions_totals():
    report = run_trace(parse_trace("alloc a 40\nstore a 40 1\n"))
    text = emit_report(report, "text")
    assert "violations: 1" in text
    assert "ratio=" in text
    with pytest.raises(ValueError):
        emit_report(report, "yaml")
