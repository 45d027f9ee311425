"""frameguard benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mixed --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
its `src/` directory, never from an installed copy.  With `--trace 0`
the run times the public entry points a `frameguard gen` / `frameguard
run --json` user goes through and prints the end-to-end metrics.  With
`--trace 1` it wraps each layer's public calls in timing spans instead
and prints the per-layer metrics (see perfbench/layers.py).

Every replay is checked against the workload's fault manifest; any
mismatch makes the result `"correct": false` and the exit status 1.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MIN_CYCLES = 3
# each cycle times this many more parses and replays besides the ones
# inside the verdict
EXTRA_PARSES = 1
EXTRA_REPLAYS = 1
# the correctness gate also replays the trace of this seed, never timed
GATE_SEED_OFFSET = 1_000_003

END_TO_END_UNITS = {
    "replay_events_per_s": "events/s",
    "parse_events_per_s": "events/s",
    "gen_events_per_s": "events/s",
    "verdict_s": "s",
    "setup_s": "s",
    "peak_mib": "MiB",
}


def gen_text(seed: int, params):
    """What `frameguard gen` does: the trace text and the fault manifest."""
    from frameguard import format_trace, gen_workload

    events, manifest = gen_workload(seed, params)
    # a `frameguard run` user never holds the generator's events
    return format_trace(events), len(events), manifest


def end_to_end(workload, seed: int, seconds: float):
    """End-to-end metrics and the correctness gate.

    Every timing is a median over the run of reference-speed seconds
    (see common.RefClock); the wall-clock medians are printed beside them.
    """
    from common import CAL_REF_S, MIB, Gate, RefClock, build_engine, sha256
    from frameguard import emit_report, format_trace, parse_trace, run_trace

    params, config = workload.params, workload.config
    clock = RefClock()
    for _ in range(MIN_CYCLES):
        clock.time("setup", lambda: build_engine(config))

    gate = None
    verdict_s = []
    start = time.perf_counter()
    cycle_s = 0.0
    # a cycle starts only if it should end within the run's seconds
    while len(verdict_s) < MIN_CYCLES or time.perf_counter() - start + cycle_s <= seconds:
        t0 = time.perf_counter()
        text, n, manifest = clock.time("gen", lambda: gen_text(seed, params))
        for _ in range(EXTRA_PARSES):
            clock.time("parse", lambda: parse_trace(text))
        parsed = clock.time("parse", lambda: parse_trace(text))
        for _ in range(EXTRA_REPLAYS):
            clock.time("replay", lambda: run_trace(parsed, config))
        report = clock.time("replay", lambda: run_trace(parsed, config))
        report_json = clock.time("report", lambda: emit_report(report, "json"))
        verdict_s.append(sum(clock.ref_s[phase][-1] for phase in ("parse", "replay", "report")))
        clock.time("setup", lambda: build_engine(config))

        gate = gate or Gate(manifest)
        gate.expect(manifest == gate.manifest, "gen_workload manifest differs between calls")
        gate.check(report, report_json)
        del parsed, report
        cycle_s = time.perf_counter() - t0

    # untimed: tracemalloc slows every allocation it sees
    gc.collect()
    tracemalloc.start()
    try:
        parsed = parse_trace(text)
        report = run_trace(parsed, config)
        report_json = emit_report(report, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gate.expect(format_trace(parsed) == text, "format_trace(parse_trace(text)) != text")
    gate.check(report, report_json)
    del parsed, report

    # the gate on a trace the run did not time
    other_text, _, other_manifest = gen_text(seed + GATE_SEED_OFFSET, params)
    other_gate = Gate(other_manifest)
    other_report = run_trace(parse_trace(other_text), config)
    other_gate.check(other_report, emit_report(other_report, "json"))
    gate.attempted += other_gate.attempted
    gate.failed += other_gate.failed
    gate.problems += other_gate.problems

    med = statistics.median
    metrics = {
        "replay_events_per_s": n / med(clock.ref_s["replay"]),
        "parse_events_per_s": n / med(clock.ref_s["parse"]),
        "gen_events_per_s": n / med(clock.ref_s["gen"]),
        "verdict_s": med(verdict_s),
        "setup_s": med(clock.ref_s["setup"]),
        "peak_mib": peak / MIB,
    }
    print(f"events: {n}  cycles: {len(verdict_s)}  report_sha256: {sha256(report_json)}")
    print(f"calibration loop: median {med(clock.calibration_s) * 1e3:.3f} ms, "
          f"min {min(clock.calibration_s) * 1e3:.3f} ms, reference {CAL_REF_S * 1e3:.3f} ms")
    print("wall-clock medians: " + "  ".join(
        f"{phase}={med(samples):.6f} s" for phase, samples in clock.wall_s.items()))
    return metrics, gate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "frameguard" / "__init__.py").is_file():
        print(f"perfbench: no frameguard sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from common import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")

    if args.trace:
        from layers import per_layer

        metrics, units, gate = per_layer(args.workload, workload, args.seed, args.seconds)
    else:
        metrics, gate = end_to_end(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS

    print(f"mismatched_events: {gate.failed} of {gate.attempted} events")
    for problem in sorted(set(gate.problems)):
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:>18.6f} {units[name]}")
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
