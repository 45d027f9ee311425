"""Frame-tagged pointer runtime for memory-safety checking.

The library models a 48-bit arena whose allocator places a 16-byte
metadata header directly below every object, computes the object's
power-of-two wrapper frame, and encodes the header's location in the
otherwise unused top 16 bits of the pointer: a slot offset for small
frames, the frame's log-size for big ones, resolved through a compact
per-division entry table.  Runtime checks untag pointers, fetch the
header, and classify each access, copy, or free as in-bounds or as a
specific violation.  A trace-replay harness and CLI drive the stack on
synthetic workloads with known fault manifests.
"""

from .frame_math import SLOT_BITS, wrapper_frame
from .tagging import decode, rebase
from .verdicts import VerdictKind
from .metadata import DivisionTable
from .arena import Arena
from .checker import AccessRequest, Checker
from .harness import (
    EngineConfig,
    WorkloadParams,
    emit_report,
    format_trace,
    gen_workload,
    parse_trace,
    run_trace,
)
