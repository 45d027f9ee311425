"""Classified outcomes of runtime checks."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class VerdictKind(str, Enum):
    OK = "ok"
    OVERFLOW = "overflow"
    UNDERFLOW = "underflow"
    OUT_OF_FRAME = "out_of_frame"
    USE_AFTER_FREE = "use_after_free"
    DOUBLE_FREE = "double_free"
    UNTRACKED = "untracked"


# module-level names for the hot paths: a VerdictKind.X read goes
# through the enum class and costs far more than a global read
OK, OVERFLOW, UNDERFLOW, OUT_OF_FRAME, USE_AFTER_FREE, DOUBLE_FREE, UNTRACKED = VerdictKind


class Verdict(NamedTuple):
    """One check's outcome plus whatever detail was resolvable.

    OK passes a tracked pointer; UNTRACKED passes a plain address
    through unchecked.  Every other kind is a violation.  Checks report
    verdicts instead of raising so a run can continue after errors.
    """

    kind: VerdictKind
    address: int | None = None       # offending (or passed) untagged address
    alloc_id: int | None = None      # allocation record id when resolvable
    operand: str | None = None       # "dst" / "src" for two-pointer checks

    @property
    def is_violation(self) -> bool:
        kind = self.kind
        return kind is not OK and kind is not UNTRACKED
