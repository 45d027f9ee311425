"""Classified outcomes of runtime checks."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class VerdictKind(str, Enum):
    OK = "ok"
    OVERFLOW = "overflow"
    UNDERFLOW = "underflow"
    OUT_OF_FRAME = "out_of_frame"
    USE_AFTER_FREE = "use_after_free"
    DOUBLE_FREE = "double_free"
    UNTRACKED = "untracked"


# a module-level tuple: reading VerdictKind members per call is slow
_PASSING = (VerdictKind.OK, VerdictKind.UNTRACKED)


@dataclass(frozen=True)
class Verdict:
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
        return self.kind not in _PASSING
