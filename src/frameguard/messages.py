"""Operands as error messages show them: bounded, whatever their length."""

import math


def cut(tok: str | int, quoted: bool = True) -> str:
    """tok as an error message shows it: past 40 characters, cut, with its
    length.  An int shows as its decimal string would, unquoted, but only
    its leading digits are converted, so no int is too long to show."""
    if isinstance(tok, int):
        # the digits past the first 40 or more, dropped before converting
        dropped = max(0, int((abs(tok).bit_length() - 1) * math.log10(2)) - 40)
        head = ("-" if tok < 0 else "") + str(abs(tok) // 10 ** dropped)
        head, length = head[:40], len(head) + dropped
    else:
        head, length = (repr(tok[:40]) if quoted else tok[:40]), len(tok)
    return head if length <= 40 else f"{head}... ({length} characters)"
