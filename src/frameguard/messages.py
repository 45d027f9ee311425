"""Operands as error messages show them: bounded, whatever their length."""

import math

SHOWN = 40      # characters of a token a message shows, between any quotes


def cut(tok: str | int, quoted: bool = True) -> str:
    """tok as an error message shows it: past SHOWN characters, cut, with
    its length.  Quoted, the bound is on its repr, so escapes count at
    their width.  An int shows as its decimal string would, unquoted, but
    only its leading digits are converted, so no int is too long to show."""
    if isinstance(tok, int):
        # the digits past the first 40 or more, dropped before converting
        dropped = max(0, int((abs(tok).bit_length() - 1) * math.log10(2)) - SHOWN)
        head = ("-" if tok < 0 else "") + str(abs(tok) // 10 ** dropped)
        head, length = head[:SHOWN], len(head) + dropped
        k = len(head)
    else:
        length = len(tok)
        k = min(length, SHOWN)
        # an escape such as \U000e0001 shows 10 characters for one
        while quoted and len(repr(tok[:k])) > SHOWN + 2:
            k -= 1
        head = repr(tok[:k]) if quoted else tok[:k]
    return head if k == length else f"{head}... ({length} characters)"
