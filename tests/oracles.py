"""Reference models the tests compare the library against.

Each one is deliberately naive and must stay independent of the code it
cross-checks.
"""

from frameguard.frame_math import ADDRESS_MASK, MAX_FRAME_LOG, RegionError, slot_base
from frameguard.metadata import ArenaRangeError
from frameguard.tagging import MAX_BIG_TAG, MIN_BIG_TAG, TagError, decode, is_untagged
from frameguard.verdicts import VerdictKind


def wrapper_frame_oracle(lo: int, hi: int) -> int:
    """Reference wrapper-frame log-size found by linear scan.

    The smallest n whose 2**n-sized buckets put lo and hi in the same
    bucket.  Exists to cross-check frame_math.wrapper_frame.
    """
    if lo < 0 or hi > ADDRESS_MASK or lo > hi:
        raise RegionError(f"bad region [{lo:#x}, {hi:#x}]")
    for n in range(MAX_FRAME_LOG + 1):
        if lo >> n == hi >> n:
            return n
    raise AssertionError("unreachable for regions inside the 48-bit space")


def header_lookup_oracle(table, tagged: int) -> int:
    """Reference DivisionTable.header_lookup built from decode, slot_base
    and the table's entry_index and get_entry.

    Exists to cross-check the shifts and masks header_lookup splits a
    tag with; it raises what header_lookup raises.
    """
    flag, tag, addr = decode(tagged)
    if flag:
        return slot_base(addr) + tag
    if not MIN_BIG_TAG <= tag <= MAX_BIG_TAG:
        raise TagError(f"value {tagged:#x} carries no resolvable tag")
    division, slot = table.entry_index(addr, tag)
    return table.get_entry(division, slot)


def lookup_oracle(arena, tagged: int):
    """Reference Arena.lookup: (kind or None, record or None) from
    is_untagged, header_lookup_oracle and a scan of the arena's records."""
    if is_untagged(tagged):
        return VerdictKind.UNTRACKED, None
    try:
        header = header_lookup_oracle(arena.table, tagged)
    except ArenaRangeError:
        return VerdictKind.OUT_OF_FRAME, None
    record = next((r for r in arena.records if r.header_addr == header), None)
    if record is None and decode(tagged)[0]:
        return VerdictKind.OUT_OF_FRAME, None
    return None, record
