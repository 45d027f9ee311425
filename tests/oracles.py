"""Reference models the tests compare the library against.

Each one is deliberately naive and must stay independent of the code it
cross-checks.
"""

from frameguard.frame_math import ADDRESS_MASK, MAX_FRAME_LOG, RegionError


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
