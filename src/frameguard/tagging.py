"""Packing and unpacking of 64-bit tagged pointer values.

Layout, most significant bits first: 1 flag bit, 15 tag bits, 48
address bits.  flag == 1 marks a small-framed object; the tag then
holds the byte offset from the address's slot base to the object
header.  flag == 0 with tag in [16, 48] marks a big-framed object; the
tag then holds N, the log2 of the wrapper frame size.  A raw value
below 2**48 has flag 0 and tag 0 and is an ordinary untracked address;
consumers must accept those and pass them through unchecked.
"""

from __future__ import annotations

from .frame_math import ADDRESS_MASK, SLOT_BITS, slot_base

FLAG_BIT = 1 << 63
TAG_SHIFT = 48
TAG_MASK = 0x7FFF
MIN_BIG_TAG = SLOT_BITS + 1    # frames up to a slot are slot-addressed instead
MAX_BIG_TAG = 48    # no wrapper frame exceeds the 48-bit space


class TagError(ValueError):
    """Arguments violate the tagged-pointer layout."""


def _check_address(addr: int, what: str) -> None:
    if addr < 0 or addr > ADDRESS_MASK:
        raise TagError(f"{what} {addr:#x} outside the 48-bit space")


def encode_small(header_addr: int, target_addr: int) -> int:
    """Tag target_addr with the slot offset of its object's header.

    Both addresses must share a slot.  For a small-framed object the
    whole header-through-padding region sits inside one slot, so any
    in-region target qualifies and all of them carry the same tag.
    """
    _check_address(header_addr, "header address")
    _check_address(target_addr, "target address")
    if slot_base(header_addr) != slot_base(target_addr):
        raise TagError(
            f"header {header_addr:#x} and target {target_addr:#x} lie in "
            "different slots; the allocation is not small-framed"
        )
    offset = header_addr - slot_base(header_addr)
    return FLAG_BIT | (offset << TAG_SHIFT) | target_addr


def encode_big(n: int, target_addr: int) -> int:
    """Tag target_addr with its wrapper frame's log-size n, flag clear."""
    if not MIN_BIG_TAG <= n <= MAX_BIG_TAG:
        raise TagError(f"frame log {n} outside [{MIN_BIG_TAG}, {MAX_BIG_TAG}]")
    _check_address(target_addr, "target address")
    return (n << TAG_SHIFT) | target_addr


def untag(p: int) -> int:
    """Strip the top 16 bits.  Total: untagged values pass through."""
    return p & ADDRESS_MASK


def decode(p: int) -> tuple[int, int, int]:
    """Split a raw pointer value into (flag, tag, address)."""
    return p >> 63, (p >> TAG_SHIFT) & TAG_MASK, p & ADDRESS_MASK


def rebase(p: int, new_addr: int) -> int:
    """Move the address field of p, keeping flag and tag intact.

    In-slot or in-frame movement never requires a tag update; that is
    the point of the encoding.
    """
    if new_addr >> TAG_SHIFT:    # negative, or past the 48-bit space
        raise TagError(f"address {new_addr:#x} outside the 48-bit space")
    return (p & ~ADDRESS_MASK) | new_addr
