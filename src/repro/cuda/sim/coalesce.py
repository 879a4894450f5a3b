"""Global-memory coalescing model.

Maxwell services a warp's global access in 32-byte sectors: the number of
DRAM transactions for one warp-wide load/store equals the number of
distinct 32-byte segments spanned by the active lanes.  A fully coalesced
float32 access by 32 lanes touches 4 segments; a fully scattered one
touches 32.  This count feeds the timing model's memory term.
"""

from __future__ import annotations

import numpy as np

SEGMENT_BYTES = 32
_SHIFT = np.uint64(SEGMENT_BYTES.bit_length() - 1)
#: where a lane's warp goes in a (warp, segment) key
_WARP_SHIFT = np.uint64(58)
#: itemsize -> the address bits below its alignment
_LOW_BITS = {n: np.uint64(n - 1) for n in range(1, SEGMENT_BYTES + 1)}


def transactions(addrs: np.ndarray, itemsize: int, mask: np.ndarray) -> int:
    """Number of 32-byte segments touched by the active lanes."""
    if itemsize <= SEGMENT_BYTES:
        # an element can span at most two segments: count the distinct
        # values of first∪last.  At warp width (32 lanes) plain Python
        # integers beat numpy's per-call dispatch by a wide margin.  When
        # the active addresses are nondecreasing (every warp-linear access
        # pattern), both sequences are sorted and a running high-water
        # count needs no set at all.
        span = itemsize - 1
        count = 0
        prev_a = -1
        prev_seg = -1
        for a, on in zip(addrs.tolist(), mask.tolist()):
            if not on:
                continue
            if a < prev_a:
                break  # non-monotonic: fall through to the set-based count
            prev_a = a
            f = a // SEGMENT_BYTES
            l = (a + span) // SEGMENT_BYTES
            if f > prev_seg:
                count += 2 if l > f else 1
            elif l > prev_seg:
                count += 1
            prev_seg = l
        else:
            return count
        segs = set()
        add = segs.add
        for a, on in zip(addrs.tolist(), mask.tolist()):
            if on:
                add(a // SEGMENT_BYTES)
                add((a + span) // SEGMENT_BYTES)
        return len(segs)
    if not mask.any():  # pragma: no cover - no >32B elements in this repro
        return 0
    active = addrs[mask].astype(np.int64)
    first = active // SEGMENT_BYTES
    last = (active + itemsize - 1) // SEGMENT_BYTES
    segs = np.concatenate(
        [np.arange(f, l + 1) for f, l in zip(first, last)]
    )  # pragma: no cover
    return int(np.unique(segs).size)  # pragma: no cover


def row_transactions(addrs: np.ndarray, warps, itemsize: int) -> int:
    """:func:`transactions` summed over warps, in a few whole-vector numpy
    operations: the number of distinct (warp, segment) pairs touched.

    ``addrs`` (uint64) lists the *active* lanes' addresses in lane order
    and ``warps`` each of those lanes' warp (``None``: all one warp).
    Addresses stay below 2**63 and warps below 32, so a (warp, segment)
    pair packs into one nonnegative int64 key.
    """
    if itemsize > SEGMENT_BYTES:  # pragma: no cover - no >32B elements
        ws = np.zeros(addrs.size) if warps is None else warps
        rows = [addrs[ws == w] for w in np.unique(ws)]
        return sum(transactions(a, itemsize, np.ones(a.size, bool))
                   for a in rows)
    if not addrs.size:
        return 0
    keys = addrs >> _SHIFT
    # a power-of-two element aligned to its size never straddles a segment
    straddle = bool(itemsize & (itemsize - 1)) or (
        itemsize > 1 and bool((addrs & _LOW_BITS[itemsize]).any()))
    if straddle:
        keys = np.concatenate((keys, (addrs + np.uint64(itemsize - 1))
                               >> _SHIFT))
        if warps is not None:
            warps = np.concatenate((warps, warps))
    if warps is not None:
        keys |= np.left_shift(warps, _WARP_SHIFT, dtype=np.uint64)
    if not straddle:
        # lanes in warp order whose segments never decrease (every linear
        # access pattern) count one plus their key changes
        step = keys[1:].view(np.int64) - keys[:-1].view(np.int64)
        if not step.size or step.min() >= 0:
            return 1 + int(np.count_nonzero(step))
    return int(np.unique(keys).size)
