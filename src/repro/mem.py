"""Byte-addressable linear memory with a first-fit allocator.

Both the host interpreter and the simulated GPU global memory are built on
:class:`LinearMemory`.  Pointers in interpreted programs are integer byte
addresses into one of these spaces, which is what lets the reproduction
keep the paper's host-address -> device-address mapping tables (OMPi's
device data environments) completely faithful.

All loads/stores go through numpy dtypes so narrowing stores truncate the
way C does (e.g. storing 300 into a ``char``).  Bulk region access uses
views, not copies, per the HPC guide's "views, not copies" rule.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass

import numpy as np


class MemoryError_(Exception):
    """Out-of-memory or invalid access in a simulated memory space."""


def content_digest(data: bytes | bytearray | memoryview | np.ndarray) -> str:
    """sha256 hex digest of a buffer (dirty-tracking / resync gates)."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).view(np.uint8)
    return hashlib.sha256(data).hexdigest()


def _strides(n: int, step: int) -> np.ndarray:
    """Cached ``arange(n) * step`` used by the vector access paths."""
    key = (n, step)
    arr = _STRIDE_CACHE.get(key)
    if arr is None:
        arr = np.arange(n, dtype=np.int64) * step
        arr.flags.writeable = False
        _STRIDE_CACHE[key] = arr
    return arr


_STRIDE_CACHE: dict[tuple[int, int], np.ndarray] = {}


@dataclass
class _Block:
    addr: int
    size: int


class LinearMemory:
    """A contiguous byte-addressable memory of fixed capacity.

    Addresses start at ``base`` (never 0, so that 0 keeps its C meaning of
    NULL).  The allocator is a simple first-fit free list with coalescing —
    adequate for the allocation patterns of benchmark programs, and it
    makes double-free/overlap bugs detectable in tests.
    """

    def __init__(self, capacity: int, base: int = 0x1000, name: str = "mem"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.base = int(base)
        self.name = name
        self.buf = np.zeros(self.capacity, dtype=np.uint8)
        self._free: list[_Block] = [_Block(self.base, self.capacity)]
        self._allocated: dict[int, int] = {}  # addr -> size
        #: offset just past the highest byte ever allocated or written
        #: (through any method here, views included): every byte at or
        #: above it is still zero
        self.high_water = 0

    def _touch(self, end: int) -> None:
        if end > self.high_water:
            self.high_water = end

    # -- allocation ---------------------------------------------------------
    def alloc(self, size: int, align: int = 16) -> int:
        if size <= 0:
            size = 1
        for i, blk in enumerate(self._free):
            addr = (blk.addr + align - 1) // align * align
            pad = addr - blk.addr
            if blk.size >= size + pad:
                if pad:
                    self._free[i] = _Block(blk.addr, pad)
                    rest_addr, rest_size = addr + size, blk.size - size - pad
                    if rest_size:
                        self._free.insert(i + 1, _Block(rest_addr, rest_size))
                else:
                    if blk.size == size:
                        del self._free[i]
                    else:
                        self._free[i] = _Block(addr + size, blk.size - size)
                self._allocated[addr] = size
                self._touch(addr - self.base + size)
                return addr
        raise MemoryError_(
            f"{self.name}: out of memory allocating {size} bytes "
            f"(capacity {self.capacity})"
        )

    def free(self, addr: int) -> None:
        size = self._allocated.pop(addr, None)
        if size is None:
            raise MemoryError_(f"{self.name}: free of unallocated address {addr:#x}")
        keys = [b.addr for b in self._free]
        i = bisect.bisect_left(keys, addr)
        self._free.insert(i, _Block(addr, size))
        # coalesce with neighbours
        merged: list[_Block] = []
        for blk in self._free:
            if merged and merged[-1].addr + merged[-1].size == blk.addr:
                merged[-1] = _Block(merged[-1].addr, merged[-1].size + blk.size)
            else:
                merged.append(blk)
        self._free = merged

    def allocated_size(self, addr: int) -> int | None:
        return self._allocated.get(addr)

    @property
    def bytes_in_use(self) -> int:
        return sum(self._allocated.values())

    # -- access ---------------------------------------------------------------
    def _check(self, addr: int, size: int) -> int:
        off = addr - self.base
        if off < 0 or off + size > self.capacity:
            raise MemoryError_(
                f"{self.name}: access of {size} bytes at {addr:#x} out of range"
            )
        return off

    def load(self, addr: int, dtype: np.dtype):
        """Load one scalar of ``dtype`` at ``addr``."""
        dt = np.dtype(dtype)
        off = self._check(addr, dt.itemsize)
        return self.buf[off : off + dt.itemsize].view(dt)[0]

    def store(self, addr: int, dtype: np.dtype, value) -> None:
        dt = np.dtype(dtype)
        off = self._check(addr, dt.itemsize)
        if off + dt.itemsize > self.high_water:   # inline _touch: hot path
            self.high_water = off + dt.itemsize
        if dt.kind in "iu":
            # Wrap like a C narrowing conversion (two's complement).
            bits = 8 * dt.itemsize
            v = int(value) & ((1 << bits) - 1)
            if dt.kind == "i" and v >= 1 << (bits - 1):
                v -= 1 << bits
            self.buf[off : off + dt.itemsize].view(dt)[0] = v
        else:
            self.buf[off : off + dt.itemsize].view(dt)[0] = value

    def view(self, addr: int, count: int, dtype: np.dtype) -> np.ndarray:
        """A writable numpy view of ``count`` elements at ``addr``."""
        dt = np.dtype(dtype)
        off = self._check(addr, count * dt.itemsize)
        end = off + count * dt.itemsize
        if end > self.high_water:                 # inline _touch: hot path
            self.high_water = end
        return self.buf[off:end].view(dt)

    def locate(self, addrs: np.ndarray, dt: np.dtype,
               what: str = "access") -> tuple:
        """Where the ``dt`` elements at per-lane byte addresses ``addrs``
        live, bounds-checked: ``(array, key, end)`` with ``array[key]``
        those elements (:meth:`read`/:meth:`write` take the pair) and
        ``end`` the offset just past the highest byte.  A constant-stride
        access becomes one strided slice, an aligned one an element
        index; an unaligned one indexes the bytes of ``buf``, one row per
        lane.  A caller that repeats the access at the same addresses
        can keep the result."""
        offs = addrs.astype(np.int64) - self.base
        n = offs.size
        size = dt.itemsize
        if n > 1:
            start = int(offs[0])
            step = int(offs[1]) - start
            if (step > 0 and step % size == 0
                    and int(offs[-1]) - start == (n - 1) * step
                    and (offs - start == _strides(n, step)).all()):
                # constant stride: step > 0 makes offs[0]/offs[-1] the
                # exact min/max, so the range check needs no reductions
                end = start + (n - 1) * step + size
                if start < 0 or end > self.capacity:
                    raise MemoryError_(f"{self.name}: vector {what} out of range")
                return (self.buf[start:end].view(dt),
                        slice(None, None, step // size), end)
        end = int(offs.max()) + size if n else 0
        if n and (offs.min() < 0 or end > self.capacity):
            raise MemoryError_(f"{self.name}: vector {what} out of range")
        if not size & (size - 1) and not (offs & (size - 1)).any():
            # aligned: index whole elements (one lane per index)
            return (self.buf[:self.capacity - self.capacity % size].view(dt),
                    offs // size, end)
        return self.buf, offs[:, None] + np.arange(size, dtype=np.int64), end

    @staticmethod
    def read(array: np.ndarray, key, dt: np.dtype) -> np.ndarray:
        """The elements a :meth:`locate` result names, as a new array (a
        register value must not alias the backing buffer)."""
        got = array[key]
        if type(key) is slice:
            return got.copy()
        if got.ndim == 2:                       # one byte row per lane
            return got.view(dt).reshape(-1)
        return got

    def write(self, array: np.ndarray, key, end: int, dt: np.dtype,
              values) -> None:
        """Store ``values`` to the elements a :meth:`locate` result names.
        Lanes store in lane order, so intra-warp write conflicts resolve
        with the highest lane winning — CUDA leaves the winner undefined;
        picking a deterministic one keeps runs reproducible."""
        if end > self.high_water:
            self.high_water = end
        if type(key) is not np.ndarray:         # a slice or one element
            array[key] = values
        elif key.ndim == 2:
            array[key] = np.ascontiguousarray(values, dtype=dt).view(
                np.uint8).reshape(key.shape)
        else:
            array[key] = np.ascontiguousarray(values, dtype=dt)

    def gather(self, addrs: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Vector load at per-lane byte addresses (SIMT warp loads)."""
        dt = np.dtype(dtype)
        array, key, _end = self.locate(addrs, dt, "load")
        return self.read(array, key, dt)

    def scatter(self, addrs: np.ndarray, dtype: np.dtype, values: np.ndarray) -> None:
        """Vector store at per-lane byte addresses (SIMT warp stores)."""
        dt = np.dtype(dtype)
        self.write(*self.locate(addrs, dt, "store"), dt, values)

    def snapshot_blocks(self) -> dict[int, np.ndarray]:
        """Copies of all allocated blocks, keyed by address (verify mode)."""
        out: dict[int, np.ndarray] = {}
        for addr, size in self._allocated.items():
            off = addr - self.base
            out[addr] = self.buf[off : off + size].copy()
        return out

    def restore_blocks(self, blocks: dict[int, np.ndarray]) -> None:
        """Restore block contents taken by :meth:`snapshot_blocks`.

        Only block *contents* are restored; the allocation map is left as
        is (verify mode snapshots/restores around a region that must not
        leak allocations either way).
        """
        for addr, data in blocks.items():
            off = addr - self.base
            self._touch(off + data.size)
            self.buf[off : off + data.size] = data

    def copy_out(self, addr: int, size: int) -> bytes:
        off = self._check(addr, size)
        return self.buf[off : off + size].tobytes()

    def copy_in(self, addr: int, data: bytes | np.ndarray) -> None:
        data = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
        off = self._check(addr, data.size)
        self._touch(off + data.size)
        self.buf[off : off + data.size] = data

    def copy_within(self, dst: int, src: int, size: int) -> None:
        so = self._check(src, size)
        do = self._check(dst, size)
        self._touch(do + size)
        self.buf[do : do + size] = self.buf[so : so + size]
