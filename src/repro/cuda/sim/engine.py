"""Functional engine: block scheduling, named barriers, memory routing.

The Jetson Nano GPU has a single streaming multiprocessor, so thread
blocks execute one at a time; within a block, warps are scheduled
cooperatively (each warp is a generator that yields at barriers and in
spin loops).  Named barriers implement PTX ``bar.sync b, n`` semantics:
an arriving warp contributes 32 threads towards the count; release happens
when ``ceil(n / 32)`` warps have arrived (counts must be multiples of the
warp size — enforced, since the paper's runtime rounds N up to W*ceil(N/W)).

A compiled kernel whose warps cannot synchronise
(:meth:`~repro.cuda.sim.compile.CompiledKernel.lockstep`) instead runs each
block's W warps in lockstep, as one activation over 32·W lanes.  That
equals the round-robin schedule only if the warps do not talk through
memory, so a :class:`RaceGuard` watches the run: if one warp wrote a
global or shared byte that another warp of the block read or wrote, the
block is rolled back and re-run one warp at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Iterable, Optional

import numpy as np

from repro.cuda.device import DeviceProperties, Dim3
from repro.cuda.ptx.ir import KernelIR, LoopOp
from repro.cuda.ptx.lower import LOCAL_WINDOW_BASE, SHARED_WINDOW_BASE
from repro.cuda.sim.coalesce import (
    SEGMENT_BYTES, row_transactions, transactions,
)
from repro.cuda.sim.compile import CompiledExec, CompiledKernelCache
from repro.cuda.sim.warp import (
    WARP_SIZE, WarpExec, active_rows, loop_may_block,
)
from repro.mem import LinearMemory, MemoryError_
from repro.prof.activity import KernelExecActivity


class LaunchError(Exception):
    """Kernel execution failed (deadlock, bad barrier, resource limits)."""


@dataclass
class KernelStats:
    """Dynamic execution counters for one kernel launch.

    ``instructions`` counts warp-level dispatches (the unit the timing
    model prices); ALU counters additionally track active-lane work.
    """

    #: the dynamic counters: the fields a sampled launch extrapolates to
    #: the whole grid (a ClassVar, so not a field itself)
    COUNTERS: ClassVar[tuple[str, ...]] = (
        "instructions", "alu_f32", "alu_f64", "alu_int", "special_ops",
        "load_instructions", "store_instructions",
        "global_mem_instructions", "global_transactions",
        "shared_accesses", "local_accesses", "barriers", "atomics",
        "divergent_branches", "loop_iterations", "spins",
    )

    instructions: int = 0
    alu_f32: int = 0
    alu_f64: int = 0
    alu_int: int = 0
    special_ops: int = 0
    load_instructions: int = 0
    store_instructions: int = 0
    #: loads/stores that hit device DRAM (latency-relevant); the rest are
    #: shared/local (on-chip or L1-cached)
    global_mem_instructions: int = 0
    global_transactions: int = 0
    shared_accesses: int = 0
    local_accesses: int = 0
    barriers: int = 0
    atomics: int = 0
    divergent_branches: int = 0
    loop_iterations: int = 0
    spins: int = 0
    blocks_launched: int = 0
    warps_launched: int = 0
    threads_launched: int = 0
    #: filled by the launcher
    grid: tuple[int, int, int] = (1, 1, 1)
    block: tuple[int, int, int] = (1, 1, 1)
    smem_per_block: int = 0
    registers_per_thread: int = 32

    def note_alu(self, dtype: str, active: int, special: bool = False) -> None:
        self.instructions += 1
        if special:
            self.special_ops += active
        elif dtype == "f32":
            self.alu_f32 += active
        elif dtype == "f64":
            self.alu_f64 += active
        else:
            self.alu_int += active

    def merge_scaled(self, other: "KernelStats", factor: float) -> None:
        """Accumulate ``other`` scaled by ``factor`` (representative-block
        extrapolation in the timing engine)."""
        for name in self.COUNTERS:
            setattr(self, name, getattr(self, name) + int(getattr(other, name) * factor))


class BlockCtx:
    """Per-block execution context: shared memory, local memory, and a
    scratch area for the device runtime's per-block state."""

    def __init__(self, block_idx, block_dim, grid_dim, smem_size: int,
                 local_per_thread: int):
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.smem = LinearMemory(max(smem_size, 16), base=SHARED_WINDOW_BASE,
                                 name="shared")
        self.nthreads = nthreads = block_dim[0] * block_dim[1] * block_dim[2]
        self.local_per_thread = local_per_thread
        if local_per_thread:
            self.lmem = LinearMemory(local_per_thread * nthreads,
                                     base=LOCAL_WINDOW_BASE, name="local")
        else:
            self.lmem = None
        #: device-runtime per-block state (shared-memory stack pointer,
        #: registered parallel region, section counters, ...)
        self.devrt: dict = {}

    def local_base(self, lane_linear: np.ndarray) -> np.ndarray:
        return (LOCAL_WINDOW_BASE
                + lane_linear.astype(np.uint64) * np.uint64(self.local_per_thread))


class RaceGuard:
    """Watches one lockstep block run for communication between warps.

    Every global and shared access is recorded with the warp of each
    active lane, and every global store first journals the bytes it
    overwrites.  :meth:`conflict` is exact: it reports whether some byte
    written by one warp was read or written by another warp of the run.
    Shared and global addresses live in disjoint windows, so one address
    space covers both.

    The check works on *spans*: byte ranges ``[start, end)`` tagged with a
    warp and whether it wrote them, merged per (warp, kind) so a span set
    is exactly the bytes each warp read and wrote.  At the end of the run
    the recorded accesses whose byte range meets no written range are
    dropped and identical accesses collapse before they become spans.
    A very long run folds its records into spans as it goes, so the
    guard's memory stays bounded by the bytes the block touches.
    """

    #: recorded lanes held before they are folded into spans
    FOLD_LANES = 1 << 22

    def __init__(self):
        self.records: list = []    # (addrs, warps, itemsize, write)
        self.lanes = 0
        self.spans = _spans([])    # folded records
        self.undo: list = []       # (space, addrs, dtype, overwritten)

    def note(self, addrs: np.ndarray, warps: np.ndarray, itemsize: int,
             write: bool) -> None:
        self.records.append((addrs, warps, itemsize, write))
        self.lanes += addrs.size
        if self.lanes > self.FOLD_LANES:
            self.spans = _merge(_concat(self.spans, _spans(self.records)))
            self.records, self.lanes = [], 0

    def conflict(self) -> bool:
        recs = self.records
        folded = self.spans
        written = folded[3].astype(bool)
        if not written.any() and not any(rec[3] for rec in recs):
            return False
        live = []
        if recs:
            # each record's byte range [lo, hi); keep the writes and the
            # reads that meet a written range
            sizes = np.array([rec[0].size for rec in recs])
            flat = np.concatenate([rec[0] for rec in recs]).astype(np.int64)
            starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            lo = np.minimum.reduceat(flat, starts)
            hi = np.maximum.reduceat(flat, starts) + np.array(
                [rec[2] for rec in recs])
            writes = np.array([rec[3] for rec in recs], dtype=bool)
            w_lo = np.concatenate((lo[writes], folded[1][written]))
            w_hi = np.concatenate((hi[writes], folded[2][written]))
            keep = writes | _meets(lo, hi, w_lo, w_hi)
            unique = {}
            for k in np.flatnonzero(keep):
                addrs, warps, itemsize, write = recs[k]
                key = (itemsize, addrs.tobytes(), warps.tobytes())
                prev = unique.get(key)
                unique[key] = (addrs, warps, itemsize,
                               write or (prev is not None and prev[3]))
            live = list(unique.values())
        return _clash(_merge(_concat(folded, _spans(live))))

    def rollback(self) -> None:
        """Restore every journalled global byte, newest store first."""
        for space, addrs, dtype, old in reversed(self.undo):
            space.scatter(addrs, dtype, old)
        self.undo.clear()


def _spans(records) -> tuple:
    """The recorded lanes as spans: (warp, start, end, wrote) arrays.  A
    lane that continues the previous lane's bytes for the same warp and
    kind extends its span, so a warp's contiguous access is one span."""
    if not records:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z, z
    addr = np.concatenate([rec[0] for rec in records]).astype(np.int64)
    warp = np.concatenate([rec[1] for rec in records]).astype(np.int64)
    lanes = [rec[0].size for rec in records]
    size = np.repeat(np.array([rec[2] for rec in records], np.int64), lanes)
    wrote = np.repeat(np.array([rec[3] for rec in records], np.int64), lanes)
    first = np.flatnonzero(np.concatenate(([True], (
        (addr[1:] != addr[:-1] + size[:-1]) | (warp[1:] != warp[:-1])
        | (wrote[1:] != wrote[:-1])))))
    last = np.append(first[1:], addr.size) - 1
    return warp[first], addr[first], addr[last] + size[last], wrote[first]


def _concat(a: tuple, b: tuple) -> tuple:
    return tuple(np.concatenate((x, y)) for x, y in zip(a, b))


#: spans of one (warp, kind) group are kept apart from the next group's by
#: this offset (shared and global addresses stay below it)
_GROUP = np.int64(1) << np.int64(48)


def _merge(spans: tuple) -> tuple:
    """Merge overlapping and touching spans of the same (warp, kind)."""
    warp, start, end, wrote = spans
    if not start.size:
        return spans
    # sort by (warp, kind, start); the group offset keeps groups apart
    offset = (warp * 2 + wrote) * _GROUP
    order = np.argsort(offset + start, kind="stable")
    offset = offset[order]
    start, end = start[order] + offset, end[order] + offset
    reach = np.maximum.accumulate(end)
    first = np.flatnonzero(np.concatenate(([True], start[1:] > reach[:-1])))
    last = np.append(first[1:], start.size) - 1
    g = offset[first]
    return (g // (2 * _GROUP), start[first] - g, reach[last] - g,
            (g // _GROUP) % 2)


def _meets(lo: np.ndarray, hi: np.ndarray, w_lo: np.ndarray,
           w_hi: np.ndarray) -> np.ndarray:
    """For each range [lo, hi), whether it meets any range [w_lo, w_hi)."""
    if not w_lo.size:
        return np.zeros(lo.size, dtype=bool)
    order = np.argsort(w_lo, kind="stable")
    w_lo = w_lo[order]
    reach = np.maximum.accumulate(w_hi[order])
    # the last range starting below hi reaches furthest among those
    k = np.searchsorted(w_lo, hi, side="left") - 1
    return (k >= 0) & (reach[np.maximum(k, 0)] > lo)


def _clash(spans: tuple) -> bool:
    """Whether a byte one warp wrote was read or written by another."""
    warp, start, end, wrote = spans
    wrote = wrote.astype(bool)
    for w in np.unique(warp[wrote]):
        mine = warp == w
        if _meets(start[wrote & mine], end[wrote & mine],
                  start[~mine], end[~mine]).any():
            return True
    return False


_GLOBAL, _SHARED, _LOCAL = range(3)


class _Access:
    """One resolved memory access: the address and mask objects and the
    dtype it was resolved for, its space and ``kind``, where its elements
    live (``array[key]``, ``end`` as :meth:`LinearMemory.locate`), and
    what it adds to the counters: ``n`` warp-level instructions, ``txns``
    global transactions, ``lanes`` active lanes, plus the ``active``
    addresses and their ``warps`` the race guard records.  ``one`` marks
    a 0-d address (one element for every lane); ``addrs_copy`` is what a
    guarded store journals."""

    __slots__ = ("addrs", "mask", "dtype", "space", "kind", "array", "key",
                 "end", "full", "one", "n", "txns", "lanes", "active",
                 "warps", "addrs_copy")

    def __init__(self, addrs, mask: np.ndarray, dtype: np.dtype):
        self.addrs = addrs
        self.mask = mask
        self.dtype = dtype
        self.one = False
        self.txns = 0
        self.warps = None


class FunctionalEngine:
    """Executes kernels functionally on the simulated device."""

    def __init__(
        self,
        device: DeviceProperties,
        gmem: LinearMemory,
        intrinsics: Optional[dict[str, Callable]] = None,
        module_globals: Optional[dict[str, int]] = None,
        fastpath: str = "off",
        compile_cache: Optional[CompiledKernelCache] = None,
        recorder=None,
    ):
        if fastpath not in ("on", "off", "verify"):
            raise ValueError(f"bad fastpath mode {fastpath!r}")
        self.device = device
        self.gmem = gmem
        self.intrinsics = intrinsics or {}
        self.module_globals = module_globals or {}
        self.fastpath = fastpath
        self.compile_cache = (compile_cache if compile_cache is not None
                              else CompiledKernelCache())
        #: optional repro.prof.activity.ActivityRecorder: every functional
        #: execution emits one kernel_exec record with the dynamic counters
        #: of what actually ran.  The record is produced here — above the
        #: tree-walk/compiled split — so both execution paths emit
        #: byte-identical records (asserted by tests/test_prof.py).
        self.recorder = recorder
        self.stdout: list[str] = []
        self.stats = KernelStats()
        self._loop_block_cache: dict[int, bool] = {}
        #: the race guard of the lockstep block run in progress, if any
        self.guard: Optional[RaceGuard] = None

    # -- memory routing ------------------------------------------------------
    def global_addr(self, name: str) -> int:
        try:
            return self.module_globals[name]
        except KeyError:
            raise LaunchError(f"unresolved device global {name!r}") from None

    def resolve_space(self, warp: WarpExec, addr: int) -> LinearMemory:
        if self.gmem.base <= addr < self.gmem.base + self.gmem.capacity:
            return self.gmem
        block = warp.block
        if SHARED_WINDOW_BASE <= addr < SHARED_WINDOW_BASE + block.smem.capacity:
            return block.smem
        if block.lmem is not None and \
                LOCAL_WINDOW_BASE <= addr < LOCAL_WINDOW_BASE + block.lmem.capacity:
            return block.lmem
        raise LaunchError(f"kernel accessed unmapped address {addr:#x}")

    def mem_load(self, warp: WarpExec, addrs, dtype: np.dtype,
                 mask: np.ndarray, plan: Optional[list] = None):
        """Load ``dtype`` at each active lane's address.  A 0-d address
        is one element every lane reads (the result is that element); a
        ``plan`` (a one-slot list) keeps the resolved access for the next
        call with the same address and mask objects (see :class:`_Access`)."""
        try:
            acc = self._access(warp, addrs, dtype, mask, plan)
        except MemoryError_:
            if warp.width == WARP_SIZE:
                raise
            # the warps of a block-wide access left the first lane's
            # space: each warp resolves (or fails) on its own
            a = np.broadcast_to(np.asarray(addrs, dtype=np.uint64), mask.shape)
            out = np.zeros(mask.size, dtype=dtype)
            for r, lanes in active_rows(mask):
                out[lanes] = self.mem_load(warp.row(r), a[lanes], dtype,
                                           mask[lanes])
            return out
        if acc is None:
            # fully predicated-off access (divergent warp): no instruction
            # issues, no transaction is counted — and addrs may be garbage,
            # so resolve_space must not look at them
            return (dtype.type(0) if np.ndim(addrs) == 0
                    else np.zeros(mask.size, dtype=dtype))
        self._count(acc, False)
        got = acc.space.read(acc.array, acc.key, dtype)
        if acc.full:
            return got
        out = np.zeros(mask.size, dtype=dtype)
        out[mask] = got
        return out

    def mem_store(self, warp: WarpExec, addrs, dtype: np.dtype, values,
                  mask: np.ndarray, plan: Optional[list] = None) -> None:
        """Store ``values`` at each active lane's address; a 0-d address
        takes the highest active lane's value (the lane that would win a
        lane-order scatter).  ``plan`` as for :meth:`mem_load`."""
        try:
            acc = self._access(warp, addrs, dtype, mask, plan)
        except MemoryError_:
            if warp.width == WARP_SIZE:
                raise
            a = np.broadcast_to(np.asarray(addrs, dtype=np.uint64), mask.shape)
            v = np.broadcast_to(np.asarray(values), mask.shape)
            for r, lanes in active_rows(mask):
                self.mem_store(warp.row(r), a[lanes], dtype, v[lanes],
                               mask[lanes])
            return
        if acc is None:
            return  # predicated off: no instruction, no transaction
        v = np.asarray(values)
        if acc.one:
            if v.ndim:
                v = v[np.flatnonzero(mask)[-1]]
        else:
            if v.shape != mask.shape:
                v = np.broadcast_to(v, mask.shape)
            if not acc.full:
                v = v[mask]
        if v.dtype.kind == "f" and dtype.kind in "iu":
            v = np.trunc(v)
        v = v.astype(dtype, casting="unsafe")
        space = acc.space
        guard = self.guard
        if guard is not None and acc.kind == _GLOBAL:
            # journal the bytes about to be overwritten
            guard.undo.append((space, acc.addrs_copy, dtype, np.atleast_1d(
                space.read(acc.array, acc.key, dtype))))
        space.write(acc.array, acc.key, acc.end, dtype, v)
        self._count(acc, True)

    def _access(self, warp: WarpExec, addrs, dtype: np.dtype,
                mask: np.ndarray, plan: Optional[list]):
        """The resolved access of ``addrs`` under ``mask`` (None when no
        lane is active): its space, where its elements live and what it
        adds to the counters.  A plan's access is reused only for the
        same address and mask objects and dtype; compiled loops pass one
        for an address they hoisted out of a trip whose mask is fixed."""
        if plan is not None:
            acc = plan[0]
            if (acc is not None and acc.addrs is addrs and acc.mask is mask
                    and acc.dtype is dtype):
                return acc
        on = np.count_nonzero(mask)
        if not on:
            return None
        acc = _Access(addrs, mask, dtype)
        size = dtype.itemsize
        guard = self.guard
        if np.ndim(addrs) == 0:
            # one address: one element read or written for every lane
            addr = int(np.asarray(addrs, dtype=np.uint64))
            acc.space = space = self.resolve_space(warp, addr)
            off = space._check(addr, size)
            acc.array, acc.key, acc.end = (
                space.buf[off:off + size].view(dtype), 0, off + size)
            acc.one = acc.full = True
            if guard is None:
                acc.n = warp.rows(mask)
            else:
                # one span per active warp
                row_on = mask.reshape(-1, WARP_SIZE).any(axis=1)
                acc.warps = warp.warpid[::WARP_SIZE][row_on]
                acc.n = acc.warps.size
                acc.active = np.full(acc.n, addr, dtype=np.uint64)
                acc.addrs_copy = acc.active[:1]
            acc.txns = acc.n * ((addr + size - 1) // SEGMENT_BYTES
                                - addr // SEGMENT_BYTES + 1)
        else:
            a = np.asarray(addrs, dtype=np.uint64)
            if a.shape != mask.shape:
                a = np.broadcast_to(a, mask.shape)
            acc.full = full = on == mask.size
            # a full-mask access may alias a register: the guard keeps a
            # copy
            active = (np.array(a) if guard is not None else a) if full \
                else a[mask]
            acc.addrs_copy = acc.active = active
            acc.space = space = self.resolve_space(warp, int(active[0]))
            acc.array, acc.key, acc.end = space.locate(active, dtype)
            if guard is None:
                acc.n = warp.rows(mask)
            else:
                # the active lanes' warps, ascending (lanes are in warp order)
                acc.warps = warps = (warp.warpid if full
                                     else warp.warpid[mask])
                acc.n = (warp.width // WARP_SIZE if full
                         else 1 if warps[0] == warps[-1] else warp.rows(mask))
            if space is self.gmem:
                if isinstance(warp, CompiledExec):
                    acc.txns = row_transactions(
                        active, acc.warps if acc.n > 1 else None, size)
                else:   # the tree-walker keeps the oracle's per-warp walk
                    acc.txns = transactions(a, size, mask)
        acc.lanes = int(on)
        space = acc.space
        acc.kind = (_GLOBAL if space is self.gmem
                    else _SHARED if space.name == "shared" else _LOCAL)
        if plan is not None:
            plan[0] = acc
        return acc

    def _count(self, acc: "_Access", write: bool) -> None:
        """Count one access and, in a lockstep run, record it for the
        race guard (local memory is per-thread: no warp can race there)."""
        stats = self.stats
        n = acc.n
        stats.instructions += n
        if write:
            stats.store_instructions += n
        else:
            stats.load_instructions += n
        if acc.kind == _GLOBAL:
            stats.global_mem_instructions += n
            stats.global_transactions += acc.txns
        elif acc.kind == _SHARED:
            stats.shared_accesses += acc.lanes
        else:
            stats.local_accesses += acc.lanes
            return
        if self.guard is not None:
            self.guard.note(acc.active, acc.warps, acc.dtype.itemsize, write)

    # -- loop classification -----------------------------------------------------
    def loop_may_block(self, loop: LoopOp) -> bool:
        cached = self._loop_block_cache.get(id(loop))
        if cached is None:
            cached = self._loop_block_cache[id(loop)] = loop_may_block(loop)
        return cached

    # -- launch ----------------------------------------------------------------
    def launch(
        self,
        kernel: KernelIR,
        grid,
        block,
        params: list,
        only_blocks: Optional[Iterable[tuple[int, int, int]]] = None,
        only_warps: Optional[set[int]] = None,
    ) -> KernelStats:
        compiled = None
        if self.fastpath != "off":
            compiled = self.compile_cache.get(kernel)
        if compiled is not None and self.fastpath == "verify":
            stats = self._launch_verified(kernel, grid, block, params,
                                          only_blocks, only_warps, compiled)
        else:
            stats = self._launch(kernel, grid, block, params, only_blocks,
                                 only_warps, compiled)
        if self.recorder is not None:
            self.recorder.emit(KernelExecActivity(
                name=kernel.name, grid=stats.grid, block=stats.block,
                blocks_run=stats.blocks_launched,
                warps_run=stats.warps_launched,
                instructions=stats.instructions,
                global_transactions=stats.global_transactions,
                divergent_branches=stats.divergent_branches,
                barriers=stats.barriers,
                shared_accesses=stats.shared_accesses,
                local_accesses=stats.local_accesses,
                spins=stats.spins,
            ))
        return stats

    def _launch_verified(self, kernel, grid, block, params, only_blocks,
                         only_warps, compiled) -> KernelStats:
        """Differential execution: run the compiled fast path, roll global
        memory back, run the tree-walker, and require bit-identical global
        memory, stdout and ``KernelStats``.

        Only the prefix of global memory below its high-water mark is
        copied and compared: every byte above the mark is zero in both
        runs, and the arena is gigabytes while a launch touches little."""
        gmem = self.gmem
        mark = gmem.high_water
        buf_snap = gmem.buf[:mark].copy()
        free_snap = list(gmem._free)
        alloc_snap = dict(gmem._allocated)
        out_mark = len(self.stdout)
        fast = self._launch(kernel, grid, block, params, only_blocks,
                            only_warps, compiled)
        fast_mark = gmem.high_water
        fast_buf = gmem.buf[:fast_mark].copy()
        fast_out = self.stdout[out_mark:]
        gmem.buf[:mark] = buf_snap
        gmem.buf[mark:fast_mark] = 0
        gmem._free = free_snap
        gmem._allocated = alloc_snap
        del self.stdout[out_mark:]
        ref = self._launch(kernel, grid, block, params, only_blocks,
                           only_warps, None)
        problems = []
        # the mark never falls, so the reference run's mark is >= fast_mark
        if not (np.array_equal(gmem.buf[:fast_mark], fast_buf)
                and not gmem.buf[fast_mark:gmem.high_water].any()):
            problems.append("global memory")
        if self.stdout[out_mark:] != fast_out:
            problems.append("stdout")
        for fld in fields(KernelStats):
            if getattr(fast, fld.name) != getattr(ref, fld.name):
                problems.append(f"stats.{fld.name}")
        if problems:
            raise LaunchError(
                f"fast path diverged from tree-walk on kernel "
                f"{kernel.name!r}: {', '.join(problems)}"
            )
        return ref

    def _launch(
        self,
        kernel: KernelIR,
        grid,
        block,
        params: list,
        only_blocks: Optional[Iterable[tuple[int, int, int]]] = None,
        only_warps: Optional[set[int]] = None,
        compiled=None,
    ) -> KernelStats:
        grid = Dim3.of(grid)
        block = Dim3.of(block)
        self._validate_launch(kernel, grid, block)
        self.stats = stats = KernelStats()
        stats.grid = (grid.x, grid.y, grid.z)
        stats.block = (block.x, block.y, block.z)
        stats.smem_per_block = kernel.smem_static
        nthreads = block.count
        nwarps = (nthreads + WARP_SIZE - 1) // WARP_SIZE
        if only_blocks is None:
            blocks = (
                (bx, by, bz)
                for bz in range(grid.z)
                for by in range(grid.y)
                for bx in range(grid.x)
            )
        else:
            blocks = iter(only_blocks)
        picks = [w for w in range(nwarps)
                 if only_warps is None or w in only_warps]
        # representative-warp sampling (only_warps) is valid only for
        # kernels with no inter-warp communication (the caller checks)
        lockstep = bool(compiled is not None and picks
                        and compiled.lockstep(self.intrinsics))
        # the generated closures leave floating-point error handling to
        # this one context: C arithmetic wraps and produces inf/nan
        # silently, like the reference helpers' per-operation errstate
        with np.errstate(all="ignore"):
            self._run_blocks(kernel, grid, block, params, blocks, picks,
                             compiled, lockstep)
        return stats

    def _run_blocks(self, kernel, grid, block, params, blocks, picks,
                    compiled, lockstep) -> None:
        stats = self.stats
        cache = self.compile_cache
        nthreads = block.count
        if lockstep:
            lanes = np.concatenate([
                np.arange(w * WARP_SIZE, (w + 1) * WARP_SIZE, dtype=np.int64)
                for w in picks])
        for block_idx in blocks:
            if not (lockstep and self._run_lockstep(
                    compiled, self._block_ctx(kernel, block_idx, grid, block),
                    lanes, kernel, params)):
                ctx = self._block_ctx(kernel, block_idx, grid, block)
                self._run_block([self._warp(compiled, ctx, w, kernel, params)
                                 for w in picks])
                cache.warp_blocks += 1
            stats.blocks_launched += 1
            stats.warps_launched += len(picks)
            stats.threads_launched += nthreads

    def _warp(self, compiled, ctx: BlockCtx, w: int, kernel: KernelIR,
              params: list) -> WarpExec:
        """The executor of warp ``w`` run on its own (W = 1)."""
        lanes = np.arange(w * WARP_SIZE, (w + 1) * WARP_SIZE, dtype=np.int64)
        if compiled is None:
            return WarpExec(self, ctx, w, lanes, lanes < ctx.nthreads,
                            kernel, params)
        return CompiledExec(compiled, self, ctx, w, lanes,
                            lanes < ctx.nthreads, kernel, params)

    def _block_ctx(self, kernel: KernelIR, block_idx, grid: Dim3,
                   block: Dim3) -> BlockCtx:
        return BlockCtx(block_idx, (block.x, block.y, block.z),
                        (grid.x, grid.y, grid.z),
                        self.device.shared_mem_per_block, kernel.local_static)

    def _run_lockstep(self, compiled, ctx: BlockCtx, lanes: np.ndarray,
                      kernel: KernelIR, params: list) -> bool:
        """Run a block's warps as one activation over ``lanes``.  Returns
        False, with global memory and the counters as they were before
        the block, when the race guard saw the warps communicate or the
        run made a bad memory access: the caller then re-runs the block
        one warp at a time, which also raises any error in the oracle's
        order."""
        exe = CompiledExec(compiled, self, ctx, int(lanes[0]) // WARP_SIZE,
                           lanes, lanes < ctx.nthreads, kernel, params)
        stats = self.stats
        cache = self.compile_cache
        if exe.width == WARP_SIZE:      # one warp: nothing to race with
            for _spin, warps in exe.run_kernel():
                stats.spins += warps
            cache.lockstep_blocks += 1
            return True
        before = [getattr(stats, name) for name in KernelStats.COUNTERS]
        self.guard = guard = RaceGuard()
        try:
            for _spin, warps in exe.run_kernel():
                stats.spins += warps
            clean = not guard.conflict()
        except (LaunchError, MemoryError_):
            # a bad access, possibly one that only reading another warp's
            # data early led to: the per-warp re-run decides
            clean = False
        finally:
            self.guard = None
        if clean:
            cache.lockstep_blocks += 1
            return True
        guard.rollback()
        for name, value in zip(KernelStats.COUNTERS, before):
            setattr(stats, name, value)
        cache.guard_fallbacks += 1
        return False

    def _validate_launch(self, kernel: KernelIR, grid: Dim3, block: Dim3) -> None:
        dev = self.device
        if block.count == 0 or grid.count == 0:
            raise LaunchError("empty grid or block")
        if block.count > dev.max_threads_per_block:
            raise LaunchError(
                f"block of {block.count} threads exceeds device limit "
                f"{dev.max_threads_per_block}"
            )
        for dim, limit in zip((block.x, block.y, block.z), dev.max_block_dim):
            if dim > limit:
                raise LaunchError(f"block dimension {dim} exceeds limit {limit}")
        for dim, limit in zip((grid.x, grid.y, grid.z), dev.max_grid_dim):
            if dim > limit:
                raise LaunchError(f"grid dimension {dim} exceeds limit {limit}")
        if kernel.smem_static > dev.shared_mem_per_block:
            raise LaunchError(
                f"kernel needs {kernel.smem_static}B shared memory; device "
                f"has {dev.shared_mem_per_block}B"
            )

    def _run_block(self, warps: list[WarpExec]) -> None:
        gens = [w.run_kernel() for w in warps]
        n = len(warps)
        READY, WAITING, DONE = 0, 1, 2
        status = [READY] * n
        # bar_id -> {"arrived": set[int], "count": Optional[int]}
        bars: dict[int, dict] = {}
        max_barriers = self.device.named_barriers_per_block

        def try_release(bar_id: int) -> None:
            state = bars.get(bar_id)
            if state is None:
                return
            count = state["count"]
            arrived = state["arrived"]
            if count is None:
                expected = {i for i in range(n) if status[i] != DONE}
                if arrived >= expected:
                    release = arrived
                else:
                    return
            else:
                needed = (count + WARP_SIZE - 1) // WARP_SIZE
                if len(arrived) >= needed:
                    release = arrived
                else:
                    return
            for i in release:
                status[i] = READY
            del bars[bar_id]

        queue = deque(range(n))
        idle_rounds = 0
        while any(s != DONE for s in status):
            progressed = False
            for _ in range(n):
                i = queue[0]
                queue.rotate(-1)
                if status[i] != READY:
                    continue
                progressed = True
                try:
                    event = next(gens[i])
                except StopIteration:
                    status[i] = DONE
                    # a finishing warp may satisfy a full-block barrier
                    for bar_id in list(bars):
                        try_release(bar_id)
                    continue
                if event[0] == "bar":
                    _tag, bar_id, count = event
                    self.stats.barriers += 1
                    if bar_id >= max_barriers or bar_id < 0:
                        raise LaunchError(
                            f"barrier id {bar_id} out of range (device has "
                            f"{max_barriers} named barriers per block)"
                        )
                    if count is not None and count % WARP_SIZE != 0:
                        raise LaunchError(
                            f"bar.sync count {count} is not a multiple of the "
                            f"warp size {WARP_SIZE}"
                        )
                    state = bars.setdefault(bar_id, {"arrived": set(), "count": count})
                    if state["count"] != count:
                        raise LaunchError(
                            f"inconsistent thread counts at barrier {bar_id}: "
                            f"{state['count']} vs {count}"
                        )
                    state["arrived"].add(i)
                    status[i] = WAITING
                    try_release(bar_id)
                elif event[0] == "spin":
                    self.stats.spins += 1
                else:  # pragma: no cover
                    raise LaunchError(f"unknown scheduler event {event!r}")
            if not progressed:
                idle_rounds += 1
            else:
                idle_rounds = 0
            if idle_rounds > 2:
                waiting = {
                    bar_id: sorted(state["arrived"])
                    for bar_id, state in bars.items()
                }
                raise LaunchError(
                    f"deadlock in block: warps waiting on barriers {waiting}, "
                    f"statuses={status}"
                )
