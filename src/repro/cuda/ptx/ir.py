"""Structured SIMT IR — the reproduction's PTX.

Unlike real PTX the control flow is *structured* (``IfOp``/``LoopOp``
instead of raw branches).  That choice keeps the warp-lockstep execution
engine simple while still modelling exactly the phenomena the paper's
runtime depends on: divergence (both arms of a divergent ``IfOp`` are
serialized under lane masks), warp-synchronous execution, named barriers
(``BarOp`` = ``bar.sync b, n``) and global-memory atomics.

All operands are typed with the dtype names below; registers are per-lane
(32-wide) values inside the engine.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np

#: IR dtypes -> numpy dtypes
DTYPES = {
    "s8": np.int8, "u8": np.uint8,
    "s16": np.int16, "u16": np.uint16,
    "s32": np.int32, "u32": np.uint32,
    "s64": np.int64, "u64": np.uint64,
    "f32": np.float32, "f64": np.float64,
    "pred": np.bool_,
}

SIZEOF = {name: np.dtype(dt).itemsize for name, dt in DTYPES.items()}
SIZEOF["pred"] = 1

MEMORY_SPACES = ("global", "shared", "local")


def np_dtype(name: str) -> np.dtype:
    return np.dtype(DTYPES[name])


@dataclass(frozen=True)
class Reg:
    name: str
    dtype: str

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Imm:
    value: Union[int, float, bool]
    dtype: str

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class GlobalAddr:
    """Address of a module-level ``__device__`` global, resolved at launch."""

    name: str
    dtype: str = "u64"

    def __str__(self) -> str:
        return f"&{self.name}"


Operand = Union[Reg, Imm, GlobalAddr]


class Op:
    """Base class of all IR operations."""

    def sub_blocks(self) -> Iterator[list["Op"]]:
        return iter(())


@dataclass
class BinOp(Op):
    dst: Reg
    op: str            # add sub mul div rem shl shr and or xor min max
                       # lt le gt ge eq ne (dst must be pred)
    a: Operand = None  # type: ignore[assignment]
    b: Operand = None  # type: ignore[assignment]


@dataclass
class UnOp(Op):
    dst: Reg
    op: str            # neg not lnot abs sqrt exp log sin cos floor ceil rcp
    a: Operand = None  # type: ignore[assignment]


@dataclass
class SelOp(Op):
    dst: Reg
    pred: Operand = None  # type: ignore[assignment]
    a: Operand = None     # type: ignore[assignment]
    b: Operand = None     # type: ignore[assignment]


@dataclass
class Cvt(Op):
    dst: Reg
    a: Operand = None  # type: ignore[assignment]


@dataclass
class Mov(Op):
    dst: Reg
    a: Operand = None  # type: ignore[assignment]


@dataclass
class Ld(Op):
    dst: Reg
    space: str = "global"
    addr: Operand = None  # type: ignore[assignment]


@dataclass
class St(Op):
    space: str = "global"
    addr: Operand = None   # type: ignore[assignment]
    value: Operand = None  # type: ignore[assignment]
    dtype: str = "f32"


@dataclass
class Atom(Op):
    """Atomic op on memory.  ``cas``: dst = old, stores b when old == a.
    ``add``/``exch``/``max``/``min``: dst = old, applies a."""

    dst: Optional[Reg]
    op: str = "add"
    space: str = "global"
    addr: Operand = None   # type: ignore[assignment]
    a: Operand = None      # type: ignore[assignment]
    b: Optional[Operand] = None
    dtype: str = "s32"


@dataclass
class Sreg(Op):
    """Read a special register: tid.{x,y,z}, ntid.*, ctaid.*, nctaid.*,
    laneid, warpid."""

    dst: Reg
    sreg: str = "tid.x"


@dataclass
class IfOp(Op):
    cond: Operand
    then_ops: list[Op] = field(default_factory=list)
    else_ops: list[Op] = field(default_factory=list)

    def sub_blocks(self):
        yield self.then_ops
        yield self.else_ops


@dataclass
class LoopOp(Op):
    """``while``: execute ``cond_ops``, lanes where ``cond`` holds run
    ``body_ops``; repeat until no lane is active.  The engine yields to the
    block scheduler between iterations so spin-wait loops (CAS locks) make
    progress."""

    cond_ops: list[Op] = field(default_factory=list)
    cond: Operand = None  # type: ignore[assignment]
    body_ops: list[Op] = field(default_factory=list)

    def sub_blocks(self):
        yield self.cond_ops
        yield self.body_ops


@dataclass
class BreakOp(Op):
    pass


@dataclass
class ContinueOp(Op):
    pass


@dataclass
class RetOp(Op):
    pass


@dataclass
class BarOp(Op):
    """``bar.sync barrier, count``; ``count`` is in *threads* and must be a
    multiple of the warp size (hardware restriction the paper works around
    with the W*ceil(N/W) rule).  ``count`` None = all threads in block."""

    barrier: Operand = None  # type: ignore[assignment]
    count: Optional[Operand] = None


@dataclass
class CallOp(Op):
    """Call into the device runtime library (an intrinsic registered with
    the engine) — e.g. ``cudadev_register_parallel``."""

    dst: Optional[Reg]
    name: str = ""
    args: list[Operand] = field(default_factory=list)


@dataclass
class PrintfOp(Op):
    fmt: str = ""
    args: list[Operand] = field(default_factory=list)


@dataclass
class KernelParam:
    name: str
    dtype: str           # pointers are u64
    is_pointer: bool = False


@dataclass
class KernelIR:
    name: str
    params: list[KernelParam] = field(default_factory=list)
    body: list[Op] = field(default_factory=list)
    #: shared-memory layout for __shared__ declarations: name -> (offset, size)
    shared_layout: dict[str, tuple[int, int]] = field(default_factory=dict)
    smem_static: int = 0
    #: per-thread local-memory bytes (local arrays)
    local_static: int = 0
    #: device functions referenced via function "pointers" (registered
    #: parallel-region bodies); name -> (params, body)
    subfunctions: dict[str, "KernelIR"] = field(default_factory=dict)

    def __getstate__(self) -> dict:
        # the simulator hangs its compiled closures (``closures``, see
        # repro.cuda.sim.compile) off the kernel: a process-local cache,
        # never part of the image's bytes
        state = dict(self.__dict__)
        state.pop("closures", None)
        return state

    def static_op_count(self) -> int:
        def count(ops: list[Op]) -> int:
            total = 0
            for op in ops:
                total += 1
                for blk in op.sub_blocks():
                    total += count(blk)
            return total
        return count(self.body)


@dataclass
class ModuleIR:
    """The device-side contents of one kernel file."""

    name: str
    kernels: dict[str, KernelIR] = field(default_factory=dict)
    #: module-scope __device__ globals: name -> size in bytes
    globals_: dict[str, int] = field(default_factory=dict)
    arch: str = "sm_53"

    def to_bytes(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_bytes(data: bytes) -> "ModuleIR":
        module = pickle.loads(data)
        if not isinstance(module, ModuleIR):
            raise TypeError("not a ModuleIR image")
        return module

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()[:16]


def walk_ops(ops: list[Op]) -> Iterator[Op]:
    for op in ops:
        yield op
        for blk in op.sub_blocks():
            yield from walk_ops(blk)


class RegAllocator:
    """Generates uniquely named virtual registers."""

    def __init__(self, prefix: str = "r"):
        self.prefix = prefix
        self.counts: dict[str, int] = {}

    def new(self, dtype: str, hint: str = "") -> Reg:
        key = hint or self.prefix
        n = self.counts.get(key, 0)
        self.counts[key] = n + 1
        return Reg(f"{key}{n}", dtype)
