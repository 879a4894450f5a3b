"""Closure compilation of kernel IR — the simulator's JIT back end.

The tree-walking :class:`~repro.cuda.sim.warp.WarpExec` re-dispatches on
every IR node of every iteration of every warp.  For the steady-state
benchmark launches (same kernel image, thousands of warps) that dispatch
dominates wall-clock.  This pass lowers a kernel's IR **once** into
generated Python source — one closure per function activation (kernel
body + registered subfunctions) — operating on whole-warp numpy lane
vectors:

* straight-line runs of ALU/move/load/store ops become a single code
  block guarded by one ``mask.any()`` check, with their ``KernelStats``
  contributions aggregated into constant increments (the engine runs
  every block under ``np.errstate(all='ignore')``, as the reference
  helpers do per operation);
* single-use pure values are fused textually into their consumer, so a
  chain like ``mul/add/ld/add/st`` becomes one composed numpy expression;
* predicated control flow (``IfOp``/``LoopOp``) keeps the exact
  mask-algebra of the interpreter, bit for bit, including divergence and
  loop-iteration counters;
* loads and stores call ``FunctionalEngine.mem_load``/``mem_store``,
  the one memory-access routine the tree-walker uses too;
* anything stateful or rare (intrinsic calls, atomics, printf, barriers)
  delegates to the original ``WarpExec`` methods so the semantics cannot
  drift.

The generated closures are still generators (they ``yield`` the same
``('bar', id, count)`` / ``('spin', warps)`` scheduler events), so block
scheduling, named barriers and the master/worker scheme are untouched.

The closures read their lane width from the executor.  A kernel with no
synchronisation between warps (:func:`lockstep_eligible`) runs all W
warps of a block as one activation over 32·W lanes; every other kernel
runs one activation per warp (W = 1) under the block scheduler.  The
per-warp counters (instructions, memory instructions, loop iterations,
divergent branches, spins) count the 32-lane rows with an active lane,
so ``KernelStats`` is the same at every width.

Compilation is conservative: any construct outside the supported set
raises :class:`UnsupportedKernel` and the caller silently falls back to
the tree-walker.  ``CompiledKernelCache`` memoizes per (kernel image id,
param dtypes) so repeated ``cuLaunchKernel`` calls skip re-lowering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.cuda.ptx.ir import (
    Atom, BarOp, BinOp, BreakOp, CallOp, ContinueOp, Cvt, GlobalAddr, IfOp,
    Imm, KernelIR, Ld, LoopOp, Mov, PrintfOp, Reg, RetOp, SelOp, Sreg, St,
    UnOp, np_dtype, walk_ops,
)
from repro.cuda.sim.warp import (
    WARP_SIZE, WarpExec, _SPECIAL, _binop, _cast_scalar, _cast_vec, _convert,
    _unop, active_rows, loop_may_block, sync_ops,
)


class UnsupportedKernel(Exception):
    """Kernel uses a construct the closure compiler does not handle."""


_PSEUDO = ("__ldparam", "__ldarg", "__local_base")
_SEG_TYPES = (BinOp, UnOp, Mov, SelOp, Cvt, Sreg, Ld, St)

_BOOL_DT = np.dtype(np.bool_)


def _is_seg_op(op) -> bool:
    if isinstance(op, _SEG_TYPES):
        return True
    return type(op) is CallOp and op.name in _PSEUDO


# --------------------------------------------------------------------------
# runtime helpers referenced by generated code
# --------------------------------------------------------------------------

def _scan_bc(ops) -> tuple[bool, bool]:
    """Whether ``ops`` contains a break / continue binding to the enclosing
    loop (recurses into if-arms but not into nested loops, whose breaks
    bind to themselves)."""
    has_b = has_c = False
    for o in ops:
        t = type(o)
        if t is BreakOp:
            has_b = True
        elif t is ContinueOp:
            has_c = True
        elif t is IfOp:
            b, c = _scan_bc(o.then_ops)
            has_b |= b
            has_c |= c
            b, c = _scan_bc(o.else_ops)
            has_b |= b
            has_c |= c
    return has_b, has_c


def _reg(regs: dict, name: str, dtype: np.dtype, width: int) -> np.ndarray:
    arr = regs.get(name)
    if arr is None:
        arr = np.zeros(width, dtype=dtype)
        regs[name] = arr
    return arr


def _ldargv(warp, idx: int, dtype: np.dtype) -> np.ndarray:
    """Full-width, dtype-cast view of subfunction argument ``idx``
    (elementwise identical to what ``setreg`` would write)."""
    value = np.asarray(warp._arg_stack[-1][idx])
    if value.ndim == 0:
        return np.full(warp.width, _cast_scalar(value, dtype))
    out = np.empty(warp.width, dtype=dtype)
    out[:] = _cast_vec(np.broadcast_to(value, (warp.width,)), dtype)
    return out


def _barid(v) -> int:
    if np.isscalar(v):
        return int(v)
    return int(np.asarray(v).reshape(-1)[0])


def _barcnt(v) -> int:
    c = np.asarray(v)
    return int(c.reshape(-1)[0] if c.ndim else c)


_GLOBALS = {
    "np": np, "_reg": _reg, "_cs": _cast_scalar, "_cv": _cast_vec, "_cvt": _convert,
    "_bop": _binop, "_ldargv": _ldargv, "_barid": _barid,
    "_barcnt": _barcnt,
}


# --------------------------------------------------------------------------
# register analysis: which registers can live as fused SSA temporaries
# --------------------------------------------------------------------------

@dataclass
class _RegInfo:
    dtype: Optional[str] = None
    conflict: bool = False
    ndefs: int = 0
    def_fn: int = -1
    def_bid: int = -1
    def_idx: int = -1
    def_op: object = None
    uses: list = field(default_factory=list)
    pinned: bool = False
    temp: bool = False


class _Analysis:
    """Def/use scan over all function bodies of a kernel.

    A register is a *temp* (kept as a generated local / fused expression
    instead of a 32-wide entry in ``warp.regs``) iff it has exactly one
    def, that def is a plain data op, it is never touched by a delegated
    op (intrinsic call, atomic, printf, barrier operand), and every use
    appears strictly after the def inside the def's block (at any
    nesting depth) within the same function.  Everything else stays in
    the register dict with interpreter-identical lazy-zeros semantics.
    """

    def __init__(self, kernel: KernelIR):
        self.regs: dict[str, _RegInfo] = {}
        self.parent: dict[int, tuple] = {}
        self._nb = 0
        fns = [kernel.body] + [s.body for s in kernel.subfunctions.values()]
        for fi, ops in enumerate(fns):
            self._scan(ops, fi, None, None)
        self._classify()

    def _info(self, name: str) -> _RegInfo:
        info = self.regs.get(name)
        if info is None:
            info = _RegInfo()
            self.regs[name] = info
        return info

    def _dt(self, info: _RegInfo, dtype: str) -> None:
        if info.dtype is None:
            info.dtype = dtype
        elif info.dtype != dtype:
            info.conflict = True

    def _use(self, o, fi, bid, idx) -> None:
        if type(o) is Reg:
            info = self._info(o.name)
            self._dt(info, o.dtype)
            info.uses.append((fi, bid, idx))

    def _pin(self, o) -> None:
        if type(o) is Reg:
            info = self._info(o.name)
            self._dt(info, o.dtype)
            info.pinned = True

    def _def(self, reg: Reg, fi, bid, idx, op) -> None:
        info = self._info(reg.name)
        self._dt(info, reg.dtype)
        info.ndefs += 1
        info.def_fn, info.def_bid, info.def_idx = fi, bid, idx
        info.def_op = op

    def _scan(self, ops, fi, pbid, pidx) -> int:
        bid = self._nb
        self._nb += 1
        self.parent[bid] = (pbid, pidx)
        for i, op in enumerate(ops):
            cls = type(op)
            if cls is BinOp:
                self._use(op.a, fi, bid, i)
                self._use(op.b, fi, bid, i)
                self._def(op.dst, fi, bid, i, op)
            elif cls in (UnOp, Mov, Cvt):
                self._use(op.a, fi, bid, i)
                self._def(op.dst, fi, bid, i, op)
            elif cls is SelOp:
                self._use(op.pred, fi, bid, i)
                self._use(op.a, fi, bid, i)
                self._use(op.b, fi, bid, i)
                self._def(op.dst, fi, bid, i, op)
            elif cls is Sreg:
                self._def(op.dst, fi, bid, i, op)
            elif cls is Ld:
                self._use(op.addr, fi, bid, i)
                self._def(op.dst, fi, bid, i, op)
            elif cls is St:
                self._use(op.addr, fi, bid, i)
                self._use(op.value, fi, bid, i)
            elif cls is IfOp:
                self._use(op.cond, fi, bid, i)
                self._scan(op.then_ops, fi, bid, i)
                self._scan(op.else_ops, fi, bid, i)
            elif cls is LoopOp:
                cbid = self._scan(op.cond_ops, fi, bid, i)
                # the loop condition is read after cond_ops runs
                self._use(op.cond, fi, cbid, len(op.cond_ops))
                self._scan(op.body_ops, fi, bid, i)
                step = getattr(op, "step_ops", None) or []
                if step:
                    self._scan(step, fi, bid, i)
            elif cls is BarOp:
                self._pin(op.barrier)
                if op.count is not None:
                    self._pin(op.count)
            elif cls is CallOp:
                if op.name in _PSEUDO:
                    if op.dst is None:
                        raise UnsupportedKernel(f"{op.name} without dst")
                    for a in op.args:
                        self._pin(a)
                    self._def(op.dst, fi, bid, i, op)
                else:
                    if op.dst is not None:
                        self._pin(op.dst)
                    for a in op.args:
                        self._pin(a)
            elif cls is PrintfOp:
                for a in op.args:
                    self._pin(a)
            elif cls is Atom:
                if op.dst is not None:
                    self._pin(op.dst)
                self._pin(op.addr)
                self._pin(op.a)
                if op.b is not None:
                    self._pin(op.b)
            elif cls in (BreakOp, ContinueOp, RetOp):
                pass
            else:
                raise UnsupportedKernel(f"unknown op {cls.__name__}")
        return bid

    def _classify(self) -> None:
        for info in self.regs.values():
            if info.conflict:
                # same virtual register used at two dtypes: the lazy
                # creation dtype would depend on runtime touch order
                raise UnsupportedKernel("register dtype conflict")
            if info.pinned or info.ndefs != 1 or info.def_op is None:
                continue
            op = info.def_op
            if type(op) is CallOp and op.name not in _PSEUDO:
                continue
            ok = True
            for (ufi, ubid, uidx) in info.uses:
                if ufi != info.def_fn:
                    ok = False
                    break
                b, j = ubid, uidx
                while b is not None and b != info.def_bid:
                    b, j = self.parent[b]
                if b != info.def_bid or j is None or j <= info.def_idx:
                    ok = False
                    break
            info.temp = ok

# --------------------------------------------------------------------------
# expression values
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Val:
    """A generated expression plus the metadata codegen decisions need:
    result dtype/scalarness (derived by evaluating the *reference*
    operator on dummy operands, so numpy promotion is exact), purity
    (safe to defer), and which register locals it reads (so deferred
    expressions are flushed before those registers are overwritten)."""

    text: str
    dtype: np.dtype
    scalar: bool
    const: object = None
    has_const: bool = False
    pure: bool = True
    bare_reg: bool = False
    refs: frozenset = frozenset()


def _dummy(v: _Val):
    """Representative operand for dtype/scalarness inference."""
    if v.has_const:
        return v.const
    if v.scalar:
        return v.dtype.type(1)
    return np.ones(2, dtype=v.dtype)


class _KernelCompiler:
    """Drives per-function codegen and owns the exec() namespace pools
    (immediates, dtypes, delegated-op objects, folded constants)."""

    def __init__(self, kernel: KernelIR):
        self.kernel = kernel
        self.an = _Analysis(kernel)
        self.ns: dict[str, object] = {}
        self._pool_n = 0
        self._imm_pool: dict = {}
        self._dt_pool: dict[str, str] = {}

    def _name(self, prefix: str) -> str:
        self._pool_n += 1
        return f"_{prefix}{self._pool_n}"

    def dt(self, dtype: np.dtype) -> str:
        key = dtype.str
        n = self._dt_pool.get(key)
        if n is None:
            n = self._name("D")
            self._dt_pool[key] = n
            self.ns[n] = dtype
        return n

    def imm(self, imm: Imm) -> _Val:
        key = (imm.dtype, type(imm.value), imm.value)
        try:
            ent = self._imm_pool.get(key)
        except TypeError:  # unhashable (never for IR immediates)
            ent = None
            key = None
        if ent is None:
            v = np_dtype(imm.dtype).type(imm.value)
            n = self._name("K")
            self.ns[n] = v
            ent = _Val(n, np_dtype(imm.dtype), True, const=v, has_const=True)
            if key is not None:
                self._imm_pool[key] = ent
        return ent

    def fold(self, value) -> _Val:
        n = self._name("K")
        self.ns[n] = value
        va = np.asarray(value)
        return _Val(n, va.dtype, va.ndim == 0, const=value, has_const=True)

    def op_ref(self, op) -> str:
        n = self._name("O")
        self.ns[n] = op
        return n

    def compile(self) -> "CompiledKernel":
        fns = [("f0", self.kernel.body)]
        for i, sub in enumerate(self.kernel.subfunctions.values()):
            fns.append((f"f{i + 1}", sub.body))
        srcs: list[Optional[str]] = []
        for fi, (fname, ops) in enumerate(fns):
            try:
                srcs.append(_FnGen(self, fi, ops).generate(fname))
            except UnsupportedKernel:
                srcs.append(None)
        if all(s is None for s in srcs):
            raise UnsupportedKernel("no function compiled")
        module_src = "\n\n".join(s for s in srcs if s is not None)
        glb = dict(_GLOBALS)
        glb.update(self.ns)
        code = compile(module_src, f"<fastpath:{self.kernel.name}>", "exec")
        exec(code, glb)
        body_fn = glb["f0"] if srcs[0] is not None else None
        sub_fns = [glb[f"f{i + 1}"] if srcs[i + 1] is not None else None
                   for i in range(len(fns) - 1)]
        return CompiledKernel(self.kernel, body_fn, sub_fns, module_src)


# --------------------------------------------------------------------------
# per-function code generation
# --------------------------------------------------------------------------

_INLINE_BIN = {
    "add": "+", "sub": "-", "mul": "*", "xor": "^",
    "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!=",
}


class _FnGen:
    def __init__(self, kc: _KernelCompiler, fi: int, ops: list):
        self.kc = kc
        self.an = kc.an
        self.fi = fi
        self.ops = ops
        self.lines: list[tuple[int, str]] = []
        self.ind = 0
        self.uid_n = 0
        self.reg_locals: dict[str, tuple[str, str]] = {}  # name -> (local, dt)
        self.sreg_locals: dict[str, tuple[str, str]] = {}  # sreg -> (local, expr)
        self.glob_locals: dict[str, str] = {}
        self.temp_state: dict[str, tuple[str, _Val]] = {}
        self.temp_names: dict[str, str] = {}
        self.pend_order: list[str] = []
        self.loop_ctx: list[tuple[str, str]] = []
        #: locals holding counts of the current mask ("rows": warps with
        #: an active lane, "lanes": active lanes), reset when m changes
        self.m_counts: dict[str, str] = {}

    # -- emission plumbing -------------------------------------------------
    def w(self, text: str) -> None:
        self.lines.append((self.ind, text))

    def uid(self) -> str:
        self.uid_n += 1
        return str(self.uid_n)

    def set_m(self, text: str, counts: Optional[dict] = None) -> None:
        """Assign the lane mask; ``counts`` names locals already holding
        counts of the new mask."""
        self.w(f"m = {text}")
        self.m_counts = {} if counts is None else counts

    def count_m(self, kind: str) -> str:
        """A local holding the ``kind`` count of the current mask,
        computed once per mask value (every later use under the same mask
        runs only when this one did)."""
        name = self.m_counts.get(kind)
        if name is None:
            name = f"n{kind[0]}{self.uid()}"
            expr = "rows(m)" if kind == "rows" else "int(np.count_nonzero(m))"
            self.w(f"{name} = {expr}")
            self.m_counts[kind] = name
        return name

    def guard_open(self, cond: bool) -> None:
        if cond:
            self.w("if m.any():")
            self.ind += 1

    def guard_close(self, cond: bool) -> None:
        if cond:
            self.ind -= 1

    def generate(self, fname: str) -> str:
        self.has_ret = any(type(o) is RetOp for o in walk_ops(self.ops))
        self.block_ops(self.ops, True)
        out = [f"def {fname}(warp, m):"]

        def put(ind, text):
            out.append("    " * ind + text)

        put(1, "engine = warp.engine")
        put(1, "stats = engine.stats")
        put(1, "regs = warp.regs")
        put(1, "rows = warp.rows")
        put(1, "_n = warp.width")
        put(1, "_SHP = (_n,)")
        put(1, "_Z = warp.zmask")
        put(1, "m = m.copy()")
        for name, (local, dtstr) in self.reg_locals.items():
            put(1, f"{local} = _reg(regs, {name!r}, "
                   f"{self.kc.dt(np_dtype(dtstr))}, _n)")
        for local, expr in self.sreg_locals.values():
            put(1, f"{local} = {expr}")
        for gname, local in self.glob_locals.items():
            put(1, f"{local} = np.uint64(engine.global_addr({gname!r}))")
        put(1, "ret = np.zeros(_n, np.bool_)")
        put(1, "warp._ret_stack.append(ret)")
        put(1, "try:")
        if self.lines:
            for ind, text in self.lines:
                put(2 + ind, text)
        else:
            put(2, "pass")
        put(1, "finally:")
        put(2, "warp._ret_stack.pop()")
        put(1, "if False:")
        put(2, "yield None")
        return "\n".join(out)

    # -- operand handling --------------------------------------------------
    def reg_local(self, name: str, dtstr: str) -> str:
        ent = self.reg_locals.get(name)
        if ent is None:
            ent = (f"r{len(self.reg_locals)}", dtstr)
            self.reg_locals[name] = ent
        return ent[0]

    def operand(self, o) -> _Val:
        cls = type(o)
        if cls is Reg:
            info = self.an.regs[o.name]
            if info.temp:
                st = self.temp_state.get(o.name)
                if st is None:
                    raise UnsupportedKernel(f"temp {o.name} read before def")
                kind, val = st
                if kind == "pend":
                    self.pend_order.remove(o.name)
                    self.temp_state[o.name] = ("used", val)
                return val
            local = self.reg_local(o.name, o.dtype)
            return _Val(local, np_dtype(o.dtype), False, bare_reg=True,
                        refs=frozenset((local,)))
        if cls is Imm:
            return self.kc.imm(o)
        if cls is GlobalAddr:
            local = self.glob_locals.get(o.name)
            if local is None:
                local = f"g{len(self.glob_locals)}"
                self.glob_locals[o.name] = local
            return _Val(local, np.dtype(np.uint64), True)
        raise UnsupportedKernel(f"operand {o!r}")

    def sreg_val(self, name: str) -> _Val:
        u32 = np.dtype(np.uint32)
        if name == "tid.x":
            return _Val("warp.tid_x", u32, False)
        if name == "tid.y":
            return _Val("warp.tid_y", u32, False)
        if name == "tid.z":
            return _Val("warp.tid_z", u32, False)
        if name == "laneid":
            return _Val("warp.laneid", u32, False)
        if name == "warpid":
            return _Val("warp.warpid", u32, False)
        exprs = {
            "ntid.x": "np.uint32(warp.block.block_dim[0])",
            "ntid.y": "np.uint32(warp.block.block_dim[1])",
            "ntid.z": "np.uint32(warp.block.block_dim[2])",
            "ctaid.x": "np.uint32(warp.block.block_idx[0])",
            "ctaid.y": "np.uint32(warp.block.block_idx[1])",
            "ctaid.z": "np.uint32(warp.block.block_idx[2])",
            "nctaid.x": "np.uint32(warp.block.grid_dim[0])",
            "nctaid.y": "np.uint32(warp.block.grid_dim[1])",
            "nctaid.z": "np.uint32(warp.block.grid_dim[2])",
        }
        expr = exprs.get(name)
        if expr is None:
            raise UnsupportedKernel(f"sreg {name}")
        ent = self.sreg_locals.get(name)
        if ent is None:
            ent = (f"s{len(self.sreg_locals)}", expr)
            self.sreg_locals[name] = ent
        return _Val(ent[0], u32, True)

    # -- temp bookkeeping --------------------------------------------------
    def vcast_text(self, text: str, src: np.dtype, dt: np.dtype) -> str:
        """``_cast_vec``/``_convert`` specialised at compile time: the
        trunc-before-narrow rule depends only on the static dtypes, and the
        surrounding segment already suppresses fp warnings."""
        dd = self.kc.dt(dt)
        if dt.kind in "iu" and src.kind == "f":
            return f"np.trunc({text}).astype({dd}, casting='unsafe')"
        return f"{text}.astype({dd}, casting='unsafe')"

    def scast_text(self, text: str, src: np.dtype, dt: np.dtype) -> str:
        """``_cast_scalar`` specialised at compile time (same rules)."""
        dd = self.kc.dt(dt)
        if dt.kind in "iu" and src.kind == "f":
            return f"{dd}.type(np.trunc({text}))"
        if src.kind == "b":
            return f"{dd}.type(bool({text}))"
        return f"{dd}.type(({text}).item())"

    def cast_val(self, v: _Val, dt: np.dtype) -> _Val:
        if v.dtype == dt:
            return v
        if v.has_const:
            with np.errstate(all="ignore"):
                c = _cast_scalar(np.asarray(v.const), dt)
            return self.kc.fold(c)
        if v.scalar:
            return _Val(self.scast_text(v.text, v.dtype, dt), dt, True,
                        pure=v.pure, refs=v.refs)
        return _Val(self.vcast_text(v.text, v.dtype, dt), dt, False,
                    pure=v.pure, refs=v.refs)

    def materialize(self, name: str, cv: _Val) -> None:
        t = self.temp_names.get(name)
        if t is None:
            t = f"t{len(self.temp_names)}"
            self.temp_names[name] = t
        text = cv.text + (".copy()" if cv.bare_reg else "")
        self.w(f"{t} = {text}")
        self.temp_state[name] = ("local", _Val(
            t, cv.dtype, cv.scalar, const=cv.const, has_const=cv.has_const))

    def flush_refs(self, local: str) -> None:
        if not self.pend_order:
            return
        for name in list(self.pend_order):
            _kind, val = self.temp_state[name]
            if local in val.refs:
                self.pend_order.remove(name)
                self.materialize(name, val)

    def flush_all(self) -> None:
        for name in self.pend_order:
            self.materialize(name, self.temp_state[name][1])
        self.pend_order = []

    def write_dst(self, reg: Reg, v: _Val, impure: bool = False) -> None:
        name = reg.name
        dt = np_dtype(reg.dtype)
        info = self.an.regs[name]
        if info.temp:
            if not info.uses:
                if impure:
                    self.w(v.text)
                return
            cv = self.cast_val(v, dt)
            if len(info.uses) == 1 and cv.pure and not impure:
                self.temp_state[name] = ("pend", cv)
                self.pend_order.append(name)
                return
            self.materialize(name, cv)
            return
        local = self.reg_local(name, reg.dtype)
        self.flush_refs(local)
        if v.has_const:
            with np.errstate(all="ignore"):
                c = _cast_scalar(np.asarray(v.const), dt)
            self.w(f"{local}[m] = {self.kc.fold(c).text}")
        elif v.scalar:
            if v.dtype == dt:
                self.w(f"{local}[m] = {v.text}")
            else:
                self.w(f"{local}[m] = {self.scast_text(v.text, v.dtype, dt)}")
        elif v.dtype == dt:
            self.w(f"np.copyto({local}, {v.text}, where=m)")
        else:
            self.w(f"np.copyto({local}, "
                   f"{self.vcast_text(v.text, v.dtype, dt)}, where=m)")

    # -- structured emission ----------------------------------------------
    def block_ops(self, ops: list, maybe_empty: bool) -> None:
        i, n = 0, len(ops)
        while i < n:
            op = ops[i]
            if _is_seg_op(op):
                j = i + 1
                while j < n and _is_seg_op(ops[j]):
                    j += 1
                self.emit_segment(ops[i:j], maybe_empty)
                i = j
                continue
            cls = type(op)
            if cls is IfOp:
                self.emit_if(op, maybe_empty)
                maybe_empty = True
            elif cls is LoopOp:
                self.emit_loop(op, maybe_empty)
                maybe_empty = True
            elif cls is BarOp:
                self.emit_bar(op, maybe_empty)
            elif cls is CallOp:
                ref = self.kc.op_ref(op)
                self.guard_open(maybe_empty)
                self.set_m(f"yield from warp._call({ref}, m)")
                self.guard_close(maybe_empty)
                maybe_empty = True
            elif cls is PrintfOp:
                ref = self.kc.op_ref(op)
                self.guard_open(maybe_empty)
                self.w(f"warp._printf({ref}, m)")
                self.guard_close(maybe_empty)
            elif cls is Atom:
                ref = self.kc.op_ref(op)
                self.guard_open(maybe_empty)
                self.w(f"warp._atomic({ref}, m)")
                self.guard_close(maybe_empty)
            elif cls is RetOp:
                self.guard_open(maybe_empty)
                self.w(f"stats.instructions += {self.count_m('rows')}")
                self.w("ret |= m")
                self.set_m("_Z")
                self.guard_close(maybe_empty)
                return
            elif cls is BreakOp:
                if not self.loop_ctx:
                    raise UnsupportedKernel("break outside loop")
                bk, _cn = self.loop_ctx[-1]
                self.guard_open(maybe_empty)
                self.w(f"{bk} |= m")
                self.set_m("_Z")
                self.guard_close(maybe_empty)
                return
            elif cls is ContinueOp:
                if not self.loop_ctx:
                    raise UnsupportedKernel("continue outside loop")
                _bk, cn = self.loop_ctx[-1]
                self.guard_open(maybe_empty)
                self.w(f"{cn} |= m")
                self.set_m("_Z")
                self.guard_close(maybe_empty)
                return
            else:
                raise UnsupportedKernel(f"op {cls.__name__}")
            i += 1

    def emit_segment(self, seg: list, maybe_empty: bool) -> None:
        instr = 0
        alu = {"alu_f32": 0, "alu_f64": 0, "alu_int": 0, "special_ops": 0}

        def bucket(dtype: str, special: bool) -> str:
            if special:
                return "special_ops"
            if dtype == "f32":
                return "alu_f32"
            if dtype == "f64":
                return "alu_f64"
            return "alu_int"

        for op in seg:
            cls = type(op)
            if cls is BinOp:
                instr += 1
                alu[bucket(op.dst.dtype, False)] += 1
            elif cls is UnOp:
                instr += 1
                alu[bucket(op.dst.dtype, op.op in _SPECIAL)] += 1
            elif cls in (Mov, SelOp, Cvt, Sreg, CallOp):
                instr += 1
            # Ld/St stats are bumped inside engine.mem_load/mem_store
        self.guard_open(maybe_empty)
        mark = len(self.lines)
        if instr == 1:
            self.w(f"stats.instructions += {self.count_m('rows')}")
        elif instr:
            self.w(f"stats.instructions += {instr} * {self.count_m('rows')}")
        if any(alu.values()):
            lanes = self.count_m("lanes")
            for key, count in alu.items():
                if count == 1:
                    self.w(f"stats.{key} += {lanes}")
                elif count:
                    self.w(f"stats.{key} += {count} * {lanes}")
        for op in seg:
            self.emit_seg_op(op)
        self.flush_all()
        if len(self.lines) == mark:
            self.w("pass")
        self.guard_close(maybe_empty)

    def emit_seg_op(self, op) -> None:
        cls = type(op)
        if cls is BinOp:
            self.write_dst(op.dst, self.bin_val(op))
        elif cls is UnOp:
            self.write_dst(op.dst, self.un_val(op))
        elif cls is Mov:
            self.write_dst(op.dst, self.operand(op.a))
        elif cls is SelOp:
            self.write_dst(op.dst, self.sel_val(op))
        elif cls is Cvt:
            self.write_dst(op.dst, self.cvt_val(op))
        elif cls is Sreg:
            self.write_dst(op.dst, self.sreg_val(op.sreg))
        elif cls is Ld:
            a = self.operand(op.addr)
            dt = np_dtype(op.dst.dtype)
            v = _Val(f"engine.mem_load(warp, {a.text}, {self.kc.dt(dt)}, m)",
                     dt, False, pure=False, refs=a.refs)
            self.write_dst(op.dst, v, impure=True)
        elif cls is St:
            a = self.operand(op.addr)
            val = self.operand(op.value)
            dt = np_dtype(op.dtype)
            self.w(f"engine.mem_store(warp, {a.text}, {self.kc.dt(dt)}, "
                   f"{val.text}, m)")
        elif cls is CallOp:
            self.emit_pseudo(op)
        else:  # pragma: no cover - block_ops only sends seg ops here
            raise UnsupportedKernel(f"seg op {cls.__name__}")

    def emit_pseudo(self, op: CallOp) -> None:
        dt = np_dtype(op.dst.dtype)
        if not op.args or type(op.args[0]) is not Imm:
            raise UnsupportedKernel(f"{op.name} with non-immediate arg")
        idx = int(op.args[0].value)
        if op.name == "__ldparam":
            v = _Val(f"np.full(_n, warp.params[{idx}], "
                     f"dtype={self.kc.dt(dt)})", dt, False)
        elif op.name == "__ldarg":
            v = _Val(f"_ldargv(warp, {idx}, {self.kc.dt(dt)})", dt, False)
        elif op.name == "__local_base":
            v = _Val(f"(warp.block.local_base(warp.lane_linear) "
                     f"+ np.uint64({idx}))", np.dtype(np.uint64), False)
        else:  # pragma: no cover - _PSEUDO is closed
            raise UnsupportedKernel(op.name)
        self.write_dst(op.dst, v)

    # -- expression builders ----------------------------------------------
    def _meta(self, fn, *dummies):
        try:
            with np.errstate(all="ignore"):
                return fn(*dummies)
        except Exception as exc:
            raise UnsupportedKernel(f"meta eval failed: {exc}") from None

    def bin_val(self, op: BinOp) -> _Val:
        a = self.operand(op.a)
        b = self.operand(op.b)
        if a.has_const and b.has_const:
            r = self._meta(_binop, op.op, a.const, b.const)
            return self.kc.fold(r)
        r = np.asarray(self._meta(_binop, op.op, _dummy(a), _dummy(b)))
        text = self._bin_text(op.op, a, b)
        return _Val(text, r.dtype, r.ndim == 0,
                    pure=a.pure and b.pure, refs=a.refs | b.refs)

    def _bin_text(self, o: str, a: _Val, b: _Val) -> str:
        sym = _INLINE_BIN.get(o)
        if sym is not None:
            return f"({a.text} {sym} {b.text})"
        int_int = a.dtype.kind in "iu" and b.dtype.kind in "iu"
        if o == "div" and not int_int:
            return f"({a.text} / {b.text})"
        if o == "rem" and not int_int:
            return f"np.fmod({a.text}, {b.text})"
        if o in ("and", "or") and a.dtype.kind != "b":
            return f"({a.text} {'&' if o == 'and' else '|'} {b.text})"
        if o == "min":
            return f"np.minimum({a.text}, {b.text})"
        if o == "max":
            return f"np.maximum({a.text}, {b.text})"
        if o == "pow":
            return f"np.power({a.text}, {b.text})"
        # int div/rem, shifts, bool and/or: keep the reference helper
        return f"_bop({o!r}, {a.text}, {b.text})"

    def un_val(self, op: UnOp) -> _Val:
        a = self.operand(op.a)
        if a.has_const:
            return self.kc.fold(self._meta(_unop, op.op, a.const))
        r = np.asarray(self._meta(_unop, op.op, _dummy(a)))
        o = op.op
        if o == "neg":
            text = f"(-{a.text})"
        elif o == "not":
            text = f"(~{a.text})"
        elif o == "lnot":
            text = f"(~{a.text}.astype(bool))"
        elif o == "rcp":
            text = f"(1.0 / {a.text})"
        elif o in ("abs", "sqrt", "exp", "log", "sin", "cos", "floor",
                   "ceil"):
            text = f"np.{'abs' if o == 'abs' else o}({a.text})"
        else:
            raise UnsupportedKernel(f"unop {o}")
        return _Val(text, r.dtype, r.ndim == 0, pure=a.pure, refs=a.refs)

    def sel_val(self, op: SelOp) -> _Val:
        p = self.operand(op.pred)
        a = self.operand(op.a)
        b = self.operand(op.b)

        def ref(pv, av, bv):
            return np.where(np.asarray(pv).astype(bool), av, bv)

        if p.has_const and a.has_const and b.has_const:
            return self.kc.fold(self._meta(ref, p.const, a.const, b.const))
        r = np.asarray(self._meta(ref, _dummy(p), _dummy(a), _dummy(b)))
        text = f"np.where({p.text}.astype(bool), {a.text}, {b.text})"
        return _Val(text, r.dtype, r.ndim == 0,
                    pure=p.pure and a.pure and b.pure,
                    refs=p.refs | a.refs | b.refs)

    def cvt_val(self, op: Cvt) -> _Val:
        a = self.operand(op.a)
        dt = np_dtype(op.dst.dtype)
        if a.has_const:
            return self.kc.fold(self._meta(_convert, a.const, dt))
        r = np.asarray(self._meta(_convert, _dummy(a), dt))
        if a.scalar:
            # _convert wraps out-of-range values via astype (unlike the
            # OverflowError-raising _cast_scalar), so stay on the 0-d path
            text = self.vcast_text(f"np.asarray({a.text})", a.dtype, dt)
        else:
            text = self.vcast_text(a.text, a.dtype, dt)
        return _Val(text, r.dtype, a.scalar, pure=a.pure, refs=a.refs)

    # -- control flow ------------------------------------------------------
    def cond_text(self, cond: _Val) -> str:
        """Lane-mask text for a branch/loop condition; the broadcast and
        bool cast are elided when the static type already guarantees them
        (cc is consumed before anything it may alias can be mutated)."""
        if cond.scalar:
            return f"np.broadcast_to(np.asarray({cond.text}).astype(bool), _SHP)"
        if cond.dtype == _BOOL_DT:
            return cond.text
        return f"{cond.text}.astype(bool)"

    def emit_if(self, op: IfOp, maybe_empty: bool) -> None:
        k = self.uid()
        cond = self.operand(op.cond)
        self.guard_open(maybe_empty)
        self.w(f"cc{k} = {self.cond_text(cond)}")
        self.w(f"tm{k} = m & cc{k}")
        self.w(f"em{k} = m & ~cc{k}")
        self.w(f"ta{k} = tm{k}.any()")
        self.w(f"ea{k} = em{k}.any()")
        self.w(f"if ta{k} and ea{k}:")
        self.ind += 1
        self.w(f"stats.divergent_branches += warp.rows_both(tm{k}, em{k})")
        self.ind -= 1
        self.w(f"stats.instructions += {self.count_m('rows')}")
        if op.then_ops:
            self.w(f"if ta{k}:")
            self.ind += 1
            self.set_m(f"tm{k}")
            self.block_ops(op.then_ops, False)
            self.w(f"tm{k} = m")
            self.ind -= 1
        if op.else_ops:
            self.w(f"if ea{k}:")
            self.ind += 1
            self.set_m(f"em{k}")
            self.block_ops(op.else_ops, False)
            self.w(f"em{k} = m")
            self.ind -= 1
        self.set_m(f"tm{k} | em{k}")
        self.guard_close(maybe_empty)

    def emit_loop(self, op: LoopOp, maybe_empty: bool) -> None:
        k = self.uid()
        may_block = loop_may_block(op)
        step_ops = getattr(op, "step_ops", None) or []
        # break/continue/return trackers are emitted only when the loop can
        # actually produce them — the common counted loop carries none
        has_b, has_c = _scan_bc(op.body_ops)
        has_ret = self.has_ret
        self.guard_open(maybe_empty)
        self.w(f"lv{k} = m")
        self.w(f"ex{k} = np.zeros(_n, np.bool_)")
        self.w("while True:")
        self.ind += 1
        if has_ret:
            self.w(f"lv{k} = lv{k} & ~ret")
        self.w(f"if not lv{k}.any(): break")
        self.set_m(f"lv{k}")
        self.block_ops(op.cond_ops, False)
        if not all(_is_seg_op(o) for o in op.cond_ops):
            # control flow in the condition may have retired lanes
            self.w(f"lv{k} = m")
            self.w(f"if not lv{k}.any(): break")
        cond = self.operand(op.cond)
        self.w(f"cc{k} = {self.cond_text(cond)}")
        self.w(f"ac{k} = lv{k} & cc{k}")
        self.w(f"ex{k} |= lv{k} & ~cc{k}")
        self.w(f"if not ac{k}.any(): break")
        self.w(f"nw{k} = rows(ac{k})")
        self.w(f"stats.loop_iterations += nw{k}")
        if has_b:
            self.w(f"bk{k} = np.zeros(_n, np.bool_)")
        if has_c:
            self.w(f"cn{k} = np.zeros(_n, np.bool_)")
        body_counts = {"rows": f"nw{k}"}
        self.set_m(f"ac{k}", body_counts)
        self.loop_ctx.append((f"bk{k}", f"cn{k}"))
        self.block_ops(op.body_ops, False)
        self.loop_ctx.pop()
        # a body that never reassigned m hands its mask (and its counts)
        # on to the step ops
        same_m = self.m_counts is body_counts and not has_c
        self.w(f"rn{k} = m | cn{k}" if has_c else f"rn{k} = m")
        if step_ops:
            self.w(f"if rn{k}.any():")
            self.ind += 1
            step_b, step_c = _scan_bc(step_ops)
            if step_b:
                self.w(f"sb{k} = np.zeros(_n, np.bool_)")
            if step_c:
                self.w(f"sc{k} = np.zeros(_n, np.bool_)")
            self.set_m(f"rn{k}", body_counts if same_m else None)
            self.loop_ctx.append((f"sb{k}", f"sc{k}"))
            self.block_ops(step_ops, False)
            self.loop_ctx.pop()
            self.w(f"rn{k} = m")
            self.ind -= 1
        if has_b:
            self.w(f"ex{k} |= bk{k}")
        self.w(f"lv{k} = rn{k}")
        if may_block:
            self.w(f"yield ('spin', nw{k})")
        self.ind -= 1
        if has_ret:
            self.set_m(f"(ex{k} | lv{k}) & ~ret")
        else:
            self.set_m(f"ex{k} | lv{k}")
        self.guard_close(maybe_empty)

    def emit_bar(self, op: BarOp, maybe_empty: bool) -> None:
        b = self.operand(op.barrier)
        bid_t = str(int(b.const)) if b.has_const else f"_barid({b.text})"
        if op.count is None:
            cnt_t = "None"
        else:
            c = self.operand(op.count)
            cnt_t = str(int(c.const)) if c.has_const else f"_barcnt({c.text})"
        self.guard_open(maybe_empty)
        self.w(f"yield ('bar', {bid_t}, {cnt_t})")
        self.guard_close(maybe_empty)


# --------------------------------------------------------------------------
# public objects
# --------------------------------------------------------------------------

@dataclass
class CompiledKernel:
    """A kernel lowered to generated Python closures.

    ``sub_fns`` is indexed like ``WarpExec._subfn_by_id``; a ``None``
    entry means that subfunction fell back to the tree-walker.
    ``lockstep`` says whether a block's warps may run as one activation
    (decided once per kernel by :class:`CompiledKernelCache`).
    """

    kernel: KernelIR
    body_fn: Optional[Callable]
    sub_fns: list
    source: str
    lockstep: bool = False


def compile_kernel(kernel: KernelIR) -> CompiledKernel:
    """Lower ``kernel`` to closures; raises :class:`UnsupportedKernel`."""
    return _KernelCompiler(kernel).compile()


def lockstep_eligible(kernel: KernelIR, intrinsics: dict) -> bool:
    """Whether the warps of a block have no way to synchronise or to
    observe each other's order: no barrier, atomic, printf or
    subfunction, and every runtime call a pseudo-op or an intrinsic
    tagged order-independent (``lockstep_uniform_args``, see
    :func:`repro.devrt.state.order_independent`).  Such a kernel may run
    a block's warps in lockstep; the engine's race guard still checks
    every run for communication through memory."""
    if kernel.subfunctions or any(type(op) is PrintfOp
                                  for op in walk_ops(kernel.body)):
        return False
    for op in sync_ops(kernel.body):
        if type(op) is not CallOp:
            return False            # a barrier or an atomic
        if op.name not in _PSEUDO and getattr(
                intrinsics.get(op.name), "lockstep_uniform_args", None) is None:
            return False
    return True


class CompiledKernelCache:
    """Launch-level memoization keyed on (kernel image id, param dtypes).

    Shared by every engine a driver creates, so the benchmark steady
    state (same image, thousands of launches) compiles exactly once.
    Kernels the compiler rejects are cached as ``None`` (permanent
    tree-walk fallback, counted in ``fallbacks``).

    ``max_entries`` bounds the cache with LRU eviction.  A standalone run
    launches a handful of kernels, so the default is unbounded; a
    long-lived driver (the serving runtime) sets a bound matched to its
    program population, and an evicted kernel simply recompiles on its
    next launch.

    The engines also count here how blocks ran: ``lockstep_blocks`` as
    one activation over all their warps, ``warp_blocks`` one activation
    per warp (any executor), and ``guard_fallbacks`` lockstep runs the
    race guard rolled back and re-ran per warp (counted in
    ``warp_blocks`` too).
    """

    def __init__(self, max_entries: Optional[int] = None):
        self._cache: dict = {}
        self.max_entries = max_entries
        self.compiled = 0
        self.fallbacks = 0
        self.hits = 0
        self.evictions = 0
        self.lockstep_blocks = 0
        self.warp_blocks = 0
        self.guard_fallbacks = 0

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, kernel: KernelIR,
            intrinsics: Optional[dict] = None) -> Optional[CompiledKernel]:
        key = (id(kernel), tuple(p.dtype for p in kernel.params))
        try:
            entry = self._cache.pop(key)
        except KeyError:
            pass
        else:
            self.hits += 1
            self._cache[key] = entry        # LRU touch (re-insertion order)
            return entry[1]
        try:
            ck = compile_kernel(kernel)
            self.compiled += 1
        except Exception:
            ck = None
            self.fallbacks += 1
        else:
            ck.lockstep = ck.body_fn is not None and lockstep_eligible(
                kernel, intrinsics or {})
        if (self.max_entries is not None
                and len(self._cache) >= self.max_entries):
            self._cache.pop(next(iter(self._cache)))
            self.evictions += 1
        # keep a reference to the kernel so its id() cannot be recycled
        self._cache[key] = (kernel, ck)
        return ck


class CompiledExec(WarpExec):
    """Runs a kernel's compiled closures over 32·W lanes: one warp
    (W = 1) under the block scheduler, or the W warps of a lockstep block
    run as one activation.  A function the compiler rejected falls back
    to the inherited tree-walker (only ever at W = 1: such a kernel is
    not lockstep-eligible)."""

    def __init__(self, compiled: CompiledKernel, *args):
        super().__init__(*args)
        self._compiled = compiled
        lanes = self.lane_linear
        #: per-lane warp index and lane id (the ``warpid``/``laneid``
        #: special registers)
        self.warpid = (lanes // WARP_SIZE).astype(np.uint32)
        self.laneid = (lanes % WARP_SIZE).astype(np.uint32)
        self.zmask = np.zeros(self.width, dtype=bool)
        self.zmask.setflags(write=False)

    def row(self, r: int) -> "CompiledExec":
        """An executor for warp row ``r`` alone (register-less): per-row
        intrinsic calls and memory accesses run through it."""
        lanes = slice(r * WARP_SIZE, (r + 1) * WARP_SIZE)
        return CompiledExec(self._compiled, self.engine, self.block,
                            int(self.warpid[lanes.start]),
                            self.lane_linear[lanes], self.valid[lanes],
                            self.kernel, self.params)

    def run_kernel(self):
        fn = self._compiled.body_fn
        if fn is None:
            yield from self.run_activation(self.kernel.body, self.valid.copy())
        else:
            yield from fn(self, self.valid)
        self.done = True

    def call_subfunction(self, fid: int, args: list, mask: np.ndarray):
        sub_fns = self._compiled.sub_fns
        fn = sub_fns[fid] if 0 <= fid < len(sub_fns) else None
        if fn is None:
            yield from WarpExec.call_subfunction(self, fid, args, mask)
            return
        self._arg_stack.append(args)
        try:
            yield from fn(self, mask)
        finally:
            self._arg_stack.pop()

    def _intrinsic(self, intrinsic, mask: np.ndarray, args: list):
        """One call for the whole block run when the arguments the
        intrinsic reads with ``uniform()`` agree across the active lanes
        (then it cannot tell one call from one per warp), else one call
        per warp row in warp order."""
        if self.width == WARP_SIZE or all(
                _agrees(a, mask)
                for a in args[:intrinsic.lockstep_uniform_args]):
            return (yield from intrinsic(self, mask, args))
        result = None
        for r, lanes in active_rows(mask):
            out = yield from intrinsic(
                self.row(r), mask[lanes],
                [a[lanes] if np.ndim(a) else a for a in args])
            if out is not None:
                if result is None:
                    result = np.zeros(self.width, dtype=np.asarray(out).dtype)
                result[lanes] = out
        return result


def _agrees(value, mask: np.ndarray) -> bool:
    """Whether ``value`` is the same on every active lane."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return True
    active = arr[mask]
    return bool((active == active[0]).all())
