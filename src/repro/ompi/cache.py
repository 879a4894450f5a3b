"""Shared compile cache: source hash + codegen config -> program.

The ompicc pipeline is deterministic — the same source text under the
same codegen-relevant configuration always produces the same outlined
host program and kernel images — so compilation results can be shared
freely: between requests of a serving runtime, between the CLI and an
embedding application, between sessions of different tenants.

``compile_cached()`` is the single entry point.  The cache key is

* the SHA-256 of the source text,
* the program name (it prefixes every generated kernel symbol), and
* the config's :class:`~repro.ompi.config.CodegenConfig` fields — only
  what changes the emitted code (binary mode, target arch, block
  geometry, reduction lowering).  Runtime fields (fastpath, profiling,
  fault injection, the registry) are not codegen fields, so they stay
  out of the key — a cached program is re-bound to the caller's full
  config on every hit, and two callers differing only in runtime knobs
  share one compilation.

The in-memory map serves one process; an optional persistent tier
(:class:`repro.ompi.diskcache.DiskCompileCache`) extends the same keys
across processes and sessions: an in-memory miss consults the disk
store before compiling, and every fresh compilation is written back.
The entry pickled to disk carries only the codegen fields of its config
— runtime knobs (fastpath, profiling, fault injection, recorder
objects) never reach the pickle, and every hit is re-bound to the
caller's full config exactly like an in-memory hit.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from typing import Optional

from repro.ompi.compiler import CompiledProgram, OmpiCompiler
from repro.ompi.config import OmpiConfig


def source_key(source: str, name: str = "prog",
               config: Optional[OmpiConfig] = None) -> str:
    """Content-addressed cache key (hex digest) for one compilation."""
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(b"\x00")
    h.update(name.encode())
    h.update(b"\x00")
    h.update(repr((config or OmpiConfig()).codegen).encode())
    return h.hexdigest()


class CompileCache:
    """Map of :func:`source_key` -> :class:`CompiledProgram`.

    ``max_entries`` bounds the cache with LRU eviction (None: unbounded —
    the CLI compiles one program per process; a serving runtime should
    set a bound matched to its program population).

    ``disk`` attaches a persistent tier
    (:class:`repro.ompi.diskcache.DiskCompileCache`): in-memory misses
    consult it before compiling, fresh compilations are written back.
    """

    def __init__(self, max_entries: Optional[int] = None, disk=None):
        self.max_entries = max_entries
        self.disk = disk
        self._cache: dict[str, CompiledProgram] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_misses = 0
        #: actual OmpiCompiler.compile invocations (misses both tiers)
        self.compiles = 0
        #: host wall-clock spent inside OmpiCompiler.compile (compiles only)
        self.compile_wall_s = 0.0

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, key: str) -> bool:
        return key in self._cache

    def get(self, source: str, name: str = "prog",
            config: Optional[OmpiConfig] = None) -> CompiledProgram:
        """The compiled program for ``source``, compiling on first use.

        The returned program carries the *caller's* config (runtime knobs
        like fastpath/profile/faults apply per run), sharing the host
        unit, kernel plans and images with every other hit on the key.
        """
        config = config or OmpiConfig()
        key = source_key(source, name, config)
        prog = self._cache.get(key)
        if prog is not None:
            self.hits += 1
            # LRU touch: re-insertion order is eviction order
            self._cache[key] = self._cache.pop(key)
        else:
            self.misses += 1
            prog = self._load_disk(key) if self.disk is not None else None
            if prog is None:
                t0 = time.perf_counter()
                prog = OmpiCompiler(config).compile(source, name)
                self.compiles += 1
                self.compile_wall_s += time.perf_counter() - t0
                if self.disk is not None:
                    self._store_disk(key, prog)
            if (self.max_entries is not None
                    and len(self._cache) >= self.max_entries):
                self._cache.pop(next(iter(self._cache)))
                self.evictions += 1
            self._cache[key] = prog
        return replace(prog, config=config)

    def _load_disk(self, key: str) -> Optional[CompiledProgram]:
        prog = self.disk.load(key)
        if prog is None:
            self.disk_misses += 1
            return None
        if not isinstance(prog, CompiledProgram):
            # foreign object under our key: treat as a corrupt miss
            self.disk_misses += 1
            return None
        self.disk_hits += 1
        return prog

    def _store_disk(self, key: str, prog: CompiledProgram) -> None:
        # persist with the codegen fields only, so runtime objects
        # (recorders, policies) never reach the pickle
        try:
            self.disk.store(key, replace(prog, config=prog.config.codegen))
        except Exception:
            # a full disk or unpicklable image must not fail compilation
            pass

    def clear(self) -> None:
        self._cache.clear()

    @property
    def stats(self) -> dict:
        out = {
            "entries": len(self._cache),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "compiles": self.compiles,
            "compile_wall_s": self.compile_wall_s,
        }
        if self.disk is not None:
            out["disk_hits"] = self.disk_hits
            out["disk_misses"] = self.disk_misses
            out["disk"] = self.disk.stats
        return out


#: process-wide default cache (what ``compile_cached`` uses when the
#: caller does not bring its own): the CLI and ad-hoc embedders share it,
#: so a warm process never recompiles a program (a serving runtime keeps
#: its own bounded cache)
GLOBAL_COMPILE_CACHE = CompileCache()


def compile_cached(source: str, name: str = "prog",
                   config: Optional[OmpiConfig] = None,
                   cache: Optional[CompileCache] = None) -> CompiledProgram:
    """Compile ``source`` through a shared cache (see module docstring)."""
    return (cache if cache is not None else GLOBAL_COMPILE_CACHE).get(
        source, name, config)
