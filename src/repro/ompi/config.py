"""OMPi configuration: the codegen key and the resolved runtime.

:class:`CodegenConfig` holds the fields that change emitted code; they
are the compile-cache key.  :class:`OmpiConfig` adds the runtime fields,
which :func:`resolve_runtime` turns into one frozen
:class:`RuntimeConfig` — explicit argument > config field > environment
> default, for every field.  This is the only module that reads the
``REPRO_*`` environment variables (DESIGN.md §17).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Optional


@dataclass(frozen=True)
class CodegenConfig:
    #: kernel binary mode (paper §3.3): 'cubin' (default: everything compiled
    #: and linked ahead of time) or 'ptx' (JIT at first launch + disk cache)
    binary_mode: str = "cubin"
    #: target architecture for cubins
    arch: str = "sm_53"
    #: threads per block for master/worker kernels (paper §4.2.2: fixed 128,
    #: matching the 128 cores of the Nano's single SM)
    mw_block_threads: int = 128
    #: default threads per block for combined constructs without num_threads
    default_num_threads: int = 128
    #: how a flat num_threads value maps to 2D block dimensions: OMPi "maps
    #: these values to two dimensions, so as to match the block and grid
    #: dimensions of the equivalent cuda applications" (§5).  None applies
    #: the default rule (x = min(n, 32), y = n/32); a tuple forces a shape.
    block_shape: Optional[tuple[int, int, int]] = None
    #: reduction lowering mode: 'tree' (default — deterministic warp-
    #: shuffle + shared-memory tree within each team, fixed-order
    #: cross-team combine on copy-back; bit-identical to the sequential
    #: loop and across device counts / shard(n)) or 'atomic' (legacy
    #: baseline — every thread merges straight into the mapped scalar
    #: with atomic RMWs; order-dependent for floats, not shard-safe).
    reduction_mode: str = "tree"

    @property
    def codegen(self) -> "CodegenConfig":
        """Just the codegen fields: the compile-cache key, and the config
        a cached program is pickled with."""
        return CodegenConfig(**{f.name: getattr(self, f.name)
                                for f in fields(CodegenConfig)})


@dataclass(frozen=True)
class OmpiConfig(CodegenConfig):
    """The codegen fields plus the runtime fields (None: not set)."""

    #: closure-compiled kernel execution: 'on' (default), 'off' or
    #: 'verify' (run the compiled fast path and the tree-walk reference on
    #: every launch, fail if memory, stdout or stats diverge)
    kernel_fastpath: Optional[str] = None
    #: closure-compiled *host* execution: 'on' (default), 'off' or
    #: 'verify' (run every compiled region against the tree-walk
    #: interpreter, fail on any memory or result divergence)
    host_fastpath: Optional[str] = None
    #: activity profiling (repro.prof): True/'on' records; a path string
    #: records *and* names the Chrome-trace JSON written when the program
    #: finishes; an int sets the ring capacity; an ActivityRecorder is
    #: used as-is (lets callers inspect records); False/'off' disables
    profile: object = None
    #: fault injection (repro.faults): a spec string (preset name or
    #: 'kind@api:key=val,...;...' rules) for every device, or an
    #: {ordinal: spec} map (devices it leaves out are fault-free);
    #: False/'off' disables.  Device k runs its spec with seed + k.
    faults: object = None
    #: recovery policy: a RecoveryPolicy or a string like
    #: 'retries=5,backoff=1e-3,fallback=off'
    recovery: object = None
    #: number of simulated Jetson Nanos in the runtime's registry.  Each
    #: device gets its own driver state, memory arena, stream pool, data
    #: environment and fault domain; device(k) routes to device k and
    #: shard(n) splits a target teams distribute across n devices.
    num_devices: Optional[int] = None
    #: named device registry: a spec ("nano,v100") or a sequence of backend
    #: names / DeviceBackend objects; overrides num_devices.  The per-device
    #: arch enters through image retargeting at bind time.
    devices: object = None
    #: serving: default per-request deadline budget in modelled seconds
    #: (''/'off'/0 disables).  The offload server applies it as arrival +
    #: budget; requests past the bound get a typed DeadlineExceeded.
    serve_deadline: object = None
    #: serving: per-device circuit-breaker policy — a BreakerPolicy,
    #: 'off', or 'threshold=2,cooldown=1e-3'-style overrides
    breaker: object = None


#: RuntimeConfig field (or OmpiConfig field it comes from) -> the
#: environment variable that sets it when nothing more explicit does
ENV_VARS = {
    "kernel_fastpath": "REPRO_KERNEL_FASTPATH",
    "host_fastpath": "REPRO_HOST_FASTPATH",
    "profile": "REPRO_PROFILE",
    "faults": "REPRO_FAULTS",
    "faults_log": "REPRO_FAULTS_LOG",
    "serve_deadline": "REPRO_SERVE_DEADLINE",
    "breaker": "REPRO_BREAKER",
    "devices": "REPRO_DEVICES",
    "num_devices": "REPRO_NUM_DEVICES",
    "shard_balance": "REPRO_SHARD_BALANCE",
    "sample_blocks": "REPRO_SAMPLE_BLOCKS",
    "cache_dir": "REPRO_CACHE_DIR",
}

#: the OmpiConfig fields an entry point may override explicitly
RUNTIME_FIELDS = tuple(f.name for f in fields(OmpiConfig)
                       if f.name not in {g.name for g in fields(CodegenConfig)})


def from_env(name: str) -> Optional[str]:
    """The environment's value for ``name`` (None: unset or blank) — also
    the defaults of a ``Machine`` or ``CudaDriver`` built directly."""
    return os.environ.get(ENV_VARS[name], "").strip() or None


@dataclass(frozen=True)
class RuntimeConfig:
    """Every runtime setting of one program run or server, resolved."""

    kernel_fastpath: str                 # 'on' | 'off' | 'verify'
    host_fastpath: str
    recorder: object                     # activity ring; None: no profiling
    trace_path: Optional[str]            # Chrome trace written at the end
    backends: tuple                      # one DeviceBackend per ordinal
    faults: tuple                        # one spec per ordinal (None: none)
    faults_log: Optional[str]            # JSON-lines fault-event sink
    recovery: object                     # RecoveryPolicy
    serve_deadline: Optional[float]      # default deadline budget
    breaker: object                      # BreakerPolicy; None: breakers off
    shard_balance: str                   # 'throughput' | 'equal'
    sample_blocks: int                   # blocks a sampled launch runs
    cache_dir: Optional[str]             # compile-cache disk tier root


def resolve_runtime(config: Optional[OmpiConfig] = None,
                    **explicit) -> RuntimeConfig:
    """Resolve ``config`` and an entry point's explicit runtime arguments
    (keywords named like the :data:`RUNTIME_FIELDS`; None means "not
    given") into a :class:`RuntimeConfig`: explicit argument > config
    field > environment > default, for every field."""
    from repro.cfront.hostcompile import resolve_host_fastpath
    from repro.devices import resolve_registry
    from repro.faults.recovery import resolve_recovery
    from repro.prof.activity import resolve_profile
    from repro.serving.resilience import resolve_breaker, resolve_deadline

    unknown = set(explicit) - set(RUNTIME_FIELDS)
    if unknown:
        raise TypeError(f"unknown runtime setting(s): {sorted(unknown)}")
    config = config or OmpiConfig()

    def given(name):
        value = explicit.get(name)
        return getattr(config, name) if value is None else value

    def pick(name):
        value = given(name)
        return from_env(name) if value is None else value

    devices, num_devices = given("devices"), given("num_devices")
    if devices is None and num_devices is None:
        devices, num_devices = from_env("devices"), from_env("num_devices")
    backends = tuple(resolve_registry(
        devices, None if num_devices is None else int(num_devices)))
    faults = pick("faults")
    if isinstance(faults, dict):
        per_device = tuple(faults.get(k) for k in range(len(backends)))
    else:
        per_device = (faults,) * len(backends)
    recorder, trace_path = resolve_profile(pick("profile"))
    return RuntimeConfig(
        kernel_fastpath=pick("kernel_fastpath") or "on",
        host_fastpath=resolve_host_fastpath(pick("host_fastpath")),
        recorder=recorder,
        trace_path=trace_path,
        backends=backends,
        faults=per_device,
        faults_log=from_env("faults_log"),
        recovery=resolve_recovery(given("recovery")),
        serve_deadline=resolve_deadline(pick("serve_deadline")),
        breaker=resolve_breaker(pick("breaker")),
        shard_balance=(from_env("shard_balance") or "throughput").lower(),
        sample_blocks=int(from_env("sample_blocks") or 3),
        cache_dir=from_env("cache_dir"),
    )
