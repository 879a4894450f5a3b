"""Named backends and runtime-registry resolution.

``BACKENDS`` maps the stable public names (CLI ``--devices``, the
``REPRO_DEVICES`` environment variable, the serving API) to their
:class:`~repro.devices.backend.DeviceBackend`.  A *registry spec* is a
comma-separated list of those names — ``"nano,v100"`` builds a
two-device registry whose ``device(0)`` is a Jetson Nano and
``device(1)`` a V100.  :func:`resolve_registry` turns the
``devices``/``num_devices`` values that
:func:`repro.ompi.config.resolve_runtime` settled on into the backend
list.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.cuda.device import (
    JETSON_NANO_4GB_GPU, JETSON_NANO_GPU, JETSON_TX2_GPU, TESLA_V100_GPU,
)
from repro.devices.backend import DeviceBackend, XformSet, make_backend


class UnknownBackendError(ValueError):
    """A registry spec named a backend that does not exist."""


_NANO = make_backend(
    "nano", JETSON_NANO_GPU,
    description="Jetson Nano 2GB (Maxwell sm_53, 1 SM, shared LPDDR4)")

BACKENDS: dict[str, DeviceBackend] = {
    "nano": _NANO,
    # the paper's board by its full name: the same backend as "nano"
    "nano2gb": _NANO,
    "nano4gb": make_backend(
        "nano4gb", JETSON_NANO_4GB_GPU,
        description="Jetson Nano 4GB (same GPU, more DRAM)"),
    "tx2": make_backend(
        "tx2", JETSON_TX2_GPU,
        description="Jetson TX2 (Pascal sm_62, 2 SMs)"),
    "v100": make_backend(
        "v100", TESLA_V100_GPU,
        # a Volta SM runs 64 resident warps; 256-thread blocks keep more
        # of them resident per block without starving the 80-SM spread
        xform=XformSet(arch="sm_70", mw_block_threads=128,
                       default_num_threads=256),
        description="Tesla V100 (Volta sm_70, 80 SMs, HBM2)"),
}


def get_backend(name: str) -> DeviceBackend:
    """The backend registered under ``name`` (case-insensitive)."""
    try:
        return BACKENDS[str(name).strip().lower()]
    except KeyError:
        raise UnknownBackendError(
            f"unknown device backend {name!r} (known backends: "
            + ", ".join(sorted(BACKENDS)) + ")") from None


def parse_devices(
    spec: Union[str, Sequence[Union[str, DeviceBackend]]],
) -> list[DeviceBackend]:
    """A registry spec -> backend list.

    Accepts a comma-separated string (``"nano,v100"``), or a sequence of
    names and/or :class:`DeviceBackend` instances.  The empty spec is an
    error — a registry cannot have zero devices.
    """
    if isinstance(spec, str):
        items: Sequence = [s for s in spec.split(",") if s.strip()]
    else:
        items = list(spec)
    if not items:
        raise UnknownBackendError(f"empty device registry spec {spec!r}")
    out: list[DeviceBackend] = []
    for item in items:
        if isinstance(item, DeviceBackend):
            out.append(item)
        else:
            out.append(get_backend(item))
    return out


def resolve_registry(
    devices: Union[None, str, Sequence] = None,
    num_devices: Optional[int] = None,
) -> list[DeviceBackend]:
    """The runtime's device registry, one backend per device ordinal:
    the ``devices`` spec if given, else ``num_devices`` (default 1)
    ``nano`` devices.  :func:`repro.ompi.config.resolve_runtime` decides
    which values reach here (explicit > config > environment)."""
    if devices is not None:
        return parse_devices(devices)
    n = 1 if num_devices is None else int(num_devices)
    if n < 1:
        raise ValueError(f"num_devices must be >= 1, got {n}")
    return [_NANO] * n


def track_names(backends: Sequence[DeviceBackend]) -> Optional[dict]:
    """Chrome-trace track labels (ordinal -> backend name) for a registry
    that mixes backends; None keeps the ``dev<k>`` labels of a uniform
    one."""
    if len({b.name for b in backends}) < 2:
        return None
    return {k: b.name for k, b in enumerate(backends)}
