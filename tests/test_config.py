"""The configuration surface: the codegen key and the resolved runtime."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.faults.injector import resolve_faults
from repro.faults.recovery import RecoveryPolicy
from repro.ompi.cache import source_key
from repro.ompi.config import (
    ENV_VARS, RUNTIME_FIELDS, CodegenConfig, OmpiConfig, resolve_runtime,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def test_only_config_reads_the_environment():
    readers = sorted(
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
        if re.search(r"os\.environ|getenv", path.read_text()))
    assert readers == ["ompi/config.py"]


# -- the codegen key ----------------------------------------------------------
#: a non-default value per OmpiConfig field
OTHER_VALUE = {
    "binary_mode": "ptx",
    "arch": "sm_70",
    "mw_block_threads": 64,
    "default_num_threads": 256,
    "block_shape": (16, 8, 1),
    "reduction_mode": "atomic",
    "kernel_fastpath": "off",
    "host_fastpath": "off",
    "profile": True,
    "faults": "transient",
    "recovery": "retries=5",
    "num_devices": 2,
    "devices": "nano,v100",
    "serve_deadline": 1e-3,
    "breaker": "off",
}

CODEGEN = [f.name for f in dataclasses.fields(CodegenConfig)]


@pytest.mark.parametrize("name", [f.name for f in
                                  dataclasses.fields(OmpiConfig)])
def test_exactly_the_codegen_fields_key_the_cache(name):
    base = source_key("int main(void) { return 0; }", "p", OmpiConfig())
    other = source_key("int main(void) { return 0; }", "p",
                       OmpiConfig(**{name: OTHER_VALUE[name]}))
    assert (other != base) == (name in CODEGEN)
    assert (name in RUNTIME_FIELDS) == (name not in CODEGEN)


# -- the README flag table ----------------------------------------------------
def test_readme_flag_table_lists_exactly_the_variables_read():
    readme = (ROOT / "README.md").read_text()
    table = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme, re.M))
    bench = {name for path in (ROOT / "benchmarks").glob("*.py")
             for name in re.findall(r'environ\.get\("(REPRO_[A-Z_]+)"',
                                    path.read_text())}
    assert table == set(ENV_VARS.values()) | bench


# -- explicit argument > config field > environment > default -----------------
def _names(rt):
    return [b.name for b in rt.backends]


def _injecting(rt):
    return [resolve_faults(spec) is not None for spec in rt.faults]


def _threshold(rt):
    return rt.breaker.failure_threshold if rt.breaker is not None else None


#: field -> (projection of the RuntimeConfig, cases of
#: (environment, config fields, explicit arguments, expected projection))
PRECEDENCE = {
    "kernel_fastpath": (lambda rt: rt.kernel_fastpath, [
        ({}, {}, {}, "on"),
        ({"REPRO_KERNEL_FASTPATH": "off"}, {}, {}, "off"),
        ({"REPRO_KERNEL_FASTPATH": "off"}, {"kernel_fastpath": "verify"},
         {}, "verify"),
        ({"REPRO_KERNEL_FASTPATH": "off"}, {"kernel_fastpath": "verify"},
         {"kernel_fastpath": "on"}, "on"),
    ]),
    "host_fastpath": (lambda rt: rt.host_fastpath, [
        ({}, {}, {}, "on"),
        ({"REPRO_HOST_FASTPATH": "verify"}, {}, {}, "verify"),
        ({"REPRO_HOST_FASTPATH": "verify"}, {"host_fastpath": "off"}, {},
         "off"),
        ({"REPRO_HOST_FASTPATH": "off"}, {}, {"host_fastpath": "verify"},
         "verify"),
    ]),
    "profile": (lambda rt: (rt.recorder is not None, rt.trace_path), [
        ({}, {}, {}, (False, None)),
        ({"REPRO_PROFILE": "1"}, {}, {}, (True, None)),
        ({"REPRO_PROFILE": "out.json"}, {}, {}, (True, "out.json")),
        ({"REPRO_PROFILE": "out.json"}, {"profile": False}, {},
         (False, None)),
        ({}, {"profile": False}, {"profile": "t.json"}, (True, "t.json")),
    ]),
    "faults": (_injecting, [
        ({}, {}, {}, [False]),
        ({"REPRO_FAULTS": "oom@cuMemAlloc:count=1"}, {}, {}, [True]),
        ({"REPRO_FAULTS": "off"}, {}, {}, [False]),
        ({"REPRO_FAULTS": "transient"}, {"faults": "off"}, {}, [False]),
        # an explicit map leaves the devices it omits fault-free
        ({"REPRO_FAULTS": "transient"}, {},
         {"faults": {1: "devlost"}, "num_devices": 2}, [False, True]),
    ]),
    "recovery": (lambda rt: rt.recovery.max_retries, [
        ({}, {}, {}, RecoveryPolicy().max_retries),
        ({}, {"recovery": "retries=5"}, {}, 5),
        ({}, {"recovery": "retries=5"}, {"recovery": "retries=1"}, 1),
    ]),
    "devices": (_names, [
        ({}, {}, {}, ["nano"]),
        ({"REPRO_NUM_DEVICES": "3"}, {}, {}, ["nano"] * 3),
        # REPRO_DEVICES beats REPRO_NUM_DEVICES
        ({"REPRO_NUM_DEVICES": "3", "REPRO_DEVICES": "nano,tx2"}, {}, {},
         ["nano", "tx2"]),
        ({"REPRO_DEVICES": "nano,tx2"}, {"num_devices": 2}, {},
         ["nano", "nano"]),
        ({"REPRO_DEVICES": "nano,tx2"}, {}, {"num_devices": 2},
         ["nano", "nano"]),
        # an explicit spec wins over everything, an explicit count too
        ({"REPRO_DEVICES": "nano,tx2"}, {},
         {"devices": "v100", "num_devices": 2}, ["v100"]),
    ]),
    "serve_deadline": (lambda rt: rt.serve_deadline, [
        ({}, {}, {}, None),
        ({"REPRO_SERVE_DEADLINE": "5e-3"}, {}, {}, 5e-3),
        ({"REPRO_SERVE_DEADLINE": "off"}, {}, {}, None),
        ({"REPRO_SERVE_DEADLINE": "5e-3"}, {"serve_deadline": 0.01}, {},
         0.01),
        ({}, {"serve_deadline": 0.01}, {"serve_deadline": "off"}, None),
    ]),
    "breaker": (_threshold, [
        ({}, {}, {}, 3),
        ({"REPRO_BREAKER": "threshold=7"}, {}, {}, 7),
        ({"REPRO_BREAKER": "off"}, {}, {}, None),
        ({"REPRO_BREAKER": "off"}, {"breaker": "threshold=2"}, {}, 2),
        ({}, {"breaker": "threshold=2"}, {"breaker": "threshold=5"}, 5),
    ]),
    "faults_log": (lambda rt: rt.faults_log, [
        ({}, {}, {}, None),
        ({"REPRO_FAULTS_LOG": "events.jsonl"}, {}, {}, "events.jsonl"),
    ]),
    "shard_balance": (lambda rt: rt.shard_balance, [
        ({}, {}, {}, "throughput"),
        ({"REPRO_SHARD_BALANCE": "EQUAL"}, {}, {}, "equal"),
    ]),
    "sample_blocks": (lambda rt: rt.sample_blocks, [
        ({}, {}, {}, 3),
        ({"REPRO_SAMPLE_BLOCKS": "1"}, {}, {}, 1),
    ]),
    "cache_dir": (lambda rt: rt.cache_dir, [
        ({}, {}, {}, None),
        ({"REPRO_CACHE_DIR": "store"}, {}, {}, "store"),
    ]),
}


@pytest.mark.parametrize("field", list(PRECEDENCE))
def test_resolve_runtime_precedence(field, monkeypatch):
    project, cases = PRECEDENCE[field]
    for env, config, explicit, expected in cases:
        for var in ENV_VARS.values():
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        rt = resolve_runtime(OmpiConfig(**config), **explicit)
        assert project(rt) == expected, (env, config, explicit)


def test_every_environment_variable_has_a_precedence_case():
    covered = {var for _project, cases in PRECEDENCE.values()
               for env, *_rest in cases for var in env}
    assert covered == set(ENV_VARS.values())


def test_resolve_runtime_rejects_unknown_settings():
    with pytest.raises(TypeError, match="unknown runtime setting"):
        resolve_runtime(OmpiConfig(), num_device=2)
