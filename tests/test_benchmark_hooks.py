"""The names the benchmark's child process wraps and reads still exist.

``perfbench/child.py`` wraps library functions at the names their callers
look them up under, so a renamed hook would only fail a traced benchmark
run.  These tests load the child and its workloads read-only and check
every name without wrapping anything.
"""

import importlib.util
from pathlib import Path

import graphsl._kernels
import graphsl.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_hook_is_callable(monkeypatch):
    child = load("child")
    hooks = []

    def wrap(self, owner, attr, name, count=None):
        assert callable(getattr(owner, attr)), f"{owner!r}.{attr} ({name})"
        hooks.append(name)

    monkeypatch.setattr(child.Tracer, "wrap", wrap)
    child.instrument(child.Tracer(0), set())
    assert {"eig.solve", "eig.factor", "eig.lanczos", "fem.kernel", "spectral.cert_factor"} <= set(hooks)


def test_the_child_reads_the_kernel_backend_and_the_entry_points():
    assert isinstance(graphsl._kernels.backend(), str)
    assert callable(graphsl.cli.main)
    for workload in load("workloads").WORKLOADS.values():
        assert callable(getattr(graphsl.cli, workload.entry)), workload.entry
