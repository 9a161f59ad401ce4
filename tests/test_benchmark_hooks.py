"""The names the benchmark's child process wraps and reads still exist.

``perfbench/child.py`` wraps library functions at the names their callers
look them up under, so a renamed hook would only fail a traced benchmark
run.  These tests load the child and its workloads read-only and check
every name without wrapping anything.
"""

import importlib.util
from pathlib import Path

import pytest

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


FIXTURES = Path(graphsl.cli.__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "command, graph, options, entry",
    [
        ("spectrum", "interval.json", [], "inf_spectrum"),
        ("persson", "halfline40.json", ["--levels", "1", "--outer", "3"], "persson_limit"),
        ("positive-solution", "star3.json", ["--lambda", "1.0", "--level", "1"], "positive_solution"),
    ],
)
def test_each_wrapped_cli_name_runs_once_per_command(monkeypatch, capsys, command, graph, options, entry):
    # the child wraps these names on graphsl.cli after import: a command that
    # bound one at import time, or called it twice, would time the wrong span
    child = load("child")
    names = []

    def wrap(self, owner, attr, name, count=None):
        if owner is graphsl.cli:
            names.append(attr)

    monkeypatch.setattr(child.Tracer, "wrap", wrap)
    child.instrument(child.Tracer(0), set())
    assert sorted(names) == ["_emit", "build_exhaustion", "load_coefficients", "load_graph", "validate_hypotheses"]
    calls = dict.fromkeys(names + [entry], 0)

    def counted(attr):
        fn = getattr(graphsl.cli, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    for attr in calls:
        monkeypatch.setattr(graphsl.cli, attr, counted(attr))
    argv = [command, "--graph", str(FIXTURES / graph), "--h", "0.1", *options]
    assert graphsl.cli.main(argv) == 0
    capsys.readouterr()
    assert calls == dict.fromkeys(calls, 1)


@pytest.mark.parametrize(
    "workload, graph, options",
    [
        ("persson-path", "halfline40.json", ["--levels", "1", "--outer", "3"]),
        ("certificate-tree", "star3.json", ["--lambda", "1.0", "--level", "1"]),
    ],
)
def test_the_real_tracer_fires_every_span(monkeypatch, capsys, workload, graph, options):
    # a wrapped signature that changed would only fail a traced benchmark run:
    # run the child's own Tracer on a small fixture of each workload's command
    child, spec = load("child"), load("workloads").WORKLOADS[workload]
    counted, ran = set(), set()

    class Restoring(child.Tracer):
        def wrap(self, owner, attr, name, count=None):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))  # put back after the test
            if count is not None:
                counted.add(attr)

                def recorded(out, args, count=count, attr=attr):
                    counts = count(out, args)
                    assert counts and all(isinstance(v, (int, float)) for v in counts.values()), attr
                    ran.add(attr)
                    return counts

                count = recorded
            super().wrap(owner, attr, name, count)

    tracer = Restoring(0)
    child.instrument(tracer, set())
    tracer.wrap(graphsl.cli, "main", "cli.main")
    tracer.wrap(graphsl.cli, spec.entry, f"spectral.{spec.entry}")
    argv = [spec.command, "--graph", str(FIXTURES / graph), "--h", "0.1", *options]
    assert graphsl.cli.main(argv) == 0
    capsys.readouterr()
    assert load("analysis").coverage_problems(tracer.spans, spec.spans) == []
    # every count function ran on a wrapped call's real return value and arguments
    assert ran == counted
