"""The benchmark's workloads: seeded input documents and the CLI call for each.

A seed jitters edge lengths and the phase of the coefficient; the graph
family, its size, the mesh size and the levels stay fixed.  Lengths are
multiples of 0.005 in [0.97, 1.0], so every vertex at depth d lies at a
distance in [0.97 d, d]: the exhaustion levels used here (at most 60 on a
path, 12 on a tree) select the same edges for every seed, and the work per
run only moves with the cell counts of single edges.  The grid keeps every
cell of the persson mesh (h = 0.005) the same size; with unequal cells the
pencil lower bound returns before its bisection, which is the stage that
workload exists to measure.  The phase of q stays small enough that the
certificate's trial value sits below the Dirichlet bottom for every seed.

Everything here is plain Python and JSON; the benchmark process never
imports graphsl, only the child processes do.
"""

from __future__ import annotations

import math
import random

TOL = 1e-6
LENGTH_GRID = 0.005

# Spans every workload fires: the CLI front end, the graph and coefficient
# set-up, meshing, assembly and the eigensolve.  The workload adds its own.
COMMON_SPANS = frozenset(
    {
        "cli.main",
        "cli.output",
        "graph.load",
        "graph.exhaustion",
        "coeff.load",
        "coeff.validate",
        "coeff.evaluate",
        "fem.mesh",
        "fem.assemble",
        "fem.kernel",
        "eig.solve",
        "eig.lower_bound",
        "eig.factor",
        "eig.lanczos",
    }
)


def _lengths(rng: random.Random, count: int) -> list[float]:
    return [LENGTH_GRID * rng.randint(194, 200) for _ in range(count)]


def path_doc(n_edges: int, rng: random.Random) -> dict:
    """Chain of ``n_edges`` edges rooted at one end (ids as in graphsl.families)."""
    lengths = _lengths(rng, n_edges)
    return {
        "vertices": [f"v{i:02d}" for i in range(n_edges + 1)],
        "edges": [
            {"id": f"e{i:02d}", "from": f"v{i - 1:02d}", "to": f"v{i:02d}", "length": lengths[i - 1]}
            for i in range(1, n_edges + 1)
        ],
        "root": "v00",
    }


def tree_doc(depth: int, rng: random.Random) -> dict:
    """Rooted binary tree of the given depth (ids as in graphsl.families)."""
    vertices = ["n0"]
    edges = []
    frontier = ["n0"]
    for _ in range(depth):
        next_frontier = []
        for parent in frontier:
            for _ in range(2):
                child = f"n{len(vertices)}"
                vertices.append(child)
                edges.append({"id": f"t{len(vertices) - 1:03d}", "from": parent, "to": child})
                next_frontier.append(child)
        frontier = next_frontier
    for edge, length in zip(edges, _lengths(rng, len(edges))):
        edge["length"] = length
    return {"vertices": vertices, "edges": edges, "root": "n0"}


class Workload:
    """One CLI command on generated documents.

    ``inputs(seed)`` returns ``(graph_doc, coeff_doc_or_None)``; ``argv``
    builds the command line once the documents are written; ``spans`` is
    the set of span names the traced run must see, no more and no fewer.
    """

    def __init__(self, name, command, entry, options, make, extra_spans, why):
        self.name = name
        self.command = command
        self.entry = entry
        self.options = options
        self.make = make
        self.spans = COMMON_SPANS | {f"spectral.{entry}"} | frozenset(extra_spans)
        self.why = why

    def inputs(self, seed: int):
        return self.make(random.Random(seed))

    def argv(self, graph_path: str, coeff_path: str | None, out_path: str) -> list[str]:
        argv = [self.command, "--graph", graph_path]
        if coeff_path is not None:
            argv += ["--coeffs", coeff_path]
        return argv + ["--tol", repr(TOL), "--out", out_path] + self.options


def _persson_inputs(rng: random.Random):
    graph = path_doc(60, rng)
    shift = 0.05 * rng.random()
    return graph, {"default": {"q": {"expr": f"1/(1+{shift!r}+x)"}}}


def _certificate_inputs(rng: random.Random):
    graph = tree_doc(10, rng)
    phase = 0.5 * rng.random()
    return graph, {"default": {"q": {"expr": f"-1+0.3*sin(2*x+{phase!r})"}}}


def _bigtree_inputs(rng: random.Random):
    return tree_doc(12, rng), None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "persson-path",
            "persson",
            "persson_limit",
            ["--h", "0.005", "--levels", "1,2,4,8", "--outer", "10,20,30,40,50,60"],
            _persson_inputs,
            (),
            "24 small annulus solves; the pencil lower bound and per-annulus remeshing dominate",
        ),
        Workload(
            "certificate-tree",
            "positive-solution",
            "positive_solution",
            ["--h", "0.02", "--lambda", "-1.0", "--level", "10"],
            _certificate_inputs,
            ("fem.kirchhoff", "spectral.cert_factor"),
            "one 100k-dof eigensolve, a certificate solve and a 4 MB CSV; time spread over layers",
        ),
        Workload(
            "spectrum-bigtree",
            "spectrum",
            "inf_spectrum",
            ["--h", "0.25", "--levels", "2,4,6,8,10,12"],
            _bigtree_inputs,
            (),
            "8190 edges; all-pairs distances and the per-edge assembly loop dominate",
        ),
    )
}


def cell_count(length: float, h: float) -> int:
    """Cells the mesh puts on an edge of this length (graphsl.fem's rule)."""
    return max(1, math.ceil(length / h - 1e-9))
