import numpy as np

from graphsl import _kernels


def synthetic_batch(rng, ncells=60, nq=4):
    """Quadrature-shaped arrays mimicking one meshed edge."""
    cell_idx = np.repeat(np.arange(ncells, dtype=np.int64), nq)
    tloc = np.tile(np.array([0.07, 0.33, 0.67, 0.93]), ncells)
    wq = rng.uniform(0.01, 0.05, size=ncells * nq)
    pv = rng.uniform(0.5, 2.0, size=ncells * nq)
    qv = rng.normal(size=ncells * nq)
    wv = rng.uniform(0.5, 2.0, size=ncells * nq)
    hcell = rng.uniform(0.05, 0.2, size=ncells)
    d0 = np.arange(ncells, dtype=np.int64)
    d1 = d0 + 1
    d0[0] = -1  # one constrained endpoint exercises the skip branch
    return cell_idx, tloc, wq, pv, qv, wv, hcell, d0, d1


def test_constrained_dofs_never_emitted(rng):
    cell_idx, tloc, wq, pv, qv, wv, hcell, d0, d1 = synthetic_batch(rng)
    d1[-1] = -1
    acc = _kernels.accumulate(cell_idx, tloc, wq, pv, qv, wv, len(hcell))
    rows, cols, vp, vq, vm = _kernels.triplets(d0, d1, hcell, *acc)
    assert rows.min() >= 0 and cols.min() >= 0
    # each interior cell contributes 4 entries, the two clipped cells 1 each
    assert len(rows) == 4 * (len(hcell) - 2) + 2


def test_backend_reports_known_name():
    assert _kernels.backend() == "numpy"
