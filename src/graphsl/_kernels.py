"""Hot assembly kernels: per-cell quadrature sums and the triplet scatter.

Both run once per assembly over the samples of every meshed edge, laid
out cell after cell.  ``np.bincount`` adds each cell's samples in the
order they appear, so the sums do not depend on how many edges share a
call.
"""

from __future__ import annotations

import numpy as np


def accumulate(cell_idx, tloc, wq, pv, qv, wv, ncells):
    """Per-cell quadrature sums for the three local 2x2 matrices.

    Returns seven arrays of length ncells: the cell integral of p, the
    entries of the local potential matrix (q00, q01, q11), and of the local
    mass matrix (m00, m01, m11), with linear hat basis values 1-t and t.
    """
    b0 = 1.0 - tloc
    b1 = tloc
    ip = np.bincount(cell_idx, weights=wq * pv, minlength=ncells)
    q00 = np.bincount(cell_idx, weights=wq * qv * b0 * b0, minlength=ncells)
    q01 = np.bincount(cell_idx, weights=wq * qv * b0 * b1, minlength=ncells)
    q11 = np.bincount(cell_idx, weights=wq * qv * b1 * b1, minlength=ncells)
    m00 = np.bincount(cell_idx, weights=wq * wv * b0 * b0, minlength=ncells)
    m01 = np.bincount(cell_idx, weights=wq * wv * b0 * b1, minlength=ncells)
    m11 = np.bincount(cell_idx, weights=wq * wv * b1 * b1, minlength=ncells)
    return ip, q00, q01, q11, m00, m01, m11


def triplets(d0, d1, hcell, ip, q00, q01, q11, m00, m01, m11):
    """Scatter local matrices to COO triplets, four per cell.

    Entry order per cell is (00, 01, 10, 11); symmetric off-diagonal values
    are written from the same accumulated number, so assembled matrices are
    bitwise symmetric.  Every dof is free, so every triplet is emitted;
    Dirichlet conditions enter only where a piece is cut from the forms.
    """
    s = ip / (hcell * hcell)
    rows = np.stack([d0, d0, d1, d1], axis=1)
    cols = np.stack([d0, d1, d0, d1], axis=1)
    vp = np.stack([s, -s, -s, s], axis=1)
    vq = np.stack([q00, q01, q01, q11], axis=1)
    vm = np.stack([m00, m01, m01, m11], axis=1)
    return rows.ravel(), cols.ravel(), vp.ravel(), vq.ravel(), vm.ravel()


def backend() -> str:
    """Name of the kernel implementation, kept for run reports."""
    return "numpy"
