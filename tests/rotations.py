"""Exact quarter-turn rotations of momentum-grid data.

90-degree rotations about the Cartesian axes map a cubic FFT grid onto
itself, so states can be rotated with no interpolation: scalars are
relabeled, vector fields additionally rotate their components, and the
polarization basis rotates as a whole (its chart axis moves with it).
Generators computed from the rotated pair then rotate as exact vectors,
up to summation-order rounding: the oracle of the quarter-turn tests.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from photonam.grids import _readonly

# quarter-turn matrices, right-handed about each axis
_QUARTER = {
    "x": np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float),
    "y": np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]], dtype=float),
    "z": np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float),
}


def rotation_matrix(axis, turns=1):
    R = np.eye(3)
    for _ in range(turns % 4):
        R = _QUARTER[axis] @ R
    return R


def _index_maps(grid, R):
    """Integer index arrays realizing g'(k) = g(R^{-1} k) on the FFT grid."""
    if len(set(grid.dims)) != 1 or len(set(grid.spacing)) != 1:
        raise ValueError("grid-exact rotations need a cubic grid")
    n = grid.dims[0]
    idx = np.arange(n)
    # FFT index of the negated frequency
    neg = (-idx) % n
    Rinv = np.rint(R.T).astype(int)     # orthogonal with integer entries

    grids = np.meshgrid(idx, idx, idx, indexing="ij")
    maps = []
    for row in Rinv:
        ax = int(np.nonzero(row)[0][0])
        src = grids[ax] if row[ax] > 0 else neg[grids[ax]]
        maps.append(src)
    return tuple(maps)


def rotate_scalar(grid, arr, R):
    mx, my, mz = _index_maps(grid, R)
    return arr[..., mx, my, mz]


def rotate_vector_field(grid, field, R):
    """Rotate components and relabel points of a (3, ...) field."""
    rel = rotate_scalar(grid, field, R)
    return np.einsum("ij,j...->i...", R, rel)


def rotate_basis(grid, basis, R):
    """Rotate the connection and any gauge phase; e follows from the rotated chart axis."""
    phase = basis.gauge_phase
    return replace(
        basis,
        alpha_base=_readonly(rotate_vector_field(grid, basis.connection(), R)),
        gauge_phase=None if phase is None else _readonly(rotate_scalar(grid, phase, R)),
        chart_axis=_readonly(R @ basis.chart_axis),
    )


def rotate_wavefunction(wf, axis, turns=1):
    """Rotate the physical state by quarter turns about a Cartesian axis.

    Both the amplitudes and the attached basis are rotated, which keeps the
    amplitude fields numerically identical to the original in the rotated
    chart; every observable then transforms exactly.
    """
    grid = wf.grid
    R = rotation_matrix(axis, turns)
    if np.allclose(R, np.eye(3)):
        return wf
    basis = rotate_basis(grid, wf.basis, R)
    return replace(
        wf,
        gL=_readonly(rotate_scalar(grid, wf.gL, R)),
        gR=_readonly(rotate_scalar(grid, wf.gR, R)),
        basis=basis,
    )
