"""Numerical verification of the Poincare algebra on photon states.

Generators are realized as operators acting on wavefunctions, never as
matrices, and commutators are checked on smooth decaying test states.
Relations between pure multiplication operators hold to rounding; every
relation involving the covariant derivative carries an O(dk^2) stencil
residual that must fall by at least the second-order factor when the grid
is refined.
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import photon_state
from .grids import LEVI_CIVITA, _readonly

_AXES = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class OperatorTag:
    """One of the generators H, P_i, J_i, K_i or a covariant derivative D_i."""

    kind: str               # 'H', 'P', 'J', 'K', 'D'
    axis: int = None        # 0..2 for all kinds except 'H'

    @classmethod
    def parse(cls, label):
        m = re.fullmatch(r"(H)|([PJKD])([xyz])", label)
        if not m:
            raise ValueError(f"unknown operator label {label!r}")
        if m.group(1):
            return cls(kind="H")
        return cls(kind=m.group(2), axis=_AXES[m.group(3)])

    def __str__(self):
        return self.kind if self.kind == "H" else self.kind + "xyz"[self.axis]


@dataclass(frozen=True)
class CommutatorReport:
    """Residual of one commutation relation on one test state."""

    pair: str                   # e.g. "[Jx, Jy]"
    expected: str               # e.g. "i hbar Jz"
    residual: float             # scale-normalized, dimensionless
    exact: bool                 # True when no derivative is involved


def _as_tag(tag):
    return tag if isinstance(tag, OperatorTag) else OperatorTag.parse(tag)


def apply_generator(tag, wf):
    """Apply H = hbar w, P = hbar k, J = i hbar D x k + hbar chi n, K = i hbar w D."""
    tag = _as_tag(tag)
    grid = wf.grid
    hbar = grid.units.hbar

    if tag.kind == "H":
        f = hbar * grid.omega()
        return replace(wf, gL=_readonly(f * wf.gL), gR=_readonly(f * wf.gR))
    if tag.kind == "P":
        f = hbar * grid.kvec[tag.axis]
        return replace(wf, gL=_readonly(f * wf.gL), gR=_readonly(f * wf.gR))

    # only the D axes the generator reads
    i = tag.axis
    if tag.kind == "D":
        return photon_state.covariant_derivative_axis(wf, i)
    if tag.kind == "K":
        Di = photon_state.covariant_derivative_axis(wf, i)
        f = 1j * hbar * grid.omega()
        return replace(wf, gL=_readonly(f * Di.gL), gR=_readonly(f * Di.gR))
    if tag.kind == "J":
        a, b = (i + 1) % 3, (i + 2) % 3
        Da = photon_state.covariant_derivative_axis(wf, a)
        Db = photon_state.covariant_derivative_axis(wf, b)
        k = grid.kvec
        n_i = grid.nhat(i)
        out = {}
        for chi in photon_state.HELICITIES:
            g = wf.components[chi]
            cross_i = Da.components[chi] * k[b] - Db.components[chi] * k[a]
            out[chi] = 1j * hbar * cross_i + hbar * chi * n_i * g
        return replace(wf, gL=_readonly(out[+1]), gR=_readonly(out[-1]))
    raise ValueError(f"unknown operator kind {tag.kind}")


# expected commutators, canonical order; c = speed of light, h = hbar
def _expected(tagA, tagB, wf):
    """Return (label, wavefunction or None) for [A, B] in canonical order."""
    grid = wf.grid
    h = grid.units.hbar
    c = grid.units.c
    A, B = tagA, tagB

    def scaled(tag, factor):
        g = apply_generator(tag, wf)
        return replace(g, gL=_readonly(factor * g.gL), gR=_readonly(factor * g.gR))

    if {A.kind, B.kind} <= {"H", "P"}:
        return "0", None
    if A.kind == "H" and B.kind == "J":
        return "0", None
    if A.kind == "H" and B.kind == "K":
        return f"-i hbar c P{'xyz'[B.axis]}", scaled(OperatorTag("P", B.axis), -1j * h * c)
    if A.kind == "J" and B.kind == "J":
        if A.axis == B.axis:
            return "0", None
        l = 3 - A.axis - B.axis
        s = LEVI_CIVITA[A.axis, B.axis, l]
        return f"i hbar eps J{'xyz'[l]}", scaled(OperatorTag("J", l), 1j * h * s)
    if A.kind == "K" and B.kind == "K":
        if A.axis == B.axis:
            return "0", None
        l = 3 - A.axis - B.axis
        s = LEVI_CIVITA[A.axis, B.axis, l]
        return f"-i hbar c^2 eps J{'xyz'[l]}", scaled(OperatorTag("J", l), -1j * h * c * c * s)
    if A.kind == "J" and B.kind in ("P", "K"):
        if A.axis == B.axis:
            return "0", None
        l = 3 - A.axis - B.axis
        s = LEVI_CIVITA[A.axis, B.axis, l]
        return f"i hbar eps {B.kind}{'xyz'[l]}", scaled(OperatorTag(B.kind, l), 1j * h * s)
    if A.kind == "K" and B.kind == "P":
        if A.axis != B.axis:
            return "0", None
        return "i hbar H", scaled(OperatorTag("H"), 1j * h)
    return None


def check_commutator(tagA, tagB, wf):
    """Residual of [A, B] psi against the Poincare table (report, never raises)."""
    tagA, tagB = _as_tag(tagA), _as_tag(tagB)
    grid = wf.grid

    found = _expected(tagA, tagB, wf)
    sign = 1.0
    if found is None:
        found = _expected(tagB, tagA, wf)
        sign = -1.0
        if found is None:
            raise ValueError(f"no tabulated relation for [{tagA}, {tagB}]")
    label, expected_wf = found

    AB = apply_generator(tagA, apply_generator(tagB, wf))
    BA = apply_generator(tagB, apply_generator(tagA, wf))
    diff_L = AB.gL - BA.gL
    diff_R = AB.gR - BA.gR
    scale_states = [AB, BA]
    if expected_wf is not None:
        diff_L = diff_L - sign * expected_wf.gL
        diff_R = diff_R - sign * expected_wf.gR
        scale_states.append(expected_wf)

    w = grid.w_invariant()
    resid_norm = float(np.sqrt(np.sum(w * (np.abs(diff_L) ** 2 + np.abs(diff_R) ** 2))))
    scale = max(photon_state.norm(s) for s in scale_states)
    scale = max(scale, 1e-300)

    exact = tagA.kind in ("H", "P") and tagB.kind in ("H", "P")
    if sign < 0:
        label = f"-({label})" if label != "0" else "0"
    return CommutatorReport(
        pair=f"[{tagA}, {tagB}]",
        expected=label,
        residual=resid_norm / scale,
        exact=exact,
    )


def check_curvature(wf):
    """Residual of [D_x, D_y] = i chi n_z / |k|^2 on the state."""
    grid = wf.grid
    Dy = photon_state.covariant_derivative_axis(wf, 1)
    Dx = photon_state.covariant_derivative_axis(wf, 0)
    Dx_of_Dy = photon_state.covariant_derivative_axis(Dy, 0)
    Dy_of_Dx = photon_state.covariant_derivative_axis(Dx, 1)
    del Dy, Dx

    safe = grid.kmag() ** 2
    safe[grid.excluded_index] = 1.0
    curv = grid.nhat(2) / safe

    res = {}
    for chi in photon_state.HELICITIES:
        comm = Dx_of_Dy.components[chi] - Dy_of_Dx.components[chi]
        res[chi] = comm - 1j * chi * curv * wf.components[chi]
    w = grid.w_invariant()
    resid_norm = float(np.sqrt(np.sum(w * (np.abs(res[+1]) ** 2 + np.abs(res[-1]) ** 2))))
    # scale: curvature term itself
    curv_norm = float(np.sqrt(np.sum(w * (np.abs(curv * wf.gL) ** 2 + np.abs(curv * wf.gR) ** 2))))
    return CommutatorReport(
        pair="[Dx, Dy]",
        expected="i chi eps nz / k^2",
        residual=resid_norm / max(curv_norm, 1e-300),
        exact=False,
    )


#: a representative sample of every relation family
DEFAULT_SUITE = (
    ("Px", "Py"),
    ("H", "Px"),
    ("H", "Jz"),
    ("Jx", "Jy"),
    ("Jx", "Py"),
    ("Jx", "Ky"),
    ("Kx", "Px"),
    ("H", "Kx"),
    ("Kx", "Ky"),
)


def run_suite(wf):
    """Run the DEFAULT_SUITE commutators plus the curvature relation on one state.

    The pairs run on a pool of THREADS workers (default: the CPU count).
    Each pair is computed on one thread, so the reports are identical for
    any worker count.  The connection of the state's basis is derived
    before the pool starts, so no two workers derive it.
    """
    wf.basis.connection()
    workers = max(1, int(os.environ.get("THREADS") or os.cpu_count() or 1))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        reports = list(pool.map(lambda p: check_commutator(p[0], p[1], wf), DEFAULT_SUITE))
    return reports + [check_curvature(wf)]
