"""Numerical verification of the Poincare algebra on photon states.

Generators are realized as operators acting on wavefunctions, never as
matrices, and commutators are checked on smooth decaying test states.
Relations between pure multiplication operators hold to rounding; every
relation involving the covariant derivative carries an O(dk^2) stencil
residual that must fall by at least the second-order factor when the grid
is refined.

The relations checked on one state share what they read of it, in the
state's `_Suite`: omega, the invariant weight w and the covariant
derivatives D_x psi, D_y psi and D_z psi, each made once.  `run_suite`
makes all of them before its pairs start and hands the suite to every pair
and to the curvature check; `apply_generator`, `check_commutator` and
`check_curvature` take a state or its suite, and make a one-off suite of a
state.  Either way each array is made by the same operations, so a report
is the same bit for bit.  A state derived from psi (J psi, say) is
differentiated afresh, one helicity at a time where J or K reads it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from . import photon_state
from .grids import LEVI_CIVITA, _along, _map_threads, _readonly

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


class _Suite:
    """A state and what the relations checked on it share: omega, w and the state's own D_a psi.

    The suite of a checked state makes omega and w once and derives each
    D_a psi once, on first use, and keeps it (two complex arrays an axis,
    six once all three are in).  The suite of a state derived from it
    (`of`) shares its omega and w and keeps no D: such a state is
    differentiated afresh.  Not locked: `run_suite` fills the kept D before
    its pairs start.
    """

    def __init__(self, wf, shared=None):
        self.wf = wf
        if shared is None:
            self.omega = wf.grid.omega()
            self.w = wf.grid.w_invariant()
            self._kept = [None] * 3
        else:
            self.omega, self.w = shared.omega, shared.w
            self._kept = None

    def of(self, wf):
        """The suite of `wf`, a state derived from this one."""
        return _Suite(wf, shared=self)

    def norm(self, wf):
        """The norm ``sqrt(sum w (|gL|^2 + |gR|^2))`` of `wf`, a state at the suite's time, with the suite's w.

        The integrand conj(g) g of each helicity is made in place, so two
        complex arrays are the whole of its scratch.
        """
        integrand = np.conjugate(wf.gL)
        integrand *= wf.gL
        part = np.conjugate(wf.gR)
        part *= wf.gR
        integrand += part
        del part
        integrand *= self.w
        return float(np.sqrt(max(complex(np.sum(integrand)).real, 0.0)))

    def derivative(self, a):
        """D_a of the state, both helicities."""
        if self._kept is None:
            return photon_state.covariant_derivative_axis(self.wf, a)
        if self._kept[a] is None:
            self._kept[a] = photon_state.covariant_derivative_axis(self.wf, a)
        return self._kept[a]

    def derivative_helicity(self, chi, a):
        """D_a g of helicity `chi` alone: a kept array, or one made afresh."""
        if self._kept is None:
            return photon_state._covariant_helicity(self.wf, chi, a)
        return self.derivative(a).components[chi]


def _suite(wf):
    """`wf` if it is a `_Suite` already, else a one-off suite of the state `wf`."""
    return wf if isinstance(wf, _Suite) else _Suite(wf)


def _with(wf, gL, gR):
    return replace(wf, gL=_readonly(gL), gR=_readonly(gR))


def _times(d, f):
    """``d * f``, made in `d` itself when `d` is a fresh array rather than one a suite keeps."""
    if not d.flags.writeable:
        return d * f
    d *= f
    return d


def apply_generator(tag, wf):
    """Apply H = hbar w, P = hbar k, J = i hbar D x k + hbar chi n, K = i hbar w D.

    `wf` is a state, or its `_Suite` when the state is one of a suite of
    checks, which lends omega and the kept D.  K and J are made one helicity
    at a time, each holding only the D g of that helicity that it reads,
    and their grid-sized factors i hbar omega and n_i are made for each
    helicity once its D g is in.
    """
    tag = _as_tag(tag)
    suite = _suite(wf)
    wf = suite.wf
    grid = wf.grid
    hbar = grid.units.hbar
    i = tag.axis

    if tag.kind == "H":
        f = hbar * suite.omega
        return _with(wf, f * wf.gL, f * wf.gR)
    if tag.kind == "P":
        f = hbar * _along(grid.k_axes[i], i)
        return _with(wf, f * wf.gL, f * wf.gR)
    if tag.kind == "D":
        return suite.derivative(i)
    if tag.kind == "K":
        return _with(wf, *(_times(suite.derivative_helicity(chi, i), 1j * hbar * suite.omega)
                           for chi in photon_state.HELICITIES))
    if tag.kind == "J":
        a, b = (i + 1) % 3, (i + 2) % 3
        k = grid.kvec
        out = []
        for chi in photon_state.HELICITIES:
            cross_i = _times(suite.derivative_helicity(chi, a), k[b])
            cross_i -= _times(suite.derivative_helicity(chi, b), k[a])
            cross_i *= 1j * hbar
            cross_i += hbar * chi * grid.nhat(i) * wf.components[chi]
            out.append(cross_i)
        return _with(wf, *out)
    raise ValueError(f"unknown operator kind {tag.kind}")


# expected commutators, canonical order; c = speed of light, h = hbar
def _expected(tagA, tagB, units):
    """Return (label, None or (tag, factor)) for [A, B] in canonical order: [A, B] = factor * tag."""
    h = units.hbar
    c = units.c
    A, B = tagA, tagB

    if {A.kind, B.kind} <= {"H", "P"}:
        return "0", None
    if A.kind == "H" and B.kind == "J":
        return "0", None
    if A.kind == "H" and B.kind == "K":
        return f"-i hbar c P{'xyz'[B.axis]}", (OperatorTag("P", B.axis), -1j * h * c)
    if A.kind == "J" and B.kind == "J":
        if A.axis == B.axis:
            return "0", None
        l = 3 - A.axis - B.axis
        s = LEVI_CIVITA[A.axis, B.axis, l]
        return f"i hbar eps J{'xyz'[l]}", (OperatorTag("J", l), 1j * h * s)
    if A.kind == "K" and B.kind == "K":
        if A.axis == B.axis:
            return "0", None
        l = 3 - A.axis - B.axis
        s = LEVI_CIVITA[A.axis, B.axis, l]
        return f"-i hbar c^2 eps J{'xyz'[l]}", (OperatorTag("J", l), -1j * h * c * c * s)
    if A.kind == "J" and B.kind in ("P", "K"):
        if A.axis == B.axis:
            return "0", None
        l = 3 - A.axis - B.axis
        s = LEVI_CIVITA[A.axis, B.axis, l]
        return f"i hbar eps {B.kind}{'xyz'[l]}", (OperatorTag(B.kind, l), 1j * h * s)
    if A.kind == "K" and B.kind == "P":
        if A.axis != B.axis:
            return "0", None
        return "i hbar H", (OperatorTag("H"), 1j * h)
    return None


def check_commutator(tagA, tagB, wf):
    """Residual of [A, B] psi against the Poincare table (report, never raises).

    `wf` is the state psi, or its `_Suite` in a suite of checks.  The
    expected state is made only once AB - BA is reduced to its difference,
    so AB and BA are gone by then.
    """
    tagA, tagB = _as_tag(tagA), _as_tag(tagB)
    suite = _suite(wf)
    units = suite.wf.grid.units

    found = _expected(tagA, tagB, units)
    sign = 1.0
    if found is None:
        found = _expected(tagB, tagA, units)
        sign = -1.0
        if found is None:
            raise ValueError(f"no tabulated relation for [{tagA}, {tagB}]")
    label, term = found

    AB = apply_generator(tagA, suite.of(apply_generator(tagB, suite)))
    BA = apply_generator(tagB, suite.of(apply_generator(tagA, suite)))
    scales = [suite.norm(AB), suite.norm(BA)]
    diff_L = AB.gL - BA.gL
    diff_R = AB.gR - BA.gR
    del AB, BA
    if term is not None:
        tag, factor = term
        g = apply_generator(tag, suite)
        expected_wf = _with(g, factor * g.gL, factor * g.gR)
        del g
        diff_L -= sign * expected_wf.gL
        diff_R -= sign * expected_wf.gR
        scales.append(suite.norm(expected_wf))
        del expected_wf

    resid_norm = float(np.sqrt(np.sum(suite.w * (np.abs(diff_L) ** 2 + np.abs(diff_R) ** 2))))
    scale = max(max(scales), 1e-300)

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
    """Residual of [D_x, D_y] = i chi n_z / |k|^2 on the state.

    `wf` is the state, or its `_Suite` in a suite of checks.  D_x D_y psi
    and D_y D_x psi are made one helicity at a time.
    """
    suite = _suite(wf)
    wf = suite.wf
    grid = wf.grid
    Dy = suite.derivative(1)
    Dx = suite.derivative(0)

    safe = grid.kmag() ** 2
    safe[grid.excluded_index] = 1.0
    curv = grid.nhat(2) / safe
    del safe

    res = {}
    for chi in photon_state.HELICITIES:
        res[chi] = photon_state._covariant_helicity(Dy, chi, 0)
        res[chi] -= photon_state._covariant_helicity(Dx, chi, 1)
        res[chi] -= 1j * chi * curv * wf.components[chi]
    w = suite.w
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

    Every relation is handed one `_Suite` of the state: omega, w and the
    covariant derivatives D_x psi, D_y psi and D_z psi.  All of them, and
    the connection of the state's basis, are made once, before the pairs
    start, so no two workers make them.  The three derivatives run on the
    THREADS workers of `grids._map_threads` (default: the CPU count), one
    axis per worker, and then the pairs do.  Each pair is computed on one
    thread, and the threaded kernels it reaches run inline there, so the
    reports are identical for any worker count, and equal to those of
    `check_commutator` and `check_curvature` called one at a time.
    """
    wf.basis.connection()
    suite = _Suite(wf)
    _map_threads(suite.derivative, range(3))
    reports = _map_threads(lambda p: check_commutator(p[0], p[1], suite), DEFAULT_SUITE)
    return reports + [check_curvature(suite)]
