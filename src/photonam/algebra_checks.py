"""Numerical verification of the Poincare algebra on photon states.

Generators are realized as operators acting on wavefunctions, never as
matrices, and commutators are checked on smooth decaying test states.
Relations between pure multiplication operators hold to rounding; every
relation involving the covariant derivative carries an O(dk^2) stencil
residual that must fall by at least the second-order factor when the grid
is refined.

Every generator acts on each helicity amplitude on its own: H = hbar omega,
P = hbar k, K = i hbar omega D and J = i hbar D x k + hbar chi n, with
D = grad_k - i chi alpha (Bialynicki-Birula, "Photon wave function",
Prog. Opt. 36, 1996).  So every relation is checked one helicity at a time,
on the `_Suite` of that helicity: its amplitude g, omega, the invariant
weight w and D_x g, D_y g and D_z g, each made once.  On one helicity a
relation reduces to squared w-norms (`_Squares`): sum w |.|^2 of AB g, BA g,
the expected amplitude and the residual.  A report adds the squares of
helicity +1 and -1, in that order, and then takes the square roots.
`run_suite` runs every relation on helicity +1, then on -1, and frees the D
of the first before it derives those of the second.  `apply_generator`,
`check_commutator` and `check_curvature` take a state, or one helicity's
suite, and run a state one helicity after the other.  Either way each array
is made by the same operations, so a report is the same bit for bit.  An
amplitude derived from g (J g, say) is differentiated afresh.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import partial

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


@dataclass(frozen=True)
class _Squares:
    """One relation checked on one helicity: the squared w-norms, each ``sum w |.|^2``, its report is made of.

    `scales` holds those of AB g, BA g and, where the relation has one, of
    the expected amplitude (for [D_x, D_y], of the curvature term alone);
    `residual` that of AB g - BA g - expected.  The squares of the two
    helicities add; `report` then takes the square roots.
    """

    pair: str
    expected: str
    exact: bool
    scales: tuple
    residual: float

    def __add__(self, other):
        return replace(self, scales=tuple(a + b for a, b in zip(self.scales, other.scales)),
                       residual=self.residual + other.residual)

    def report(self):
        scale = max(math.sqrt(max(self.scales)), 1e-300)
        return CommutatorReport(pair=self.pair, expected=self.expected,
                                residual=math.sqrt(self.residual) / scale, exact=self.exact)


def _as_tag(tag):
    return tag if isinstance(tag, OperatorTag) else OperatorTag.parse(tag)


class _Suite:
    """One helicity chi of a state and what the relations checked on it share: g, omega, w and D_a g.

    The suite of a state's helicity makes omega and w, or shares those of
    the other helicity's suite, and derives each D_a g of the state's own
    amplitude once, on first use, and keeps it (one complex array an axis,
    three once all are in).  The suite of an amplitude derived from g
    (`of`) shares the state, chi, omega and w and keeps no D: such an
    amplitude is differentiated afresh.  Not locked: `run_suite` fills the
    kept D before its relations start.
    """

    def __init__(self, wf, chi, g=None, shared=None):
        self.wf, self.chi = wf, chi
        self.g = wf.components[chi] if g is None else g
        self._kept = [None] * 3 if g is None else None
        if shared is None:
            self.omega = wf.grid.omega()
            self.w = wf.grid.w_invariant()
        else:
            self.omega, self.w = shared.omega, shared.w

    def of(self, g):
        """The suite of `g`, an amplitude of this helicity derived from this one."""
        return _Suite(self.wf, self.chi, g, shared=self)

    def derivative(self, a):
        """D_a g: a kept, read-only array, or one made afresh."""
        if self._kept is None:
            return photon_state._covariant_helicity(self.wf, self.chi, a, self.g)
        if self._kept[a] is None:
            self._kept[a] = _readonly(photon_state._covariant_helicity(self.wf, self.chi, a, self.g))
        return self._kept[a]

    def square(self, g, buf):
        """``sum w |g|^2`` of an amplitude `g` of this helicity, made in `buf`, a real grid array."""
        np.abs(g, out=buf)
        buf *= buf
        buf *= self.w
        return float(np.sum(buf))


def _helicities(wf):
    """The suites of helicity +1 and -1 of the state `wf`, made one after the other; the second shares omega and w."""
    suite = None
    for chi in photon_state.HELICITIES:
        suite = _Suite(wf, chi, shared=suite)
        yield suite


def _reports(wf, run):
    """The reports of the `_Squares` lists `run(suite)` gives on each helicity of the state `wf`, added +1 then -1.

    The suite of helicity +1, and the D it keeps, are freed before that of
    -1 is made.
    """
    total = None
    for suite in _helicities(wf):
        part = run(suite)
        total = part if total is None else [t + p for t, p in zip(total, part)]
    return [t.report() for t in total]


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

    `wf` is a state, whose helicities are made one after the other, or the
    `_Suite` of one helicity in a suite of checks, which lends omega and the
    kept D and is given back that helicity's amplitude: a fresh array,
    except D_a g of the state's own amplitude, which the suite keeps
    read-only.  The grid-sized factors hbar omega and n_i of K and J are
    real, and made once the D g they multiply is in.
    """
    tag = _as_tag(tag)
    i = tag.axis
    if not isinstance(wf, _Suite):
        if tag.kind == "D":
            return photon_state.covariant_derivative_axis(wf, i)
        return _with(wf, *(apply_generator(tag, suite) for suite in _helicities(wf)))
    suite = wf
    grid = suite.wf.grid
    hbar = grid.units.hbar

    if tag.kind == "H":
        return (hbar * suite.omega) * suite.g
    if tag.kind == "P":
        return (hbar * _along(grid.k_axes[i], i)) * suite.g
    if tag.kind == "D":
        return suite.derivative(i)
    if tag.kind == "K":
        out = _times(suite.derivative(i), hbar * suite.omega)
        out *= 1j
        return out
    if tag.kind == "J":
        a, b = (i + 1) % 3, (i + 2) % 3
        k = grid.kvec
        # i hbar (D g x k)_i + hbar chi n_i g = i hbar ((D g x k)_i - i chi n_i g)
        cross_i = _times(suite.derivative(a), k[b])
        cross_i -= _times(suite.derivative(b), k[a])
        photon_state._subtract_i_times(cross_i, suite.g, grid.nhat(i), suite.chi)
        cross_i *= 1j * hbar
        return cross_i
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

    `wf` is the state psi, or the `_Suite` of one of its helicities in a
    suite of checks, which gives that helicity's `_Squares`.  AB g - BA g
    is made in AB g, and the expected amplitude only once BA g is gone.
    """
    tagA, tagB = _as_tag(tagA), _as_tag(tagB)
    if not isinstance(wf, _Suite):
        return _reports(wf, lambda suite: [check_commutator(tagA, tagB, suite)])[0]
    suite = wf
    units = suite.wf.grid.units

    found = _expected(tagA, tagB, units)
    sign = 1.0
    if found is None:
        found = _expected(tagB, tagA, units)
        sign = -1.0
        if found is None:
            raise ValueError(f"no tabulated relation for [{tagA}, {tagB}]")
    label, term = found
    if sign < 0:
        label = f"-({label})" if label != "0" else "0"

    AB = apply_generator(tagA, suite.of(apply_generator(tagB, suite)))
    BA = apply_generator(tagB, suite.of(apply_generator(tagA, suite)))
    buf = np.empty(suite.g.shape)
    scales = [suite.square(AB, buf), suite.square(BA, buf)]
    AB -= BA            # a fresh array: no suite keeps a generator of a derived amplitude
    del BA
    if term is not None:
        tag, factor = term
        expected = apply_generator(tag, suite)
        expected *= sign * factor
        scales.append(suite.square(expected, buf))
        AB -= expected
        del expected
    return _Squares(pair=f"[{tagA}, {tagB}]", expected=label,
                    exact=tagA.kind in ("H", "P") and tagB.kind in ("H", "P"),
                    scales=tuple(scales), residual=suite.square(AB, buf))


def check_curvature(wf):
    """Residual of [D_x, D_y] = i chi n_z / |k|^2 on the state (report, never raises).

    `wf` is the state, or the `_Suite` of one of its helicities in a suite
    of checks, which gives that helicity's `_Squares`, scaled by the
    curvature term itself.
    """
    if not isinstance(wf, _Suite):
        return _reports(wf, lambda suite: [check_curvature(suite)])[0]
    suite = wf
    grid = suite.wf.grid
    safe = grid.kmag() ** 2
    safe[grid.excluded_index] = 1.0
    curv = grid.nhat(2) / safe
    del safe
    term = curv * suite.g
    del curv

    res = suite.of(suite.derivative(1)).derivative(0)
    res -= suite.of(suite.derivative(0)).derivative(1)
    buf = np.empty(grid.dims)
    scale = suite.square(term, buf)
    term *= 1j * suite.chi
    res -= term
    return _Squares(pair="[Dx, Dy]", expected="i chi eps nz / k^2", exact=False,
                    scales=(scale,), residual=suite.square(res, buf))


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
    """Run the DEFAULT_SUITE commutators plus the curvature relation on one state, one helicity at a time.

    The connection of the state's basis is made first, once, so no two
    workers make it.  Then, for helicity +1 and then -1, the three D_a g of
    that helicity's `_Suite` run on the THREADS workers of
    `grids._map_threads` (default: the CPU count), one axis per worker, and
    then the ten relations do, one task each, each giving the helicity's
    `_Squares`.  The D of helicity +1 are freed before those of -1 are
    derived.  Each relation runs on one thread, and the threaded kernels it
    reaches run inline there, and the squares of the two helicities are
    added in that fixed order, so the reports are identical for any worker
    count, and equal to those of `check_commutator` and `check_curvature`
    called one at a time.
    """
    wf.basis.connection()
    checks = [partial(check_commutator, a, b) for a, b in DEFAULT_SUITE] + [check_curvature]

    def run(suite):
        _map_threads(suite.derivative, range(3))
        return _map_threads(lambda check: check(suite), checks)

    return _reports(wf, run)
