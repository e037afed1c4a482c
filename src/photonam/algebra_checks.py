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
weight w and D_x g, D_y g and D_z g, each made once and kept whole.  On one
helicity a relation reduces to squared w-norms (`_Squares`): sum w |.|^2 of
AB g, BA g, the expected amplitude and the residual.  It reduces them slab
by slab (`grids._over_slabs`): each slab region forms the four amplitudes
and their sums, and the sums of the slabs are added in slab order.  The slab
axis is one along which neither A nor B differentiates (J_i along the two
other axes, K_i and D_i along i, H and P along none), so the stencil that A
takes of B g, and B of A g, stays inside the slab.  [Jx, Jy] has no such
axis: it first builds BA g whole, on the slabs of the axis along which B
does not differentiate.  An amplitude derived from g (J g, say) is
differentiated afresh, on its slab; g itself reads its kept D, cut to the
slab.  A report adds the squares of helicity +1 and -1, in that order, and
then takes the square roots.  `run_suite` runs every relation on helicity
+1, then on -1, and frees the D of the first before it derives those of the
second.  `apply_generator`, `check_commutator` and `check_curvature` take a
state, or one helicity's suite, and run a state one helicity after the
other.  Either way each array is made by the same operations on the same
slabs, which depend on the grid alone, so a report is the same bit for bit.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import photon_state
from .grids import LEVI_CIVITA, _WHOLE, _kmag, _map_threads, _nhat, _over_slabs, _readonly

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
    `residual` that of AB g - BA g - expected.  Each is summed over the
    slabs of the relation (`_squares`), in slab order.  The squares of the
    two helicities add; `report` then takes the square roots.
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
    """One helicity chi of a state on one region of its grid, and what the relations checked on it share.

    The suite of a state's helicity spans the whole grid.  It makes omega
    and w, or shares those of the other helicity's suite, and derives each
    D_a g of the state's own amplitude once, on first use, on the slabs of
    axis a + 1 (mod 3), and keeps it whole (one complex array an axis,
    three once all are in).  `on(region)`
    gives the suite of that amplitude on a region, three slices of the grid
    axes: g, omega, w and the kept D are read through views.  `of(g)` gives
    the suite of an amplitude derived from g on the same region, which keeps
    no D: such an amplitude is differentiated afresh, on its region, which
    must span the axis of the derivative.  Not locked: a check derives the
    kept D it reads (`keep`) before its slabs run.
    """

    def __init__(self, wf, chi, shared=None):
        self.wf, self.chi, self.region = wf, chi, _WHOLE
        self.g = self._g = wf.components[chi]
        if shared is None:
            self.omega = self._omega = wf.grid.omega()
            self.w = self._w = wf.grid.w_invariant()
        else:
            self.omega = self._omega = shared._omega
            self.w = self._w = shared._w
        self._own, self._kept = True, [None] * 3

    def on(self, region):
        """The suite of the state's own amplitude on `region`."""
        return self._cut(region, self._g[region], own=True)

    def of(self, g):
        """The suite of `g`, an amplitude of this helicity on this region derived from this one."""
        return self._cut(self.region, g, own=False)

    def _cut(self, region, g, own):
        cut = copy.copy(self)       # shares the whole arrays and the list of kept D
        cut.region, cut.g, cut._own = region, g, own
        cut.omega, cut.w = self._omega[region], self._w[region]
        return cut

    def keep(self, *tags):
        """Derive the kept D_a g that the generators `tags` read of the state's own amplitude."""
        for a in sorted(set().union(*map(_differentiated, tags))):
            self.derivative(a)

    def derivative(self, a):
        """D_a g on the region: a read-only view of a kept array, or one made afresh."""
        if not self._own:
            return photon_state._covariant_helicity(self.wf, self.chi, a, self.g, self.region)
        kept = self._kept
        if kept[a] is None:
            d = np.empty(self._g.shape, dtype=complex)

            def fill(region):
                d[region] = photon_state._covariant_helicity(self.wf, self.chi, a, self._g[region], region)

            _over_slabs(self.wf.grid, (a + 1) % 3, fill)     # its slabs span axis a, which the stencil reads along
            kept[a] = _readonly(d)
        return kept[a][self.region]

    def k(self, ax):
        """k_ax on the region: a read-only zero-stride view (`GridPair.kvec`)."""
        return self.wf.grid.kvec[ax][self.region]

    def square(self, g, buf):
        """``sum w |g|^2`` of an amplitude `g` of this helicity on the region, made in `buf`, a real array of its shape."""
        np.abs(g, out=buf)
        buf *= buf
        buf *= self.w
        return float(np.sum(buf))


def _differentiated(tag):
    """The grid axes along which the generator `tag` differentiates: J_i the two others, K_i and D_i axis i."""
    if tag.kind == "J":
        return {(tag.axis + 1) % 3, (tag.axis + 2) % 3}
    return {tag.axis} if tag.kind in ("K", "D") else set()


def _free_axis(*tags):
    """The first grid axis along which none of the generators `tags` differentiates, or None."""
    busy = set().union(*map(_differentiated, tags))
    return next((ax for ax in range(3) if ax not in busy), None)


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


def _times(d, f):
    """``d * f``, made in `d` itself when `d` is a fresh array rather than one a suite keeps."""
    if not d.flags.writeable:
        return d * f
    d *= f
    return d


def apply_generator(tag, wf):
    """Apply H = hbar w, P = hbar k, J = i hbar D x k + hbar chi n, K = i hbar w D.

    `wf` is a state, whose helicities are made one after the other, or the
    `_Suite` of one helicity on a region in a suite of checks, which lends
    omega and the kept D and is given back that helicity's amplitude on its
    region: a fresh array, except D_a g of the state's own amplitude, a
    read-only view of the array the suite keeps.  The real factors hbar
    omega, k and n_i of K and J are cut to the region, and made once the
    D g they multiply is in.
    """
    tag = _as_tag(tag)
    i = tag.axis
    if not isinstance(wf, _Suite):
        gL, gR = (apply_generator(tag, suite) for suite in _helicities(wf))
        return replace(wf, gL=_readonly(gL), gR=_readonly(gR))
    suite = wf
    hbar = suite.wf.grid.units.hbar

    if tag.kind == "H":
        return (hbar * suite.omega) * suite.g
    if tag.kind == "P":
        return (hbar * suite.k(i)) * suite.g
    if tag.kind == "D":
        return suite.derivative(i)
    if tag.kind == "K":
        out = _times(suite.derivative(i), hbar * suite.omega)
        out *= 1j
        return out
    if tag.kind == "J":
        a, b = (i + 1) % 3, (i + 2) % 3
        # i hbar (D g x k)_i + hbar chi n_i g = i hbar ((D g x k)_i - i chi n_i g)
        cross_i = _times(suite.derivative(a), suite.k(b))
        cross_i -= _times(suite.derivative(b), suite.k(a))
        photon_state._subtract_i_times(cross_i, suite.g, _nhat(suite.wf.grid, i, suite.region), suite.chi)
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


def _product(tagA, tagB, suite):
    """A B g of the amplitude g of `suite`, on its region, which must span every axis along which A differentiates."""
    return apply_generator(tagA, suite.of(apply_generator(tagB, suite)))


def _squares(suite, tagA, tagB, expected):
    """sum w |.|^2 of AB g, BA g, the expected amplitude and AB g - BA g - expected, on the helicity of `suite`.

    `suite` spans the whole grid and keeps the D that A, B and the expected
    amplitude read of its g; `expected(block)` gives that amplitude on the
    suite of a region, or is None (its square is then 0).  Each slab region
    of an axis along which neither A nor B differentiates forms the four
    amplitudes, AB g - BA g - expected in AB g, and their sums; the sums of
    the slabs are added in slab order.  Without such an axis, BA g is first
    built whole, on the slabs of the axis B leaves alone, and each slab of
    the axis A leaves alone reads its block.
    """
    grid = suite.wf.grid
    axis = _free_axis(tagA, tagB)
    BA = None
    if axis is None:
        BA = np.empty(grid.dims, dtype=complex)

        def fill(region):
            BA[region] = _product(tagB, tagA, suite.on(region))

        _over_slabs(grid, _free_axis(tagB), fill)
        axis = _free_axis(tagA)

    def reduce(region):
        block = suite.on(region)
        AB = _product(tagA, tagB, block)
        ba = _product(tagB, tagA, block) if BA is None else BA[region]
        buf = np.empty(AB.shape)
        squares = [block.square(AB, buf), block.square(ba, buf), 0.0]
        AB -= ba            # a fresh array: no suite keeps a generator of a derived amplitude
        del ba
        if expected is not None:
            term = expected(block)
            squares[2] = block.square(term, buf)
            AB -= term
            del term
        return (*squares, block.square(AB, buf))

    return _over_slabs(grid, axis, reduce)


def check_commutator(tagA, tagB, wf):
    """Residual of [A, B] psi against the Poincare table (report, never raises).

    `wf` is the state psi, or the whole-grid `_Suite` of one of its
    helicities in a suite of checks, which gives that helicity's
    `_Squares`, reduced slab by slab (`_squares`).
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

    expected = None
    if term is not None:
        tag, factor = term
        suite.keep(tag)

        def expected(block):
            out = apply_generator(tag, block)
            out *= sign * factor
            return out

    suite.keep(tagA, tagB)
    ab, ba, ex, residual = _squares(suite, tagA, tagB, expected)
    return _Squares(pair=f"[{tagA}, {tagB}]", expected=label,
                    exact=tagA.kind in ("H", "P") and tagB.kind in ("H", "P"),
                    scales=(ab, ba) if term is None else (ab, ba, ex), residual=residual)


def check_curvature(wf):
    """Residual of [D_x, D_y] = i chi n_z / |k|^2 on the state (report, never raises).

    `wf` is the state, or the whole-grid `_Suite` of one of its helicities
    in a suite of checks, which gives that helicity's `_Squares`, scaled by
    the curvature term itself and reduced slab by slab (`_squares`).
    """
    if not isinstance(wf, _Suite):
        return _reports(wf, lambda suite: [check_curvature(suite)])[0]
    suite = wf
    grid = suite.wf.grid
    Dx, Dy = OperatorTag("D", 0), OperatorTag("D", 1)

    def expected(block):
        safe = _kmag(grid, block.region)
        safe *= safe
        curv = _nhat(grid, 2, block.region)
        curv /= safe
        del safe
        term = curv * block.g
        del curv
        term *= 1j * suite.chi
        return term

    suite.keep(Dx, Dy)
    _, _, scale, residual = _squares(suite, Dx, Dy, expected)
    return _Squares(pair="[Dx, Dy]", expected="i chi eps nz / k^2", exact=False,
                    scales=(scale,), residual=residual)


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
    derived.  Each relation runs on one thread, where its slabs
    (`grids._over_slabs`) and the threaded kernels it reaches run inline,
    so a worker holds a slab's scratch at a time.  The slabs depend on the
    grid alone, and the squares of the slabs and of the two helicities are
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
