"""Benchmark states: regularized Bessel beams and Gaussian vortex packets.

The Bessel beam of total z angular-momentum index ``m``, longitudinal
wavenumber ``k_z`` and helicity ``chi`` is built directly as the transverse
helicity eigenstate

    E(k) ~ -sqrt(2) e_z(k) exp(i m phi)     (chi = +1; e_z* for chi = -1)

from e_z = (theta_hat + i phi_hat)/sqrt(2) about the beam axis z, the column
``(-(k_z/k) cos(phi) + i chi sin(phi), -(k_z/k) sin(phi) - i chi cos(phi), k_perp/k)``,
with the momentum-cone delta functions replaced by Gaussians of widths
``(sigma_perp, sigma_z)``, and projected onto the target basis, one k_x slab
at a time, as it is built.  The ideal beam is non-normalizable (infinite
transverse extent), but per-photon ratios such as Jo_z/Js_z converge as the
widths shrink; `bessel_ratio_oracle` gives the limit in closed form.

The Gaussian packet writes cL env and cR env straight into gL and gR, one
k_x slab at a time.  Each factory sums its slabs' shares of the photon
number as it fills them, and one step rescales the arrays in place and
makes them read-only (`_normalized`), so a beam is never copied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import photon_state
from .grids import _along, _in_region, _over_slabs, _pairwise, check_boundary_decay
from .polarization import chart_basis


@dataclass(frozen=True)
class BesselSpec:
    """Parameters of a regularized Bessel beam (all wavenumber units)."""

    k_perp0: float
    k_z0: float
    m: int
    helicity: int
    sigma_perp: float
    sigma_z: float

    @property
    def k0(self):
        return float(np.hypot(self.k_perp0, self.k_z0))

    @property
    def kz_over_k(self):
        return self.k_z0 / self.k0

    def validate(self, grid):
        """Refuse, before any grid-sized allocation, a beam that `grid` cannot resolve.

        The widths must span two grid steps, the ring must keep 4 widths
        clear of the beam axis, and its 4-sigma tails must stay inside the
        Nyquist box: k_perp0 + 4 sigma_perp within the transverse Nyquist
        wavenumbers and |k_z0| + 4 sigma_z within that of z.
        """
        if not np.all(np.isfinite((self.k_perp0, self.k_z0, self.sigma_perp, self.sigma_z))):
            raise ValueError("Bessel beam parameters must be finite")
        if self.k_perp0 <= 0:
            raise ValueError("k_perp0 must be positive")
        if self.sigma_perp <= 0 or self.sigma_z <= 0:
            raise ValueError("regularization widths must be positive")
        if self.helicity not in (+1, -1):
            raise ValueError("helicity must be +1 or -1")
        if self.k0 <= 0:
            raise ValueError("total wavenumber must be positive")
        dk = max(grid.dk)
        if min(self.sigma_perp, self.sigma_z) < 2.0 * dk:
            raise ValueError("ring unresolvable: widths must be at least 2 grid steps")
        if self.k_perp0 < 4.0 * max(self.sigma_perp, self.sigma_z):
            # the column and the m-winding are singular on the beam axis
            raise ValueError("ring unresolvable: k_perp0 must exceed 4 regularization widths")
        nyq = [np.pi / d for d in grid.spacing]
        if self.k_perp0 + 4.0 * self.sigma_perp > min(nyq[0], nyq[1]):
            raise ValueError("ring unresolvable: k_perp0 + 4 sigma_perp crosses the transverse grid boundary")
        if abs(self.k_z0) + 4.0 * self.sigma_z > nyq[2]:
            raise ValueError("ring unresolvable: |k_z0| + 4 sigma_z crosses the k_z grid boundary")


def bessel_ratio_oracle(m, kz_over_k, helicity):
    """Narrow-width limit of the signed ratio Jo_z / Js_z.

    Equals ``m k / (chi k_z) - 1``: for helicity +1 this is ``m k/k_z - 1``;
    for helicity -1 the spin component is negative and the magnitude of the
    ratio is ``m k/k_z + 1``.  At k_z = 0 the spin has no z component and
    the ratio is undefined.
    """
    den = helicity * kz_over_k
    if den == 0:
        raise ValueError(f"Jo_z/Js_z is undefined for helicity {helicity} and kz_over_k {kz_over_k}")
    return m / den - 1.0


def _pole_line_distance(points, axis):
    """Distance of k-space points from the line through the origin along axis."""
    proj = points @ axis
    return np.sqrt(np.maximum(np.einsum("ij,ij->i", points, points) - proj ** 2, 0.0))


def bessel_beam(grid, basis, spec, photons=1.0):
    """Regularized Bessel beam as a PhotonWaveFunction.

    E(k) is built as an exact helicity eigenstate from the circular basis
    about z and projected onto the basis in its current gauge,
    ``gL = sqrt(2 eps0) e*.E(k)`` and ``gR = sqrt(2 eps0) e.E(k)``, so the
    opposite-helicity amplitude is at rounding level for any chart.  Each
    k_x slab builds its own E(k) column and projects it on the THREADS
    workers, so no (3, N) E(k) exists, and sums its share of the photon
    number.  Its decay at the momentum boundary is measured
    (`BoundaryDecayWarning`).  With `photons` set, the state is rescaled to
    that photon number; pass None to keep the raw amplitude.
    """
    grid.require_same(basis.grid, "the beam's grid and the polarization basis")
    spec.validate(grid)
    _check_photons(photons)

    # chart poles must stay clear of the regularized ring
    nring = 64
    phis = np.linspace(0.0, 2.0 * np.pi, nring, endpoint=False)
    ring = np.stack([
        spec.k_perp0 * np.cos(phis),
        spec.k_perp0 * np.sin(phis),
        np.full(nring, spec.k_z0),
    ], axis=1)
    if _pole_line_distance(ring, basis.chart_axis).min() < 4.0 * max(spec.sigma_perp, spec.sigma_z):
        raise ValueError("pole collision: chart axis passes through the regularized ring")

    e_z = chart_basis(grid, (0.0, 0.0, 1.0))
    gL = np.empty(grid.dims, dtype=complex)
    gR = np.empty(grid.dims, dtype=complex)
    s = np.sqrt(2.0 * grid.units.eps0)

    # E(k) is -sqrt(2) e_z (chi = +1) or -sqrt(2) e_z* (chi = -1) times the
    # envelope and the winding e^{i m phi} = ((k_x +- i k_y)/k_perp)^|m|,
    # shared by the three components; phi = 0 on the beam axis, the azimuth
    # of the pole limit of e_z.  k_perp and the winding are (k_x, k_y)
    # planes, broadcast along k_z.  The amplitude -sqrt(2) envelope winding
    # is made afresh for each component, in the buffer its products then
    # use, and e_z and e come from one chart geometry each per slab.
    def column(region):
        kx, ky, kz = (_along(a, ax) for ax, a in enumerate(_in_region(grid.k_axes, region)))
        kperp = np.hypot(kx, ky)
        envelope = np.exp(
            -((kperp - spec.k_perp0) ** 2) / (2.0 * spec.sigma_perp ** 2)
            - ((kz - spec.k_z0) ** 2) / (2.0 * spec.sigma_z ** 2)
        )
        envelope *= -np.sqrt(2.0)
        winding = np.divide(kx + 1j * np.sign(spec.m) * ky, kperp, out=np.ones(kperp.shape, dtype=complex),
                            where=kperp > 0.0)
        del kperp
        winding **= abs(spec.m)
        L, R = gL[region], gR[region]
        L[...] = 0.0
        R[...] = 0.0
        E_i, e_i, tmp = (np.empty(L.shape, dtype=complex) for _ in range(3))
        components = zip(e_z._e_slabs(region, [(i, E_i) for i in range(3)]),
                         basis._e_slabs(region, [(i, e_i) for i in range(3)]))
        for _ in components:
            if spec.helicity < 0:
                np.conjugate(E_i, out=E_i)
            E_i *= np.multiply(envelope, winding, out=tmp)
            np.conjugate(e_i, out=tmp)
            tmp *= E_i
            L += tmp
            e_i *= E_i
            R += e_i
        del E_i, e_i, tmp, envelope
        L *= s
        R *= s
        return [photon_state._photons_on(grid, L, R, region)]

    wf = _normalized(grid, basis, gL, gR, _over_slabs(grid, 0, column), photons)
    check_boundary_decay((wf.gL, wf.gR), "Bessel beam", "k")
    return wf


def gaussian_vortex(grid, basis, center, widths, m=0, helicity="L",
                    r_offset=None, photons=None):
    """Smooth Gaussian packet, optionally with a vortex winding about z.

    ``g(k) ~ ((k_x + i sgn(m) k_y)/sigma)^{|m|} exp(-|k-k0|^2 / (2 sigma^2))``
    with per-axis widths; the vortex prefactor is polynomial in k, so the
    state is smooth everywhere.  `helicity` is "L", "R", +1, -1 or a complex
    pair (cL, cR); `r_offset` displaces the packet in real space through a
    linear momentum phase.

    This is the package's stock factory for smooth decaying test states;
    keep the center several widths away from the chart axis, the origin and
    the grid boundary.  The packet is filled in k_x slabs on the THREADS
    workers, which also sum its photon number.  Its decay at the momentum
    boundary is measured (`BoundaryDecayWarning`).  With `photons` set, the
    state is rescaled to that photon number.
    """
    center, widths = _check_packet(grid, center, widths)
    _check_photons(photons)
    sig_max = float(widths.max())
    distance = _pole_line_distance(center[None, :], basis.chart_axis)[0]
    if distance < 2.0 * sig_max:
        raise ValueError(f"packet center too close to the chart axis: it lies {distance:.4g} from the axis, "
                         f"and the packet needs two widths, {2.0 * sig_max:.4g}")

    cL, cR = _helicity_amplitudes(helicity)
    sgn = 1.0 if m > 0 else -1.0
    r0 = None if r_offset is None else np.asarray(r_offset, dtype=float)
    gL = np.empty(grid.dims, dtype=complex)
    gR = np.empty(grid.dims, dtype=complex)

    # the envelope of each k_x slab is written into gL, scaled there to cL env and cR env
    def fill(region):
        kx, ky, kz = (_along(a, ax) for ax, a in enumerate(_in_region(grid.k_axes, region)))
        L, R = gL[region], gR[region]
        L[...] = np.exp(
            -((kx - center[0]) ** 2) / (2.0 * widths[0] ** 2)
            - ((ky - center[1]) ** 2) / (2.0 * widths[1] ** 2)
            - ((kz - center[2]) ** 2) / (2.0 * widths[2] ** 2)
        )
        if m:
            L *= ((kx + 1j * sgn * ky) / sig_max) ** abs(m)
        if r0 is not None:
            L *= np.exp(-1j * (kx * r0[0] + ky * r0[1] + kz * r0[2]))
        np.multiply(cR, L, out=R)
        np.multiply(cL, L, out=L)
        return [photon_state._photons_on(grid, L, R, region)]

    wf = _normalized(grid, basis, gL, gR, _over_slabs(grid, 0, fill), photons)
    check_boundary_decay((wf.gL, wf.gR), "wavefunction", "k")
    return wf


def _check_packet(grid, center, widths):
    """Validate a Gaussian packet's center and widths; return them as float arrays."""
    center = np.asarray(center, dtype=float)
    widths = np.broadcast_to(np.asarray(widths, dtype=float), (3,))
    if not (np.all(np.isfinite(center)) and np.all(np.isfinite(widths))):
        raise ValueError("packet center and widths must be finite")
    if np.any(widths < 2.0 * max(grid.dk)):
        raise ValueError("width too small: need at least 2 grid steps per axis")
    return center, widths


def _check_photons(photons):
    """Reject a photon-number target that is not positive and finite (NaN included)."""
    if photons is not None and not 0.0 < photons < np.inf:
        raise ValueError(f"photons must be positive and finite, got {photons}")


def _normalized(grid, basis, gL, gR, shares, photons):
    """The state of a factory's freshly filled `gL` and `gR`, rescaled in place to `photons` photons.

    The one step after the slab pass of a factory: the scale is applied in
    k_x slabs, and `photon_state._adopted` zeroes k = 0 and makes the
    arrays read-only without copying them; None keeps the raw amplitude.
    `shares` are the slabs' shares of the photon number, in slab order,
    added as ``np.sum`` adds (`grids._pairwise`).
    """
    if photons is not None:
        n = _pairwise(shares)
        if n <= 0:
            raise ValueError("the state has zero weight on this grid")
        factor = np.sqrt(photons / n)

        def scale(region):
            for g in (gL, gR):
                part = g[region]
                part *= factor

        _over_slabs(grid, 0, scale)
    return photon_state._adopted(grid, basis, gL, gR)


def _helicity_amplitudes(helicity):
    if isinstance(helicity, str):
        key = helicity.upper()
        if key == "L":
            return 1.0, 0.0
        if key == "R":
            return 0.0, 1.0
        raise ValueError(f"unknown helicity {helicity!r}")
    if np.isscalar(helicity):
        if helicity == 1:
            return 1.0, 0.0
        if helicity == -1:
            return 0.0, 1.0
        raise ValueError("scalar helicity must be +1 or -1")
    cL, cR = helicity
    return complex(cL), complex(cR)
