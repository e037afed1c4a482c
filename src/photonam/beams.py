"""Benchmark states: regularized Bessel beams and Gaussian vortex packets.

The Bessel beam of total z angular-momentum index ``m``, longitudinal
wavenumber ``k_z`` and helicity ``chi`` is built directly as the transverse
helicity-eigenstate column

    E(k) ~ ( -(k_z/k) cos(phi) + i chi sin(phi),
             -(k_z/k) sin(phi) - i chi cos(phi),
              k_perp/k ) * exp(i m phi)

with the momentum-cone delta functions replaced by Gaussians of widths
``(sigma_perp, sigma_z)``.  The ideal beam is non-normalizable (infinite
transverse extent), but per-photon ratios such as Jo_z/Js_z converge as the
widths shrink; `bessel_ratio_oracle` gives the limit in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import photon_state
from .grids import _readonly


@dataclass(frozen=True)
class BesselSpec:
    """Parameters of a regularized Bessel beam (all wavenumber units)."""

    k_perp0: float
    k_z0: float
    m: int
    helicity: int
    sigma_perp: float
    sigma_z: float
    amplitude: float = 1.0

    @property
    def k0(self):
        return float(np.hypot(self.k_perp0, self.k_z0))

    @property
    def kz_over_k(self):
        return self.k_z0 / self.k0

    def validate(self, grid):
        if not np.all(np.isfinite((self.k_perp0, self.k_z0, self.sigma_perp, self.sigma_z, self.amplitude))):
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
        if self.k_perp0 > min(nyq[0], nyq[1]) - 4.0 * dk:
            raise ValueError("ring unresolvable: k_perp0 too close to the grid boundary")
        if abs(self.k_z0) > nyq[2] - 4.0 * dk:
            raise ValueError("ring unresolvable: k_z0 too close to the grid boundary")


def bessel_ratio_oracle(m, kz_over_k, helicity):
    """Narrow-width limit of the signed ratio Jo_z / Js_z.

    Equals ``m k / (chi k_z) - 1``: for helicity +1 this is ``m k/k_z - 1``;
    for helicity -1 the spin component is negative and the magnitude of the
    ratio is ``m k/k_z + 1``.
    """
    return m / (helicity * kz_over_k) - 1.0


def _pole_line_distance(points, axis):
    """Distance of k-space points from the line through the origin along axis."""
    proj = points @ axis
    return np.sqrt(np.maximum(np.einsum("ij,ij->i", points, points) - proj ** 2, 0.0))


def bessel_beam(grid, basis, spec, photons=1.0):
    """Regularized Bessel beam as a PhotonWaveFunction.

    The construction is an exact helicity eigenstate point by point, so the
    projection onto the basis leaves the opposite-helicity amplitude at
    rounding level for any chart.  With `photons` set, the state is rescaled
    to that photon number; pass None to keep the raw amplitude.
    """
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

    kx, ky, kz = grid.kvec
    kperp = np.hypot(kx, ky)
    on_axis = kperp == 0.0
    safe_perp = np.where(on_axis, 1.0, kperp)
    cphi = np.where(on_axis, 1.0, kx / safe_perp)
    sphi = np.where(on_axis, 0.0, ky / safe_perp)
    del on_axis, safe_perp

    # envelope x azimuthal phase, shared by the three components of the column
    ep = spec.amplitude * np.exp(
        -((kperp - spec.k_perp0) ** 2) / (2.0 * spec.sigma_perp ** 2)
        - ((kz - spec.k_z0) ** 2) / (2.0 * spec.sigma_z ** 2)
    )
    ep = ep * ((cphi + 1j * sphi) ** spec.m if spec.m >= 0 else (cphi - 1j * sphi) ** (-spec.m))

    safe_k = grid.kmag()
    safe_k[grid.excluded_index] = 1.0
    minus_a = np.negative(kz / safe_k)
    b = np.divide(kperp, safe_k, out=kperp)
    del kperp, safe_k

    # gL = e* . col, gR = e . col, one component of the helicity column
    # (-a cos phi + i chi sin phi, -a sin phi - i chi cos phi, b) at a time,
    # with a = k_z/k and b = k_perp/k
    chi = spec.helicity
    gL = np.zeros(grid.dims, dtype=complex)
    gR = np.zeros(grid.dims, dtype=complex)
    col = np.empty(grid.dims, dtype=complex)
    tmp = np.empty(grid.dims, dtype=complex)
    e_i = np.empty(grid.dims, dtype=complex)
    for i in range(3):
        if i == 0:
            np.multiply(minus_a, cphi, out=col.real)
            np.multiply(sphi, chi, out=col.imag)
        elif i == 1:
            np.multiply(minus_a, sphi, out=col.real)
            np.multiply(cphi, -chi, out=col.imag)
        else:
            col.real, col.imag = b, 0.0
        col *= ep
        basis.e(i, out=e_i)
        np.multiply(e_i, col, out=tmp)
        gR += tmp
        np.conjugate(e_i, out=e_i)
        e_i *= col
        gL += e_i
    del minus_a, b, cphi, sphi, ep, col, tmp, e_i

    scale = np.sqrt(2.0 * grid.units.eps0)
    gL *= scale
    gR *= scale
    wf = photon_state.wavefunction(grid, basis, gL, gR)
    del gL, gR
    if photons is not None:
        n = photon_state.photon_number(wf)
        if n <= 0:
            raise ValueError("beam has zero weight on this grid")
        wf = rescale(wf, np.sqrt(photons / n))
    return wf


def gaussian_vortex(grid, basis, center, widths, m=0, helicity="L",
                    r_offset=None, amplitude=1.0, photons=None):
    """Smooth Gaussian packet, optionally with a vortex winding about z.

    ``g(k) ~ ((k_x + i sgn(m) k_y)/sigma)^{|m|} exp(-|k-k0|^2 / (2 sigma^2))``
    with per-axis widths; the vortex prefactor is polynomial in k, so the
    state is smooth everywhere.  `helicity` is "L", "R", +1, -1 or a complex
    pair (cL, cR); `r_offset` displaces the packet in real space through a
    linear momentum phase.

    This is the package's stock factory for smooth decaying test states;
    keep the center several widths away from the chart axis, the origin and
    the grid boundary.
    """
    center, widths = _check_packet(grid, center, widths)
    _check_photons(photons)
    sig_max = float(widths.max())
    if _pole_line_distance(center[None, :], basis.chart_axis)[0] < 2.0 * sig_max:
        raise ValueError("packet center too close to the chart axis")

    kx, ky, kz = grid.kvec
    env = np.exp(
        -((kx - center[0]) ** 2) / (2.0 * widths[0] ** 2)
        - ((ky - center[1]) ** 2) / (2.0 * widths[1] ** 2)
        - ((kz - center[2]) ** 2) / (2.0 * widths[2] ** 2)
    ).astype(complex)
    if m:
        sgn = 1.0 if m > 0 else -1.0
        env = env * ((kx + 1j * sgn * ky) / sig_max) ** abs(m)
    if r_offset is not None:
        r0 = np.asarray(r_offset, dtype=float)
        env = env * np.exp(-1j * (kx * r0[0] + ky * r0[1] + kz * r0[2]))

    cL, cR = _helicity_amplitudes(helicity)
    wf = photon_state.wavefunction(grid, basis, amplitude * cL * env, amplitude * cR * env)
    if photons is not None:
        n = photon_state.photon_number(wf)
        if n <= 0:
            raise ValueError("packet has zero weight on this grid")
        wf = rescale(wf, np.sqrt(photons / n))
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


def rescale(wf, factor):
    """Multiply both amplitude components by a scalar."""
    return replace(wf, gL=_readonly(factor * wf.gL), gR=_readonly(factor * wf.gR))
