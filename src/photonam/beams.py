"""Benchmark states: regularized Bessel beams and Gaussian vortex packets.

The Bessel beam of total z angular-momentum index ``m``, longitudinal
wavenumber ``k_z`` and helicity ``chi`` is built directly as the transverse
helicity eigenstate

    E(k) ~ -sqrt(2) e_z(k) exp(i m phi)     (chi = +1; e_z* for chi = -1)

from e_z = (theta_hat + i phi_hat)/sqrt(2) about the beam axis z, the column
``(-(k_z/k) cos(phi) + i chi sin(phi), -(k_z/k) sin(phi) - i chi cos(phi), k_perp/k)``,
with the momentum-cone delta functions replaced by Gaussians of widths
``(sigma_perp, sigma_z)``.  The ideal beam is non-normalizable (infinite
transverse extent), but per-photon ratios such as Jo_z/Js_z converge as the
widths shrink; `bessel_ratio_oracle` gives the limit in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import photon_state
from .fields_bridge import SpectralEField, project_spectral_e
from .grids import _readonly, check_boundary_decay
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
        if self.k_perp0 > min(nyq[0], nyq[1]) - 4.0 * dk:
            raise ValueError("ring unresolvable: k_perp0 too close to the grid boundary")
        if abs(self.k_z0) > nyq[2] - 4.0 * dk:
            raise ValueError("ring unresolvable: k_z0 too close to the grid boundary")


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
    about z and projected onto the basis with `fields_bridge.project_spectral_e`, so the
    opposite-helicity amplitude is at rounding level for any chart.  Its decay
    at the momentum boundary is measured (`BoundaryDecayWarning`).  With
    `photons` set, the state is rescaled to that photon number; pass None to
    keep the raw amplitude.
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

    # -sqrt(2) x envelope x winding e^{i m phi} = ((k_x +- i k_y)/k_perp)^|m|, shared by
    # the three components; phi = 0 on the beam axis, the azimuth of the pole limit of e_z
    kx, ky, kz = grid.kvec
    kperp = np.hypot(kx, ky)
    ep = np.exp(
        -((kperp - spec.k_perp0) ** 2) / (2.0 * spec.sigma_perp ** 2)
        - ((kz - spec.k_z0) ** 2) / (2.0 * spec.sigma_z ** 2)
    )
    winding = np.divide(kx + 1j * np.sign(spec.m) * ky, kperp, out=np.ones(grid.dims, dtype=complex),
                        where=kperp > 0.0)
    del kperp
    ep = -np.sqrt(2.0) * ep * winding ** abs(spec.m)
    del winding

    # E(k): -sqrt(2) e_z (chi = +1) or -sqrt(2) e_z* (chi = -1) times the envelope
    e_z = chart_basis(grid, (0.0, 0.0, 1.0))
    Ek = np.empty((3,) + grid.dims, dtype=complex)
    for i in range(3):
        e_z.e(i, out=Ek[i])
        if spec.helicity < 0:
            np.conjugate(Ek[i], out=Ek[i])
        Ek[i] *= ep
    del ep

    wf = project_spectral_e(SpectralEField(values=Ek, grid=grid), basis)
    del Ek
    check_boundary_decay(grid, (wf.gL, wf.gR), "Bessel beam")
    return _with_photons(wf, photons)


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
    the grid boundary.  Its decay at the momentum boundary is measured
    (`BoundaryDecayWarning`).
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
    wf = photon_state.wavefunction(grid, basis, cL * env, cR * env)
    check_boundary_decay(grid, (wf.gL, wf.gR), "wavefunction")
    return _with_photons(wf, photons)


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


def _with_photons(wf, photons):
    """`wf` rescaled to `photons` photons; None keeps its raw amplitude."""
    if photons is None:
        return wf
    n = photon_state.photon_number(wf)
    if n <= 0:
        raise ValueError("the state has zero weight on this grid")
    factor = np.sqrt(photons / n)
    return replace(wf, gL=_readonly(factor * wf.gL), gR=_readonly(factor * wf.gR))


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
