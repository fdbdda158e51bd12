"""Beam-wander fading channel model.

A Gaussian beam of spot radius w arrives at a circular aperture of radius
beta with its center deflected from the aperture axis by a random distance d.
The deflection is Rayleigh distributed with scale sigma_b, and the resulting
power transmittance is

    eta(d) = eta0 * exp(-(1/2) * (d / l_scale) ** lambda_shape),

with eta0 the zero-deflection transmittance.  The induced density of eta on
(0, eta0] is the log-negative Weibull distribution; its shape lambda, scale
l_scale and eta0 follow from h = (beta / w)**2 alone.

Ensemble averages over a channel are always evaluated in the deflection
variable d, where the integrand is a smooth Rayleigh density times a smooth
function of eta(d); this avoids the endpoint singularities the density itself
has in the eta variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import DomainError, NumericalError
from .numerics import DEFAULT_QUAD, QuadratureSpec, panel_nodes

# Rayleigh-domain truncation: the tail mass beyond 12 sigma is below 1e-31.
D_MAX_SIGMAS = 12.0
_DEGENERACY_TOL = 1e-12
# Smallest nonzero wander: the Rayleigh density divides by sigma_b**2, which must not underflow.
_MIN_SIGMA_B = 1e-150
# Largest |sum(w) - 1| a resolved rule shows: 16x2 stays below 1.1e-13 at any
# sigma_b, while 8x1 misses by 7.3e-3 at sigma_b = 0.1.
_WEIGHT_SUM_TOL = 1e-9
# Most nodes on one axis of a channel average; the largest rule in use, 64x8
# at sigma_b = 22 beam radii, needs 11,264.
_MAX_NODES_PER_AXIS = 1 << 15


@dataclass(frozen=True)
class FadingChannel:
    """One fading link; sigma_b = 0 denotes a point-mass channel fixed at eta0."""

    sigma_b: float
    beta: float
    w: float
    h: float = field(init=False)
    lambda_shape: float = field(init=False)
    l_scale: float = field(init=False)
    eta0: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.beta < math.inf and 0.0 < self.w < math.inf):
            raise DomainError(f"beta and w must be finite and > 0, got beta={self.beta}, w={self.w}")
        if not (self.sigma_b == 0.0 or _MIN_SIGMA_B <= self.sigma_b < math.inf):
            raise DomainError(f"sigma_b must be 0 or finite and >= {_MIN_SIGMA_B:g}, got {self.sigma_b}")
        try:
            h = (self.beta / self.w) ** 2
        except OverflowError:  # beta/w above 1e154; I0 below reports it
            h = math.inf
        i0 = float(special.i0(4.0 * h))
        if not math.isfinite(i0):
            raise NumericalError(f"beta/w = {self.beta / self.w:.6g} overflows I0(4 (beta/w)^2) above 13.32")
        q = 1.0 - math.exp(-4.0 * h) * i0
        if q <= _DEGENERACY_TOL:
            raise NumericalError(f"degenerate aperture geometry: h={h:.3e} is too small")
        eta0_sq = 1.0 - math.exp(-2.0 * h)
        t = math.log(2.0 * eta0_sq / q)
        if t <= _DEGENERACY_TOL:
            raise NumericalError(f"degenerate aperture geometry: h={h:.3e}")
        lam = 8.0 * h * math.exp(-4.0 * h) * float(special.i1(4.0 * h)) / (q * t)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "lambda_shape", lam)
        object.__setattr__(self, "l_scale", self.beta * t ** (-1.0 / lam))
        object.__setattr__(self, "eta0", math.sqrt(eta0_sq))

    @property
    def point_mass(self) -> bool:
        return self.sigma_b == 0.0


def eta_of_deflection(ch: FadingChannel, d):
    """Transmittance for beam-center deflection d."""
    return ch.eta0 * np.exp(-0.5 * (np.asarray(d, dtype=float) / ch.l_scale) ** ch.lambda_shape)


def deflection_of_eta(ch: FadingChannel, eta):
    """Inverse of eta_of_deflection on (0, eta0]."""
    return ch.l_scale * (2.0 * np.log(ch.eta0 / np.asarray(eta, dtype=float))) ** (1.0 / ch.lambda_shape)


def rayleigh_pdf(d, sigma: float):
    d = np.asarray(d, dtype=float)
    return (d / sigma**2) * np.exp(-0.5 * (d / sigma) ** 2)


def pdf(ch: FadingChannel, eta):
    """Transmittance density on (0, eta0); zero outside; scalar in, scalar out."""
    if ch.point_mass:
        raise DomainError("point-mass channel (sigma_b = 0) has no density")
    eta_arr = np.atleast_1d(np.asarray(eta, dtype=float))
    out = np.zeros_like(eta_arr)
    inside = (eta_arr > 0.0) & (eta_arr < ch.eta0)
    e = eta_arr[inside]
    lam = ch.lambda_shape
    l2 = ch.l_scale**2
    s2 = ch.sigma_b**2
    g = 2.0 * np.log(ch.eta0 / e)
    out[inside] = (2.0 * l2 / (s2 * lam * e)) * g ** (2.0 / lam - 1.0) * np.exp(
        -(l2 / (2.0 * s2)) * g ** (2.0 / lam)
    )
    return out if np.ndim(eta) else float(out[0])


def sample(ch: FadingChannel, rng: np.random.Generator, size=None):
    """Draw transmittance realizations by sampling the Rayleigh deflection; a point mass draws eta0."""
    if ch.point_mass:
        return ch.eta0 if size is None else np.full(size, ch.eta0)
    d = rng.rayleigh(ch.sigma_b, size)
    return eta_of_deflection(ch, d)


def scaled_subdivisions(ch: FadingChannel, quad: QuadratureSpec) -> int:
    """Panel count grown with sigma_b/beta so wide Rayleigh domains stay resolved.

    The transmittance varies over deflections of order l_scale (comparable to
    beta); for high-loss channels the Rayleigh support is much wider than that,
    so panels are added proportionally, up to _MAX_NODES_PER_AXIS nodes.
    """
    subs = quad.subdivisions * max(1, math.ceil(ch.sigma_b / ch.beta))
    n = quad.nodes_1d * subs
    if n > _MAX_NODES_PER_AXIS:
        raise DomainError(f"sigma_b={ch.sigma_b:g} with the {quad.nodes_1d}x{quad.subdivisions} "
                          f"rule needs {n} nodes per axis, above the limit {_MAX_NODES_PER_AXIS}")
    return subs


def transmittance_nodes(
    ch: FadingChannel, quad: QuadratureSpec = DEFAULT_QUAD, eta_min=0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes (eta_i, w_i) such that sum(w_i * g(eta_i)) = E[g(eta) * 1{eta > eta_min}].

    The rule lives in the deflection domain and ends on the cut eta_min (a
    scalar, or a column for a table with one row per cut), so no panel
    straddles it.  Weights include the Rayleigh density; a rule whose weights
    miss its mass up to the end (1 but for a negligible tail when uncut) by
    more than _WEIGHT_SUM_TOL is too coarse and raises NumericalError.  A
    point-mass channel yields the single node eta0, weighted 1 where it
    clears the cut.
    """
    cut = np.asarray(eta_min, dtype=float)
    if ch.point_mass:
        return np.array([ch.eta0]), np.atleast_1d(1.0 * (ch.eta0 > cut))
    subs = scaled_subdivisions(ch, quad)
    d_hi = D_MAX_SIGMAS * ch.sigma_b
    if (cut > 0.0).any():
        # Cuts at or above eta0 end the rule at d = 0; cuts at or below 0 leave it uncut.
        d_cut = deflection_of_eta(ch, np.clip(cut, np.finfo(float).tiny, ch.eta0))
        d_hi = np.minimum(d_hi, np.where(cut > 0.0, d_cut, np.inf))
    d, wd = panel_nodes(0.0, d_hi, quad, subdivisions=subs)
    w = wd * rayleigh_pdf(d, ch.sigma_b)
    # Weight sum minus the Rayleigh mass below d_hi, row by row.
    excess = np.abs(w.sum(axis=-1, keepdims=True) + np.expm1(-0.5 * (d_hi / ch.sigma_b) ** 2)).max()
    if excess > _WEIGHT_SUM_TOL:
        raise NumericalError(
            f"under-resolved quadrature at sigma_b={ch.sigma_b:g}: the {quad.nodes_1d}-node x "
            f"{subs}-panel rule's weights miss their Rayleigh mass by {excess:.2e}"
        )
    return eta_of_deflection(ch, d), w


def mean_transmittance(ch: FadingChannel, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    eta, w = transmittance_nodes(ch, quad)
    return float(w @ eta)


def loss_db(ch: FadingChannel, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Mean channel attenuation in dB, defined as -10*log10(E[eta^2]).

    The wander model's eta scales the field amplitude (eta0^2 is the encircled
    power fraction), so eta^2 is the power transmission of a realization; this
    is the convention that reproduces quoted link budgets.
    """
    eta, w = transmittance_nodes(ch, quad)
    mean_power = float(w @ (eta * eta))
    if mean_power <= 0.0:
        raise NumericalError("mean power transmittance is not positive")
    return -10.0 * math.log10(mean_power)


@dataclass(frozen=True)
class LinkGeometry:
    """Beam-wander scaling between the four station/satellite link directions.

    sigma_b is the wander of the station-A uplink (AS); the satellite-to-A
    downlink scales by k1, the station-B uplink by k2, and the
    satellite-to-B downlink by k1*k2.
    """

    sigma_b: float
    k1: float
    k2: float

    def __post_init__(self) -> None:
        if self.sigma_b < 0.0:
            raise DomainError(f"sigma_b must be >= 0, got {self.sigma_b}")
        if not (0.0 <= self.k1 <= 1.0):
            raise DomainError(f"k1 must lie in [0, 1], got {self.k1}")
        if self.k2 < 0.0:
            raise DomainError(f"k2 must be >= 0, got {self.k2}")


class Links(NamedTuple):
    a_s: FadingChannel
    s_a: FadingChannel
    b_s: FadingChannel
    s_b: FadingChannel


def expand_links(geom: LinkGeometry, beta: float, w: float) -> Links:
    """The four link channels (AS, SA, BS, SB); all share the same beta and w."""
    return Links(
        a_s=FadingChannel(geom.sigma_b, beta, w),
        s_a=FadingChannel(geom.k1 * geom.sigma_b, beta, w),
        b_s=FadingChannel(geom.k2 * geom.sigma_b, beta, w),
        s_b=FadingChannel(geom.k1 * geom.k2 * geom.sigma_b, beta, w),
    )
