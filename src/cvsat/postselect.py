"""Post-selection on the direct transmission scheme.

Classical post-selection: the combined transmittance zeta = eta * eta' is
measured with auxiliary classical pulses and the state is kept only when
zeta exceeds a threshold.  The kept ensemble's CM is a conditional average
over the selected region, normalized by the success probability.

Quantum post-selection: instead of estimating the channel, station B taps a
small fraction R = 1 - T of the received beam, homodynes the tap's amplitude
quadrature q_t, and keeps the state when the outcome exceeds q_th.  Large
outcomes are more likely for low-loss realizations, so the kept ensemble
concentrates the high-transmittance states without any channel knowledge.

Conventions: the per-realization selection-weighted moments returned by
quantum_moments_realization are of the form E[x * 1{q_t > q_th}], i.e. they
carry the selection probability and are not normalized.  The assembled
distilled CM stores central moments, with the q cross term equal to the
covariance cov(q_A, q_B') of the kept ensemble, so the result is a bona fide
covariance matrix on which the entanglement measure acts directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, NumericalError
from .fading import (
    D_MAX_SIGMAS,
    FadingChannel,
    deflection_of_eta,
    eta_of_deflection,
    rayleigh_pdf,
    scaled_subdivisions,
    transmittance_nodes,
)
from .gaussian import Squeezing, TwoModeCM, log_negativity
from .numerics import DEFAULT_QUAD, QuadratureSpec, pair_sums, panel_nodes, tensor_rule

# Selections rarer than this are treated as numerically empty.
P_SUCCESS_FLOOR = 1e-12


@dataclass(frozen=True)
class ClassicalPsConfig:
    """Threshold on the measured combined transmittance zeta = eta * eta'."""

    zeta_th: float

    def __post_init__(self) -> None:
        if not (self.zeta_th >= 0.0 and math.isfinite(self.zeta_th)):
            raise DomainError(f"zeta_th must be finite and >= 0, got {self.zeta_th}")


@dataclass(frozen=True)
class QuantumPsConfig:
    """Tap beam-splitter transmittivity and the threshold on the tapped quadrature."""

    tap_t: float
    q_th: float

    def __post_init__(self) -> None:
        if not (0.0 < self.tap_t <= 1.0):
            raise DomainError(f"tap_t must lie in (0, 1], got {self.tap_t}")
        if not math.isfinite(self.q_th):
            raise DomainError(f"q_th must be finite, got {self.q_th}")

    @property
    def tap_r(self) -> float:
        return 1.0 - self.tap_t


@dataclass(frozen=True)
class PostSelectionResult:
    cm: TwoModeCM
    p_success: float
    e_ln: float


@dataclass(frozen=True)
class QuantumMoments:
    """Selection-weighted quadrature moments E[x * 1{q_t > q_th}] and P(q_t > q_th)."""

    q_a: float
    q_b: float
    q_a_sq: float
    q_b_sq: float
    q_ab: float
    p_select: float


def _selection_sums(ch_up: FadingChannel, ch_down: FadingChannel, zeta_th: float,
                    quad: QuadratureSpec, integrand):
    """pair_sums of integrand(zeta) over the region eta * eta' > zeta_th.

    Iterated rule in the deflection domain: the uplink rule ends exactly at
    the deflection where selection becomes impossible, and for each uplink
    node the selected downlink deflections form an interval [0, cap], handled
    by scaling one reference composite rule.  Aligning both domains with the
    cut keeps every panel's integrand smooth; masking nodes with an indicator
    instead would lose several digits at the selection boundary.
    """
    if ch_up.point_mass:
        eta_u = np.array([ch_up.eta0])
        w_u = np.array([1.0])
    else:
        d_up_hi = D_MAX_SIGMAS * ch_up.sigma_b
        if zeta_th > 0.0:
            eta_cut = zeta_th / ch_down.eta0
            if eta_cut >= ch_up.eta0:
                raise NumericalError("selection region is numerically empty: no node clears zeta_th")
            d_up_hi = min(d_up_hi, float(deflection_of_eta(ch_up, eta_cut)))
        d_u, wd_u = panel_nodes(0.0, d_up_hi, quad,
                                subdivisions=scaled_subdivisions(ch_up, quad))
        eta_u = eta_of_deflection(ch_up, d_u)
        w_u = wd_u * rayleigh_pdf(d_u, ch_up.sigma_b)

    if ch_down.point_mass:
        def inner(eu, wu):
            return np.array([ch_down.eta0]), (wu * (eu * ch_down.eta0 > zeta_th))[:, None]

        return pair_sums((eta_u, w_u), inner, 1, lambda eu, ed: integrand(eu * ed))

    d_hi = D_MAX_SIGMAS * ch_down.sigma_b
    t01, w01 = panel_nodes(0.0, 1.0, quad, subdivisions=scaled_subdivisions(ch_down, quad))

    def inner(eu, wu):
        if zeta_th > 0.0:
            ratio = eu * ch_down.eta0 / zeta_th
            cap = np.zeros_like(eu)
            open_rows = ratio > 1.0
            cap[open_rows] = np.minimum(
                ch_down.l_scale * (2.0 * np.log(ratio[open_rows])) ** (1.0 / ch_down.lambda_shape),
                d_hi,
            )
        else:
            cap = np.full_like(eu, d_hi)
        d = cap[:, None] * t01[None, :]
        wgt = (wu * cap)[:, None] * w01[None, :] * rayleigh_pdf(d, ch_down.sigma_b)
        return eta_of_deflection(ch_down, d), wgt

    return pair_sums((eta_u, w_u), inner, t01.size, lambda eu, ed: integrand(eu * ed))


def classical_postselect(
    sq: Squeezing,
    ch_up: FadingChannel,
    ch_down: FadingChannel,
    cfg: ClassicalPsConfig,
    quad: QuadratureSpec = DEFAULT_QUAD,
    chi: float = 0.0,
) -> PostSelectionResult:
    """Conditional CM and success probability of threshold post-selection."""
    zeta_max = ch_up.eta0 * ch_down.eta0
    if cfg.zeta_th >= zeta_max:
        raise DomainError(
            f"zeta_th={cfg.zeta_th} is not below the maximum combined transmittance {zeta_max}"
        )
    if chi < 0.0:
        raise DomainError(f"chi must be >= 0, got {chi}")
    v = sq.v

    def integrand(zeta):
        yield np.ones_like(zeta)
        yield 1.0 + zeta * (v - 1.0)
        yield np.sqrt(zeta)

    p_s, num_b, num_c = _selection_sums(ch_up, ch_down, cfg.zeta_th, quad, integrand)
    if p_s < P_SUCCESS_FLOOR:
        raise NumericalError(f"selection region is numerically empty: P_s={p_s:.3e}")
    b = num_b / p_s + chi
    c = num_c / p_s * math.sqrt(v * v - 1.0)
    cm = TwoModeCM(np.array([
        [v, 0.0, c, 0.0],
        [0.0, v, 0.0, -c],
        [c, 0.0, b, 0.0],
        [0.0, -c, 0.0, b],
    ]))
    return PostSelectionResult(cm=cm, p_success=p_s, e_ln=log_negativity(cm))


def _tap_moments(v: float, zeta, tap_t: float, q_th: float, chi: float):
    """Vectorized selection-weighted moments for given combined transmittances.

    After the tap, (q_A, q_B', q_t) are jointly Gaussian and zero-mean; the
    moments under the cut q_t > q_th follow from one-variable truncated
    Gaussian identities applied along the regression on q_t.
    """
    zeta = np.asarray(zeta, dtype=float)
    t, r = tap_t, 1.0 - tap_t
    b_q = 1.0 + zeta * (v - 1.0) + chi
    c_q = np.sqrt(zeta * (v * v - 1.0))
    v_t = r * b_q + t
    p_sel = 0.5 * special.erfc(q_th / np.sqrt(2.0 * v_t))
    # E[q_t * 1{q_t > q_th}] for a centered Gaussian of variance v_t.
    gauss = np.exp(-q_th * q_th / (2.0 * v_t)) / np.sqrt(2.0 * math.pi * v_t)
    q_a = math.sqrt(r) * c_q * gauss
    q_b = math.sqrt(t * r) * (b_q - 1.0) * gauss
    q_a_sq = r * c_q**2 * q_th * gauss / v_t + v * p_sel
    q_b_sq = t * r * (b_q - 1.0) ** 2 * q_th * gauss / v_t + (t * b_q + r) * p_sel
    q_ab = math.sqrt(t) * r * (b_q - 1.0) * c_q * q_th * gauss / v_t + math.sqrt(t) * c_q * p_sel
    return q_a, q_b, q_a_sq, q_b_sq, q_ab, p_sel, b_q, c_q


def quantum_moments_realization(
    sq: Squeezing,
    eta: float,
    eta_prime: float,
    cfg: QuantumPsConfig,
    chi: float = 0.0,
) -> QuantumMoments:
    """Selection-weighted moments of (q_A, q_B') at fixed channel transmittances."""
    for name, val in (("eta", eta), ("eta_prime", eta_prime)):
        if not (0.0 <= val <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {val}")
    q_a, q_b, q_a_sq, q_b_sq, q_ab, p_sel, _, _ = _tap_moments(
        sq.v, eta * eta_prime, cfg.tap_t, cfg.q_th, chi
    )
    return QuantumMoments(
        q_a=float(q_a), q_b=float(q_b), q_a_sq=float(q_a_sq),
        q_b_sq=float(q_b_sq), q_ab=float(q_ab), p_select=float(p_sel),
    )


def quantum_postselect(
    sq: Squeezing,
    ch_up: FadingChannel,
    ch_down: FadingChannel,
    cfg: QuantumPsConfig,
    quad: QuadratureSpec = DEFAULT_QUAD,
    chi: float = 0.0,
) -> PostSelectionResult:
    """Distilled CM and success probability of the tap-and-threshold strategy.

    The q-sector entries are central moments of the kept ensemble (the mean
    displacement induced by the asymmetric cut is subtracted); the p-sector is
    untouched by the q measurement apart from the selection reweighting.
    """
    if chi < 0.0:
        raise DomainError(f"chi must be >= 0, got {chi}")
    v = sq.v
    t = cfg.tap_t

    def integrand(eu, ed):
        q_a, q_b, q_a_sq, q_b_sq, q_ab, p_sel, b_q, c_q = _tap_moments(
            v, eu * ed, t, cfg.q_th, chi
        )
        yield from (p_sel, q_a, q_b, q_a_sq, q_b_sq, q_ab)
        yield p_sel * (t * b_q + (1.0 - t))       # p-sector variance at station B
        yield p_sel * (-math.sqrt(t) * c_q)       # p-sector cross term (negative branch)

    eta_d, w_d = transmittance_nodes(ch_down, quad)
    sums = pair_sums(transmittance_nodes(ch_up, quad), tensor_rule(eta_d, w_d), eta_d.size,
                     integrand)
    p_s = sums[0]
    if p_s < P_SUCCESS_FLOOR:
        raise NumericalError(f"selection region is numerically empty: P_s={p_s:.3e}")
    mean_a, mean_b = sums[1] / p_s, sums[2] / p_s
    a_q = sums[3] / p_s - mean_a**2
    b_q_d = sums[4] / p_s - mean_b**2
    c_q_d = sums[5] / p_s - mean_a * mean_b
    a_p = v
    b_p_d = sums[6] / p_s
    c_p_d = sums[7] / p_s
    cm = TwoModeCM(np.array([
        [a_q, 0.0, c_q_d, 0.0],
        [0.0, a_p, 0.0, c_p_d],
        [c_q_d, 0.0, b_q_d, 0.0],
        [0.0, c_p_d, 0.0, b_p_d],
    ]))
    return PostSelectionResult(cm=cm, p_success=p_s, e_ln=log_negativity(cm))
