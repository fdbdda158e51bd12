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
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import DomainError, NumericalError
from .fading import FadingChannel, transmittance_nodes
from .gaussian import Squeezing, StandardFormCM, TwoModeCM, log_negativity
from .numerics import DEFAULT_QUAD, QuadratureSpec, pair_sums, tensor_rule

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


# Selection sums kept per (links, threshold, rule).  Rows run in (sigma_b, r,
# threshold) order, so the next r reuses a threshold's sums only while the
# memo still holds every threshold of one r; shipped scenarios use at most 17.
_SELECTION_MEMO_SIZE = 64


@lru_cache(maxsize=_SELECTION_MEMO_SIZE)
def _selection_sums(ch_up: FadingChannel, ch_down: FadingChannel, zeta_th: float,
                    quad: QuadratureSpec) -> tuple[float, float, float]:
    """(P_s, sum w zeta, sum w sqrt(zeta)) over the kept region zeta = eta * eta' > zeta_th.

    The sums depend only on the links, the threshold and the rule, not on the
    squeezing or the excess noise, so they are memoized and every r of a
    sweep reuses them.  Both rules end on the selection boundary, the uplink
    at zeta_th / eta0' and each uplink row's downlink at zeta_th / eta, which
    keeps every panel's integrand smooth (masking nodes would lose digits
    there).  With no threshold all rows share the full downlink table and
    eta, which underflows to 0 on high-loss links, is never divided by.
    """
    full = transmittance_nodes(ch_down, quad)

    def inner(eu, wu):
        eta, w = transmittance_nodes(ch_down, quad, zeta_th / eu[:, None]) if zeta_th > 0.0 else full
        return eta, wu[:, None] * w

    def integrand(eu, ed):
        zeta = eu * ed
        return np.ones_like(zeta), zeta, np.sqrt(zeta)

    return tuple(pair_sums(transmittance_nodes(ch_up, quad, zeta_th / ch_down.eta0), inner,
                           full[0].size, integrand))


def _check_success(p_s: float) -> None:
    if p_s < P_SUCCESS_FLOOR:
        raise NumericalError(f"selection region is numerically empty: P_s={p_s:.3e}")


def classical_postselect(
    sq: Squeezing,
    ch_up: FadingChannel,
    ch_down: FadingChannel,
    cfg: ClassicalPsConfig,
    quad: QuadratureSpec = DEFAULT_QUAD,
    chi: float = 0.0,
) -> PostSelectionResult:
    """Conditional CM and success probability of threshold post-selection.

    The kept region depends only on the links, the threshold and the rule,
    so its sums come from the _selection_sums memo; only the CM assembly
    below depends on the squeezing and chi.
    """
    zeta_max = ch_up.eta0 * ch_down.eta0
    if cfg.zeta_th >= zeta_max:
        raise DomainError(
            f"zeta_th={cfg.zeta_th} is not below the maximum combined transmittance {zeta_max}"
        )
    if chi < 0.0:
        raise DomainError(f"chi must be >= 0, got {chi}")
    v = sq.v
    p_s, s_zeta, s_root = _selection_sums(ch_up, ch_down, cfg.zeta_th, quad)
    _check_success(p_s)
    c = math.sqrt(v * v - 1.0) * s_root / p_s
    cm = StandardFormCM(a=v, b=1.0 + (v - 1.0) * s_zeta / p_s + chi, c_plus=c, c_minus=-c).to_cm()
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
    v, t, r, q_th = sq.v, cfg.tap_t, cfg.tap_r, cfg.q_th

    # The tap outcome depends on the channels only through zeta = eta * eta'.
    # With u = 1 / sqrt(2 v_t), every moment of _tap_moments is a polynomial
    # in sqrt(zeta) times erfc(q_th u) = 2 p_sel, exp(-(q_th u)^2) u =
    # sqrt(pi) gauss or sqrt(pi) gauss / (2 v_t).  Weight columns eta^k w,
    # k = 0, 1/2, ..., 2, on each side put the sums of each kernel times
    # zeta^k on the diagonal of one pair sum.  erfc(x) = erfcx(|x|) exp(-x^2)
    # for x >= 0 and 2 minus that for x < 0 reuses the Gaussian's exponential;
    # erfcx costs well under half of erfc and is as accurate.
    (eta_u, w_u), (eta_d, w_d) = (transmittance_nodes(ch, quad) for ch in (ch_up, ch_down))
    powers = np.arange(5) / 2.0

    def integrand(e, ed):
        u = 1.0 / np.sqrt(2.0 * (t + r * (1.0 + chi) + r * (v - 1.0) * (e * ed)))
        x = abs(q_th) * u
        decay = np.exp(-x * x)
        tail = special.erfcx(x) * decay
        gauss = decay * u
        return (tail if q_th >= 0.0 else 2.0 - tail), gauss, gauss * u * u

    erfc_z, gauss_z, slope_z = (np.diag(s) for s in pair_sums(
        (eta_u, w_u[:, None] * eta_u[:, None] ** powers),
        tensor_rule(eta_d, w_d[:, None] * eta_d[:, None] ** powers), eta_d.size, integrand))
    # Sums of p_sel * zeta^k, gauss * zeta^k and q_th * gauss / v_t * zeta^k.
    p_s, ph, p1 = (0.5 * erfc_z[:3]).tolist()
    _check_success(p_s)
    g0, gh, g1 = gauss_z[:3] / math.sqrt(math.pi)
    h0, hh, h1, h3h, h2 = 2.0 * q_th / math.sqrt(math.pi) * slope_z
    root, st = math.sqrt(v * v - 1.0), math.sqrt(t)
    # b_q - 1 = (v - 1) zeta + chi, c_q = root sqrt(zeta), t b_q + r = 1 + t chi + t (v - 1) zeta.
    p_var_b = (1.0 + t * chi) * p_s + t * (v - 1.0) * p1
    mean_a = math.sqrt(r) * root * gh / p_s
    mean_b = st * math.sqrt(r) * ((v - 1.0) * g1 + chi * g0) / p_s
    a_q = (r * root**2 * h1 + v * p_s) / p_s - mean_a**2
    b_q_d = (t * r * ((v - 1.0) ** 2 * h2 + 2.0 * chi * (v - 1.0) * h1 + chi**2 * h0)
             + p_var_b) / p_s - mean_b**2
    c_q_d = (st * r * root * ((v - 1.0) * h3h + chi * hh) + st * root * ph) / p_s \
        - mean_a * mean_b
    b_p_d = p_var_b / p_s
    c_p_d = -st * root * ph / p_s
    cm = TwoModeCM(np.array([
        [a_q, 0.0, c_q_d, 0.0],
        [0.0, v, 0.0, c_p_d],
        [c_q_d, 0.0, b_q_d, 0.0],
        [0.0, c_p_d, 0.0, b_p_d],
    ]))
    return PostSelectionResult(cm=cm, p_success=p_s, e_ln=log_negativity(cm))
