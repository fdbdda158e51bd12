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

from .errors import DomainError, NumericalError
from .fading import FadingChannel, LinkRule, deflection_of_eta, transmittance_nodes
from .gaussian import Squeezing, StandardFormCM, TwoModeCM, log_negativity, squeezing_excess
from .numerics import DEFAULT_QUAD, QuadratureSpec

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


def _check_success(p_s: float) -> None:
    if p_s < P_SUCCESS_FLOOR:
        raise NumericalError(f"selection region is numerically empty: P_s={p_s:.3e}")


def _selection_sums(up: LinkRule, down: LinkRule, zeta_th: float) -> tuple[float, float, float]:
    """(P_s, sum w zeta, sum w sqrt(zeta)) over the kept region zeta = eta * eta' > zeta_th.

    The sums depend only on the links, the threshold and the rule, not on the
    squeezing or the excess noise, so postselect_column computes them once
    for every r of a sigma_b column.  Each integrates (eta eta')^k, k = 0, 1,
    1/2, which factors: the uplink node eta keeps the downlink deflections
    below d'_c = deflection_of_eta(down, zeta_th / eta), over which the
    downlink's integral of eta'^k is its antiderivative F_k(d'_c).  So a
    threshold costs one sum over the uplink's table, which ends on the
    selection boundary zeta_th / eta0' so that no panel straddles it.  With
    no threshold the sums are products of the two links' weight sums and
    moments, and eta, which underflows to 0 on high-loss links, is never
    divided by.  A threshold at or above the largest zeta raises DomainError,
    a numerically empty region NumericalError.
    """
    zeta_max = up.ch.eta0 * down.ch.eta0
    if zeta_th >= zeta_max:
        raise DomainError(f"zeta_th={zeta_th} is not below the maximum combined "
                          f"transmittance {zeta_max}")
    if zeta_th == 0.0:
        w_up, w_down = up.table[1].sum(), down.table[1].sum()
        sums = (float(w_up * w_down), *(m * m_down for m, m_down in zip(up.moments, down.moments)))
    else:
        eta, w = transmittance_nodes(up.ch, up.quad, zeta_th / down.ch.eta0)
        # clipped as transmittance_nodes clips a cut, so a subnormal zeta_th / eta stays finite in d
        cut = np.maximum(zeta_th / eta, np.finfo(float).tiny)
        kept = down.antiderivatives(deflection_of_eta(down.ch, cut))
        sums = tuple(float(s) for s in (np.stack([w, w * eta, w * np.sqrt(eta)]) * kept).sum(axis=1))
    _check_success(sums[0])
    return sums


def classical_postselect(sq: Squeezing, ch_up: FadingChannel, ch_down: FadingChannel, cfg: ClassicalPsConfig,
                         quad: QuadratureSpec = DEFAULT_QUAD, chi: float = 0.0) -> PostSelectionResult:
    """Conditional CM and success probability of threshold post-selection: postselect_column's row as a CM."""
    (p_s, ((alpha,), (beta,), (c,))), = postselect_column(
        (sq.r,), LinkRule(ch_up, quad), LinkRule(ch_down, quad), (cfg,), chi)
    cm = StandardFormCM(a=1.0 + alpha, b=1.0 + beta, c_plus=c, c_minus=-c).to_cm()
    return PostSelectionResult(cm=cm, p_success=p_s, e_ln=log_negativity(cm))


# Elementwise erfc from the standard library, so cvsat needs no scipy; it
# differs from scipy.special.erfc by at most 2 ulps of 1.
_erfc = np.vectorize(math.erfc, otypes=[float])


def _tap_moments(u: float, sinh_2r: float, zeta, tap_t: float, q_th: float, chi: float):
    """Vectorized selection-weighted moments for given combined transmittances.

    After the tap, (q_A, q_B', q_t) are jointly Gaussian and zero-mean; the
    moments under the cut q_t > q_th follow from one-variable truncated
    Gaussian identities applied along the regression on q_t.  The squeezing
    enters in excess form (gaussian.squeezing_excess): b_q - 1 = zeta u + chi
    and c_q = sqrt(zeta) sinh 2r, which keep their digits at small r.
    """
    zeta = np.asarray(zeta, dtype=float)
    t, r = tap_t, 1.0 - tap_t
    b_q_1 = zeta * u + chi
    b_q = 1.0 + b_q_1
    c_q = np.sqrt(zeta) * sinh_2r
    v_t = r * b_q + t
    p_sel = 0.5 * _erfc(q_th / np.sqrt(2.0 * v_t))
    # E[q_t * 1{q_t > q_th}] for a centered Gaussian of variance v_t.
    gauss = np.exp(-q_th * q_th / (2.0 * v_t)) / np.sqrt(2.0 * math.pi * v_t)
    q_a = math.sqrt(r) * c_q * gauss
    q_b = math.sqrt(t * r) * b_q_1 * gauss
    q_a_sq = r * c_q**2 * q_th * gauss / v_t + (1.0 + u) * p_sel
    q_b_sq = t * r * b_q_1**2 * q_th * gauss / v_t + (t * b_q + r) * p_sel
    q_ab = math.sqrt(t) * r * b_q_1 * c_q * q_th * gauss / v_t + math.sqrt(t) * c_q * p_sel
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
    (u,), (sinh_2r,) = squeezing_excess((sq.r,))
    q_a, q_b, q_a_sq, q_b_sq, q_ab, p_sel, _, _ = _tap_moments(
        u, sinh_2r, eta * eta_prime, cfg.tap_t, cfg.q_th, chi
    )
    return QuantumMoments(
        q_a=float(q_a), q_b=float(q_b), q_a_sq=float(q_a_sq),
        q_b_sq=float(q_b_sq), q_ab=float(q_ab), p_select=float(p_sel),
    )


def _quantum_result(u: float, sinh_2r: float, zeta, w_u, w_d, cfg: QuantumPsConfig,
                    chi: float) -> PostSelectionResult:
    """Distilled CM of the tap moments summed on the outer product of the links' root rules."""
    t, r = cfg.tap_t, cfg.tap_r
    q_a, q_b, q_a_sq, q_b_sq, q_ab, p_sel, b_q, c_q = _tap_moments(u, sinh_2r, zeta, t, cfg.q_th, chi)
    p_s, s_a, s_b, s_aa, s_bb, s_ab, s_pb, s_pc = (
        float(w_u @ m @ w_d) for m in (p_sel, q_a, q_b, q_a_sq, q_b_sq, q_ab,
                                       p_sel * (t * b_q + r), p_sel * c_q))
    _check_success(p_s)
    mean_a, mean_b = s_a / p_s, s_b / p_s
    a_q, b_q_d, c_q_d = s_aa / p_s - mean_a**2, s_bb / p_s - mean_b**2, s_ab / p_s - mean_a * mean_b
    b_p_d, c_p_d = s_pb / p_s, -math.sqrt(t) * s_pc / p_s
    cm = TwoModeCM(np.array([
        [a_q, 0.0, c_q_d, 0.0],
        [0.0, 1.0 + u, 0.0, c_p_d],
        [c_q_d, 0.0, b_q_d, 0.0],
        [0.0, c_p_d, 0.0, b_p_d],
    ]))
    return PostSelectionResult(cm=cm, p_success=p_s, e_ln=log_negativity(cm))


def quantum_postselect(sq: Squeezing, ch_up: FadingChannel, ch_down: FadingChannel, cfg: QuantumPsConfig,
                       quad: QuadratureSpec = DEFAULT_QUAD, chi: float = 0.0) -> PostSelectionResult:
    """Distilled CM and success probability of the tap-and-threshold strategy.

    The tap moments are analytic in sqrt(zeta), through which alone they
    depend on the links, so _tap_moments summed on the outer product of the
    two links' LinkRule.root reproduces the full node-pair sum.  The q-sector
    entries are central moments of the kept ensemble; the p-sector is
    untouched by the q measurement apart from the selection reweighting.
    """
    return postselect_column((sq.r,), LinkRule(ch_up, quad), LinkRule(ch_down, quad), (cfg,), chi)[0][0]


def postselect_column(rs, up: LinkRule, down: LinkRule, selections, chi: float = 0.0) -> list:
    """One entry per selection over the up- and downlink: its rows at every squeezing r of rs.

    A ClassicalPsConfig keeps a standard-form CM; its entry is (P_s, (alpha,
    beta, c)) in schemes.ensemble_column's excess form: alpha = u, beta =
    u E[zeta] / P_s + chi, c = sinh(2r) E[sqrt(zeta)] / P_s.  A QuantumPsConfig's
    CM is outside that family; its entry is a list of PostSelectionResult.
    What does not depend on r, each threshold's sums or the root rules, is built once.
    """
    if chi < 0.0:
        raise DomainError(f"chi must be >= 0, got {chi}")
    u, sinh_2r = squeezing_excess(rs)
    if any(isinstance(cfg, QuantumPsConfig) for cfg in selections):
        (x_u, w_u), (x_d, w_d) = up.root, down.root
        zeta = (x_u[:, None] * x_d) ** 2
    out = []
    for cfg in selections:
        if isinstance(cfg, QuantumPsConfig):
            out.append([_quantum_result(u_i, s_i, zeta, w_u, w_d, cfg, chi)
                        for u_i, s_i in zip(u.tolist(), sinh_2r.tolist())])
            continue
        p_s, s_zeta, s_root = _selection_sums(up, down, cfg.zeta_th)
        out.append((p_s, (u, u * (s_zeta / p_s) + chi, sinh_2r * (s_root / p_s))))
    return out
