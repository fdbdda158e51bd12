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
from .gaussian import Squeezing, TwoModeCM, log_negativity, squeezing_excess
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


def _check_success(p_s) -> None:
    """Raise NumericalError where a success probability, a float or an array over r, is below the floor."""
    if np.any(p_s < P_SUCCESS_FLOOR):
        raise NumericalError(f"selection region is numerically empty: P_s={np.min(p_s):.3e}")


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


def _result(sq: Squeezing, ch_up: FadingChannel, ch_down: FadingChannel, cfg, quad: QuadratureSpec,
            chi: float) -> PostSelectionResult:
    """The one row of postselect_column at sq over the two channels, as a CM."""
    (p_s, q, p), = postselect_column((sq.r,), LinkRule(ch_up, quad), LinkRule(ch_down, quad), (cfg,), chi)
    (qa, qb, qc), (pa, pb, pc) = ([float(x[0]) for x in block] for block in (q, p))
    cm = TwoModeCM(np.array([[1.0 + qa, 0.0, qc, 0.0], [0.0, 1.0 + pa, 0.0, pc],
                             [qc, 0.0, 1.0 + qb, 0.0], [0.0, pc, 0.0, 1.0 + pb]]))
    return PostSelectionResult(cm=cm, p_success=float(p_s[0]), e_ln=log_negativity(cm))


def classical_postselect(sq: Squeezing, ch_up: FadingChannel, ch_down: FadingChannel, cfg: ClassicalPsConfig,
                         quad: QuadratureSpec = DEFAULT_QUAD, chi: float = 0.0) -> PostSelectionResult:
    """Conditional CM and success probability of threshold post-selection: postselect_column's row as a CM."""
    return _result(sq, ch_up, ch_down, cfg, quad, chi)


# Elementwise erfc from the standard library, so cvsat needs no scipy; it
# differs from scipy.special.erfc by at most 2 ulps of 1.
def _erfc(z):
    z = np.asarray(z, dtype=float)
    return np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


def _tap_selection(u: float, sinh_2r: float, zeta, tap_t: float, chi: float):
    """q_th -> _tap_moments(u, sinh_2r, zeta, tap_t, q_th, chi), its threshold-free terms formed once.

    Every moment is a threshold-free factor times gauss, q_th * gauss / v_t
    or p_sel, each factor formed in the order the moment's product takes.
    """
    zeta = np.asarray(zeta, dtype=float)
    t, r = tap_t, 1.0 - tap_t
    b_q_1 = zeta * u + chi
    b_q = 1.0 + b_q_1
    c_q = np.sqrt(zeta) * sinh_2r
    v_t = r * b_q + t
    two_v_t, root_2v_t, root_2pi_v_t = 2.0 * v_t, np.sqrt(2.0 * v_t), np.sqrt(2.0 * math.pi * v_t)
    a_g, b_g = math.sqrt(r) * c_q, math.sqrt(t * r) * b_q_1
    aa_g, bb_g, ab_g = r * c_q**2, t * r * b_q_1**2, math.sqrt(t) * r * b_q_1 * c_q
    aa_p, bb_p, ab_p = 1.0 + u, t * b_q + r, math.sqrt(t) * c_q

    def moments(q_th: float):
        p_sel = 0.5 * _erfc(q_th / root_2v_t)
        # E[q_t * 1{q_t > q_th}] for a centered Gaussian of variance v_t.
        gauss = np.exp(-q_th * q_th / two_v_t) / root_2pi_v_t
        return (a_g * gauss, b_g * gauss, aa_g * q_th * gauss / v_t + aa_p * p_sel,
                bb_g * q_th * gauss / v_t + bb_p * p_sel, ab_g * q_th * gauss / v_t + ab_p * p_sel,
                p_sel, b_q, c_q)

    return moments


def _tap_moments(u: float, sinh_2r: float, zeta, tap_t: float, q_th: float, chi: float):
    """Vectorized selection-weighted moments for given combined transmittances.

    After the tap, (q_A, q_B', q_t) are jointly Gaussian and zero-mean; the
    moments under the cut q_t > q_th follow from one-variable truncated
    Gaussian identities applied along the regression on q_t.  The squeezing
    enters in excess form (gaussian.squeezing_excess): b_q - 1 = zeta u + chi
    and c_q = sqrt(zeta) sinh 2r, which keep their digits at small r.  With
    t = tap_t, r = 1 - t, v_t = r b_q + t and gauss = exp(-q_th^2 / 2 v_t) /
    sqrt(2 pi v_t), the 8-tuple is

        q_a    = sqrt(r) c_q gauss
        q_b    = sqrt(t r) (b_q - 1) gauss
        q_a_sq = r c_q^2 q_th gauss / v_t + (1 + u) p_sel
        q_b_sq = t r (b_q - 1)^2 q_th gauss / v_t + (t b_q + r) p_sel
        q_ab   = sqrt(t) r (b_q - 1) c_q q_th gauss / v_t + sqrt(t) c_q p_sel
        p_sel  = erfc(q_th / sqrt(2 v_t)) / 2,  b_q,  c_q.
    """
    return _tap_selection(u, sinh_2r, zeta, tap_t, chi)(q_th)


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


def _quantum_blocks(u: np.ndarray, moments, w_u, w_d, cfg: QuantumPsConfig):
    """(P_s, q, p) of one threshold: its tap moments at every r summed on the outer product of the root rules."""
    t, r = cfg.tap_t, cfg.tap_r
    p_s, s_a, s_b, s_aa, s_bb, s_ab, s_pb, s_pc = np.array([
        [w_u @ m @ w_d for m in (p_sel, q_a, q_b, q_a_sq, q_b_sq, q_ab, p_sel * (t * b_q + r), p_sel * c_q)]
        for q_a, q_b, q_a_sq, q_b_sq, q_ab, p_sel, b_q, c_q in moments]).T
    _check_success(p_s)
    mean_a, mean_b = s_a / p_s, s_b / p_s
    q = (s_aa / p_s - mean_a**2 - 1.0, s_bb / p_s - mean_b**2 - 1.0, s_ab / p_s - mean_a * mean_b)
    return p_s, q, (u, s_pb / p_s - 1.0, -math.sqrt(t) * s_pc / p_s)


def quantum_postselect(sq: Squeezing, ch_up: FadingChannel, ch_down: FadingChannel, cfg: QuantumPsConfig,
                       quad: QuadratureSpec = DEFAULT_QUAD, chi: float = 0.0) -> PostSelectionResult:
    """Distilled CM and success probability of the tap-and-threshold strategy.

    The tap moments are analytic in sqrt(zeta), through which alone they
    depend on the links, so _tap_moments summed on the outer product of the
    two links' LinkRule.root reproduces the full node-pair sum.  The q-sector
    entries are central moments of the kept ensemble; the p-sector is
    untouched by the q measurement apart from the selection reweighting.
    """
    return _result(sq, ch_up, ch_down, cfg, quad, chi)


def postselect_column(rs, up: LinkRule, down: LinkRule, selections, chi: float = 0.0) -> list:
    """One entry (P_s, q, p) per selection over the up- and downlink, each an array over the squeezings rs.

    q and p are the kept CM's q and p blocks as (a - 1, b - 1, c): the
    variances of modes A and B less one and their covariance.  A
    ClassicalPsConfig keeps the a I, b I, diag(c, -c) family, in
    schemes.ensemble_column's excess form: q = (u, u E[zeta] / P_s + chi,
    sinh(2r) E[sqrt(zeta)] / P_s) and p = (u, the same, -c).  A
    QuantumPsConfig's CM is in that family only at tap_t = 1; its q block
    holds the kept ensemble's central moments, formed whole and then less one.
    What does not depend on r, each threshold's sums or the root rules, is built once.
    """
    if chi < 0.0:
        raise DomainError(f"chi must be >= 0, got {chi}")
    u, sinh_2r = squeezing_excess(rs)
    if any(isinstance(cfg, QuantumPsConfig) for cfg in selections):
        (x_u, w_u), (x_d, w_d) = up.root, down.root
        zeta = (x_u[:, None] * x_d) ** 2
        tapped = {}  # tap_t -> per r, the threshold-free tap terms
    out = []
    for cfg in selections:
        if isinstance(cfg, QuantumPsConfig):
            if cfg.tap_t not in tapped:
                tapped[cfg.tap_t] = [_tap_selection(u_i, s_i, zeta, cfg.tap_t, chi)
                                     for u_i, s_i in zip(u.tolist(), sinh_2r.tolist())]
            out.append(_quantum_blocks(u, [moments(cfg.q_th) for moments in tapped[cfg.tap_t]], w_u, w_d, cfg))
            continue
        p_s, s_zeta, s_root = _selection_sums(up, down, cfg.zeta_th)
        beta, c = u * (s_zeta / p_s) + chi, sinh_2r * (s_root / p_s)
        out.append((np.full(u.shape, p_s), (u, beta, c), (u, beta, -c)))
    return out
