"""Effective-channel reduction of entangled standard-form CMs.

Any entangled CM with blocks a*I, b*I, diag(c, -c) is equivalent to a
two-mode squeezed vacuum with effective squeezing r_e sent through pure-loss
channels of transmittivity eta_a and eta_b.  This gives every scheme a common
(squeezing, loss, loss) footprint, which is what makes the scheme ordering
argument possible.

For the swapping scheme the per-realization effective squeezing diverges on
the boundary eta + eta' = 1, where the swapped state crosses from entangled
to separable.  When the fading statistics straddle that boundary the
ensemble average of cosh(2 r'') exists only as a Cauchy principal value; it
is computed here by a pole-subtracted rule and the amount of probability mass
on the separable side is reported rather than clamped away.  Per
realization, with s = eta + eta',

    cosh(2 r'') = -1 + (v + 1) eta eta' / (s - 1) - (v^2 - 1) eta eta' / (s (v - 1) + 2),

so the pole carries no squeezing beyond the factor v + 1, and the average is
-M + (v + 1) P - (v^2 - 1) C(v).  The weight mass M and the principal value P
depend only on the links and the rule, so a sigma_b column computes them
once for all its r.  With u = v - 1, (v^2 - 1) C(v) = (u + 2) E[eta eta' H]
for the swap ensemble's H = u / (s u + 2) at chi = 0, so every r reads its
smooth part from the ensemble's root-rule pass (schemes.swap_moments); the
transmittivities and, once, the separable mass are summed over the node
tables, their clipped parts only on the rectangle of nodes that can reach
the entangled side.

The per-realization effective transmittivities are defined only on the
entangled side; their closed forms vanish on the boundary and turn negative
below it, where no reduction exists.  The reported averages therefore run
over the entangled region (separable realizations count as zero), which
keeps them in [0, 1]; the signed whole-square integrals are retained purely
as diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
# transmittance_nodes is unused here; perfbench/replay.py wraps it by attribute lookup in this module.
from .fading import (LinkGeometry, LinkRule, Links, deflection_of_eta, eta_of_deflection,  # noqa: F401
                     expand_links, rayleigh_pdf, transmittance_nodes)
from .gaussian import TOL_PHYS, Squeezing, TwoModeCM, squeezing_excess, standard_form
from .numerics import DEFAULT_QUAD, QuadratureSpec, pair_sums
from .schemes import KINDS, SchemeConfig, path_moments, scheme_links, swap_moments


@dataclass(frozen=True)
class EffectiveParams:
    """Effective squeezing and per-mode loss transmittivities."""

    r_e: float
    eta_a: float
    eta_b: float


def _rounding_error(a, b, p):
    """a b - p exactly, p being a b rounded (Dekker: each factor splits into halves of 26 bits)."""
    a_hi, b_hi = (134217729.0 * x - (134217729.0 * x - x) for x in (a, b))
    a_lo, b_lo = a - a_hi, b - b_hi
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def standard_rows(alpha, beta, c) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (e_ln, r_e, eta_a, eta_b) over rows of the a I, b I, diag(c, -c) family in excess form.

    alpha = a - 1, beta = b - 1 and c hold one entry per row; m, M = min, max(alpha, beta).  An
    unphysical row raises TwoModeCM's DomainError: a variance or det Q not positive, or nu_- - 1 =
    2 (m (M + 2) - c^2) / (sqrt((2 + alpha + beta)^2 - 4 c^2) + 2 + M - m) below -TOL_PHYS.  A
    row is entangled where m and d = c^2 - alpha beta are positive, d formed exactly, since near a
    pure state its two terms share most digits.  Then nu~_- - 1 = -2 d / (alpha + beta +
    sqrt((alpha - beta)^2 + 4 c^2)), E_LN = -log1p(nu~_- - 1) / ln 2, and the reduction to a
    two-mode squeezed vacuum through pure losses has cosh(2 r_e) - 1 = x = 2 alpha beta / d,
    eta_a = d / (2 beta) and eta_b = d / (2 alpha); other rows get E_LN 0 and NaN there.
    Physicality, c^2 <= m (M + 2), bounds eta_a by (m (M + 2) - alpha beta) / (2 beta), which is
    m / M if beta = M and 1 if beta = m, and eta_b likewise; min(., 1) clamps the TOL_PHYS slack.
    """
    c_sq, ab = c * c, alpha * beta
    lo, hi = np.minimum(alpha, beta), np.maximum(alpha, beta)
    if not (np.all(lo > -1.0) and np.all(1.0 + alpha + beta + ab > c_sq)):
        raise DomainError("unphysical covariance matrix: a variance or det Q is not positive")
    nu_1 = 2.0 * (lo * (hi + 2.0) - c_sq) / (np.sqrt((2.0 + alpha + beta) ** 2 - 4.0 * c_sq) + 2.0 + hi - lo)
    if not np.all(nu_1 >= -TOL_PHYS):
        raise DomainError("unphysical covariance matrix: smallest squared symplectic eigenvalue "
                          f"{(1.0 + np.min(nu_1)) ** 2:.12g} < 1")
    d = (c_sq - ab) + (_rounding_error(c, c, c_sq) - _rounding_error(alpha, beta, ab))
    entangled = (d > 0.0) & (lo > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        nu_pt_1 = -2.0 * d / (alpha + beta + np.sqrt((alpha - beta) ** 2 + 4.0 * c_sq))
        x = 2.0 * ab / d
        return (np.where(entangled, -np.log1p(nu_pt_1) / math.log(2.0), 0.0),
                np.where(entangled, 0.5 * np.log1p(x + np.sqrt(x * (x + 2.0))), np.nan),
                np.where(entangled, np.minimum(d / (2.0 * beta), 1.0), np.nan),
                np.where(entangled, np.minimum(d / (2.0 * alpha), 1.0), np.nan))


def to_effective(cm: TwoModeCM) -> EffectiveParams:
    """Effective (r_e, eta_a, eta_b) of an entangled phase-symmetric CM.

    Defined only for the a*I / b*I / diag(c, -c) family and only when the CM
    is entangled; apply_loss(tmsv_cm(r_e), eta_a, eta_b) reconstructs the
    input wherever r_e is at most gaussian.MAX_SQUEEZING: standard_rows of its one row.
    """
    sf = standard_form(cm)
    if abs(sf.c_plus + sf.c_minus) > 1e-9 * max(1.0, abs(sf.c_plus)):
        raise DomainError("effective reduction needs a phase-symmetric cross block (c+ = -c-)")
    _, r_e, eta_a, eta_b = (float(x) for x in standard_rows(sf.a - 1.0, sf.b - 1.0, sf.c_plus))
    if math.isnan(r_e):
        raise DomainError("CM is separable; no effective squeezed-state equivalent exists")
    return EffectiveParams(r_e=r_e, eta_a=eta_a, eta_b=eta_b)


def try_effective(cm: TwoModeCM) -> EffectiveParams | None:
    """to_effective, or None when the CM is separable or outside the family."""
    try:
        return to_effective(cm)
    except DomainError:
        return None


def _swap_eta_integrals(rules: tuple[LinkRule, LinkRule], us) -> tuple[float, list[list[float]]]:
    """The separable mass and the squeezing-dependent swap transmittivities of every u = v - 1 in us.

    rules are those of the A and B links.  Returns
    (separable_mass, [[eta_a, eta_b, signed_eta_a, signed_eta_b] per u]).
    separable_mass is the weight of the separable side s < 1,
    s = eta + eta'.  eta_a and eta_b average the per-realization values over
    the region where the reduction exists (the entangled side s > 1) and count
    the separable side as zero, which is the continuous extension: the closed
    forms vanish on the boundary.  The signed fields keep the closed forms
    integrated over the whole square; they go negative once the separable
    side carries mass and are reported for diagnosis, never used as
    transmittivities.

    With k = 2/u, x = eta / (1 - eta') and y = eta' / (1 - eta)
    the closed forms read num_a = (x - 1) / (x + k) and num_b = (y - 1) / (y + k);
    each block forms x - 1 and y - 1 once, so each u costs one add and one
    divide per side.  Both are bounded, so they run over the tables without
    their far tails (LinkRule.trimmed); the separable mass, which can be
    smaller than a tail, adds the trimmed pairs back.  max(num, 0) is 0 unless
    x > 1 or y > 1; the tables descend in eta, so those pairs lie in a prefix
    rectangle, and only there is the clip formed.
    """
    (eta_a, w_a), (eta_b, w_b) = (rule.table for rule in rules)
    (ea, wa), (eb, wb) = (rule.trimmed for rule in rules)

    def minus_1(e, ep):
        # x - 1 and y - 1.  A transmittance that rounds to 1 makes x or y 1e300
        # rather than infinite, so num takes its limit 1 there.
        return e / np.maximum(1.0 - ep, 1e-300) - 1.0, ep / np.maximum(1.0 - e, 1e-300) - 1.0

    def integrand(clipped):
        def outputs(e, ep):
            num = e + ep
            yield np.less(num, 1.0, out=num)
            out = np.empty_like(num)
            sides = minus_1(e, ep)
            for u in us:
                for z_minus_1 in sides:
                    if u == 0.0:
                        num.fill(0.0)
                    else:
                        np.divide(z_minus_1, np.add(z_minus_1, 1.0 + 2.0 / u, out=num), out=num)
                    if clipped:
                        yield np.maximum(num, 0.0, out=out)
                    yield num
        return outputs

    # x and y grow with eta and eta', so a row with no pair past 1 against
    # the B table's largest eta has none at all, and likewise a column.
    rows = int(np.count_nonzero(np.maximum(*minus_1(ea, eb[0])) > 0.0))
    cols = int(np.count_nonzero(np.maximum(*minus_1(ea[0], eb)) > 0.0))
    clipped = pair_sums((ea[:rows], wa[:rows]), (eb[:cols], wb[:cols]), integrand(True))
    signed = [below + beside for below, beside in zip(
        pair_sums((ea[rows:], wa[rows:]), (eb, wb), integrand(False)),
        pair_sums((ea[:rows], wa[:rows]), (eb[cols:], wb[cols:]), integrand(False)))]
    n_a, n_b = ea.size, eb.size
    separable_mass = (clipped[0] + signed[0] + w_a[n_a:] @ ((eta_a[n_a:, None] + eta_b) < 1.0) @ w_b
                      + wa @ ((ea[:, None] + eta_b[n_b:]) < 1.0) @ w_b[n_b:])

    # After the indicator, each u yielded max(num_a, 0), num_a, max(num_b, 0),
    # num_b in the rectangle and num_a, num_b elsewhere.
    return float(separable_mass), [
        [clipped[4 * i + 1], clipped[4 * i + 3], clipped[4 * i + 2] + signed[2 * i + 1],
         clipped[4 * i + 4] + signed[2 * i + 2]]
        for i in range(len(us))]


def _swap_pole_sums(rules: tuple[LinkRule, LinkRule]) -> tuple[float, float, bool]:
    """The squeezing-independent swap sums (M, P, pv_used) over the links' plain tables.

    M is the weight mass of the rules below and P the fading average of
    eta eta' / (s - 1), s = eta + eta', a principal value where the
    statistics straddle the pole s = 1.  For each A-side node with eta above
    1 - eta0' the B-side deflection integral crosses the pole once: the rule
    splits there, the pole is subtracted and added back in closed form (the
    log term).  Every other row sums over the whole B-side node table, tail
    included, because the integrand is unbounded near the pole.
    """
    (eta_a, w_a), (eta_b, w_b) = (rule.table for rule in rules)
    ch_b = rules[1].ch
    if ch_b.point_mass and np.any(np.abs(eta_a + ch_b.eta0 - 1.0) < 1e-9):
        raise NumericalError("point-mass node sits on the swapped-state boundary")

    d_hi = float(rules[1].edges[-1])
    eta_b_floor = float(eta_of_deflection(ch_b, d_hi))
    lam, l_s, sig = ch_b.lambda_shape, ch_b.l_scale, ch_b.sigma_b

    def crossing(e):
        return np.asarray(deflection_of_eta(ch_b, 1.0 - e), dtype=float)

    def residue(e, d0):
        # Slope of s(d) = e + eta_b(d) - 1 at the crossing.
        slope = -(1.0 - e) * 0.5 * lam * d0 ** (lam - 1.0) / l_s**lam
        return rayleigh_pdf(d0, sig) * e * eta_of_deflection(ch_b, d0) / slope

    def subtracted(e, t):
        # The unit variable t in [0, 1] maps to d = d0 t below the crossing
        # and to d = d0 + (d_hi - d0) t above it; the outer weight columns
        # carry the two Jacobians.
        d0 = crossing(e)
        res = residue(e, d0)
        for d in (d0 * t, d0 + (d_hi - d0) * t):
            eb = eta_of_deflection(ch_b, d)
            density = rayleigh_pdf(d, sig)
            yield density
            yield density * e * eb / (e + eb - 1.0) - res / (d - d0)

    pole = (eta_a > 1.0 - ch_b.eta0) & (eta_a < 1.0 - eta_b_floor)
    # A side of the split with no rows sums to 0.
    mass = float(w_a[~pole].sum()) * float(w_b.sum())
    # Where eta0 rounds to 1 and the far tail to 0, a node pair can sit on s = 1 exactly.
    with np.errstate(all="ignore"):
        try:
            pv_sum, = pair_sums((eta_a[~pole], w_a[~pole]), (eta_b, w_b),
                                lambda e, eb: (e * eb / (e + eb - 1.0),))
        except NumericalError:
            raise NumericalError("an off-pole node pair sits on the swapped-state boundary s = 1") from None
    if np.any(pole):
        e, w = eta_a[pole], w_a[pole]
        d0 = crossing(e)
        with np.errstate(all="ignore"):
            try:
                below_mass, below_pv, above_mass, above_pv = pair_sums(
                    (e, np.stack((w * d0, w * (d_hi - d0)), axis=1)), rules[1].unit, subtracted)
            except NumericalError:
                raise NumericalError("a pole-row node sits on the swapped-state boundary s = 1") from None
        mass += float(below_mass[0] + above_mass[1])
        pv_sum += (float(below_pv[0] + above_pv[1])
                   + float(w @ (residue(e, d0) * np.log((d_hi - d0) / d0))))
    return mass, pv_sum, bool(np.any(pole))


def _summary(kind: str, rules: tuple[LinkRule, LinkRule], rs) -> list[tuple[EffectiveParams, dict]]:
    """Per squeezing r in rs, scheme-level effective parameters and the diagnostics ordering_check reports.

    Direct and satellite realizations are literal loss channels, so their
    effective squeezing equals the source squeezing, only the
    transmittivities average and there are no diagnostics.  Swapping
    averages both; its pole sums are computed once for all squeezings, and
    E[eta eta' H] of every u = 2 sinh(r)^2 in one swap_moments pass at chi = 0.
    """
    if kind != "swap":
        (eta_a, _), (eta_b, _) = path_moments(kind, rules)
        return [(EffectiveParams(r_e=r, eta_a=eta_a, eta_b=eta_b), {}) for r in rs]
    us, _ = squeezing_excess(rs)
    separable_mass, integrals = _swap_eta_integrals(rules, us)
    mass, pv_sum, pv_used = _swap_pole_sums(rules)
    out = []
    for u, smooth, (eta_a, eta_b, signed_eta_a, signed_eta_b) in zip(
            us.tolist(), swap_moments(rules, us, 0.0)[:, 2, 2].tolist(), integrals):
        cosh_avg = -mass + (u + 2.0) * (pv_sum - smooth)
        r_e = 0.5 * math.acosh(cosh_avg) if cosh_avg >= 1.0 else float("nan")
        out.append((EffectiveParams(r_e=r_e, eta_a=eta_a, eta_b=eta_b), {
            "swap_separable_mass": separable_mass,
            "swap_signed_eta_a": signed_eta_a,
            "swap_signed_eta_b": signed_eta_b,
            "swap_pv_used": pv_used,
            "swap_cosh_avg": cosh_avg,
        }))
    return out


def scheme_effective_summary(cfg: SchemeConfig) -> EffectiveParams:
    """Scheme-level effective parameters from per-realization reductions."""
    return _summary(cfg.kind, cfg.rules(), (cfg.squeezing.r,))[0][0]


def ordering_column(links: Links, rs) -> list[dict]:
    """ordering_check of every squeezing r in rs, over one sigma_b column's link rules.

    The schemes share the rules, and each scheme's r-independent sums are
    computed once for all r.
    """
    summaries = [_summary(kind, scheme_links(kind, links), rs) for kind in KINDS]
    reports = []
    for point in zip(*summaries):
        report: dict = {}
        for kind, (params, diagnostics) in zip(KINDS, point):
            report.update(diagnostics)
            report[kind] = {"r_e": params.r_e, "eta_a": params.eta_a, "eta_b": params.eta_b,
                            "eta_product": params.eta_a * params.eta_b}
        direct_p = report["direct"]["eta_product"]
        report["swap_le_direct"] = bool(report["swap"]["eta_product"] <= direct_p + 1e-12)
        report["satellite_ge_direct"] = bool(report["satellite"]["eta_product"] >= direct_p - 1e-12)
        reports.append(report)
    return reports


def ordering_check(
    geometry: LinkGeometry,
    sq: Squeezing,
    beta: float,
    w: float,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> dict:
    """Compare total effective transmittivities of the three schemes.

    Swapping can never beat direct transmission (eta_a'' * eta_b'' <=
    eta_a * eta_b); the satellite source beats direct whenever the downlinks
    genuinely fade less than the uplink.  Violations are reported in the
    returned dict, never raised.
    """
    return ordering_column(Links(*(LinkRule(ch, quad) for ch in expand_links(geometry, beta, w))),
                           (sq.r,))[0]
