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
on the separable side is reported rather than clamped away.

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
from .fading import (
    D_MAX_SIGMAS,
    FadingChannel,
    LinkGeometry,
    deflection_of_eta,
    eta_of_deflection,
    rayleigh_pdf,
    scaled_subdivisions,
    transmittance_nodes,
)
from .gaussian import Squeezing, StandardFormCM, TwoModeCM, standard_form
from .numerics import DEFAULT_QUAD, QuadratureSpec, pair_sums, panel_nodes, tensor_rule
from .schemes import SchemeConfig, path_moments


@dataclass(frozen=True)
class EffectiveParams:
    """Effective squeezing and per-mode loss transmittivities."""

    r_e: float
    eta_a: float
    eta_b: float


def to_effective(cm: TwoModeCM | StandardFormCM) -> EffectiveParams:
    """Effective (r_e, eta_a, eta_b) of an entangled phase-symmetric CM.

    Defined only for the a*I / b*I / diag(c, -c) family and only when the CM
    is entangled; apply_loss(tmsv_cm(r_e), eta_a, eta_b) reconstructs the
    input.
    """
    sf = cm if isinstance(cm, StandardFormCM) else standard_form(cm)
    scale = max(1.0, abs(sf.c_plus))
    if abs(sf.c_plus + sf.c_minus) > 1e-9 * scale:
        raise DomainError("effective reduction needs a phase-symmetric cross block (c+ = -c-)")
    c_sq = -sf.c_plus * sf.c_minus
    prod = (sf.a - 1.0) * (sf.b - 1.0)
    if c_sq <= prod:
        raise DomainError("CM is separable; no effective squeezed-state equivalent exists")
    ch2 = (c_sq + prod) / (c_sq - prod)
    if ch2 - 1.0 <= 1e-15:
        raise NumericalError("degenerate reduction: effective squeezing vanishes")
    eta_a = (sf.a - 1.0) / (ch2 - 1.0)
    eta_b = (sf.b - 1.0) / (ch2 - 1.0)
    for name, eta in (("eta_a", eta_a), ("eta_b", eta_b)):
        if eta > 1.0 + 1e-9:
            raise NumericalError(f"effective {name}={eta} exceeds 1 beyond tolerance")
    return EffectiveParams(
        r_e=0.5 * math.acosh(ch2),
        eta_a=min(eta_a, 1.0),
        eta_b=min(eta_b, 1.0),
    )


def try_effective(cm: TwoModeCM | StandardFormCM) -> EffectiveParams | None:
    """to_effective, or None when the CM is separable or outside the family."""
    try:
        return to_effective(cm)
    except DomainError:
        return None


def _cosh_swapped(e, ep, v: float):
    """Per-realization cosh(2 r'') of the swapped state; singular on e + ep = 1."""
    num = (e * e + ep * ep) * (1.0 - v) + e * ep * (v * v + 3.0) \
        + (e + ep) * (v - 3.0) + 2.0
    return num / ((e + ep - 1.0) * ((e + ep) * (v - 1.0) + 2.0))


@dataclass(frozen=True)
class SwapEtaAverages:
    """Fading averages of the swap effective transmittivities.

    eta_a and eta_b average the per-realization values over the region where
    the reduction exists (the entangled side eta + eta' > 1) and count the
    separable side as zero, which is the continuous extension: the closed
    forms vanish on the boundary.  The signed fields keep the closed forms
    integrated over the whole square; they go negative once the separable
    side carries mass and are reported for diagnosis, never used as
    transmittivities.
    """

    eta_a: float
    eta_b: float
    signed_eta_a: float
    signed_eta_b: float
    separable_mass: float


def _swap_eta_integrals(ch_a: FadingChannel, ch_b: FadingChannel, v: float,
                        quad: QuadratureSpec) -> SwapEtaAverages:
    def integrand(e, ep):
        across = -(e + ep - 1.0) * (v - 1.0)
        num_a = across / (e * (1.0 - v) + 2.0 * (ep - 1.0))
        num_b = across / (ep * (1.0 - v) + 2.0 * (e - 1.0))
        yield np.maximum(num_a, 0.0)
        yield np.maximum(num_b, 0.0)
        yield num_a
        yield num_b
        yield ((e + ep) < 1.0) * 1.0

    eta_b, w_b = transmittance_nodes(ch_b, quad)
    sums = pair_sums(transmittance_nodes(ch_a, quad), tensor_rule(eta_b, w_b), eta_b.size,
                     integrand)
    return SwapEtaAverages(eta_a=sums[0], eta_b=sums[1], signed_eta_a=sums[2],
                           signed_eta_b=sums[3], separable_mass=sums[4])


def _swap_cosh_average(ch_a: FadingChannel, ch_b: FadingChannel, v: float,
                       quad: QuadratureSpec) -> tuple[float, bool]:
    """Fading average of cosh(2 r''), as a principal value where it straddles the pole.

    Returns (value, pv_used).  For each A-side node with eta above 1 - eta0'
    the B-side deflection integral crosses the pole once; the singular part is
    subtracted analytically and added back in closed form.  Every other row
    sums _cosh_swapped over the B-side node table.
    """
    eta_a, w_a = transmittance_nodes(ch_a, quad)
    if ch_b.point_mass and np.any(np.abs(eta_a + ch_b.eta0 - 1.0) < 1e-9):
        raise NumericalError("point-mass node sits on the swapped-state boundary")

    d_hi = D_MAX_SIGMAS * ch_b.sigma_b
    t01, w01 = panel_nodes(0.0, 1.0, quad, subdivisions=scaled_subdivisions(ch_b, quad))
    eta_b_floor = float(eta_of_deflection(ch_b, d_hi))
    lam, l_s, sig = ch_b.lambda_shape, ch_b.l_scale, ch_b.sigma_b

    def smooth_part(e, d, eb):
        num = (e * e + eb ** 2) * (1.0 - v) + e * eb * (v * v + 3.0) \
            + (e + eb) * (v - 3.0) + 2.0
        return rayleigh_pdf(d, sig) * num / ((e + eb) * (v - 1.0) + 2.0)

    def crossing(e):
        return np.asarray(deflection_of_eta(ch_b, 1.0 - e), dtype=float)

    def residue(e, d0):
        # Slope of s(d) = e + eta_b(d) - 1 at the crossing.
        slope = -(1.0 - e) * 0.5 * lam * d0 ** (lam - 1.0) / l_s**lam
        return smooth_part(e, d0, eta_of_deflection(ch_b, d0)) / slope

    def split_at_pole(e, w):
        d0 = crossing(e)[:, None]
        width = d_hi - d0
        d = np.concatenate((d0 * t01, d0 + width * t01), axis=1)
        return d, w[:, None] * np.concatenate((d0 * w01, width * w01), axis=1)

    def subtracted(e, d):
        d0 = crossing(e)
        eb = eta_of_deflection(ch_b, d)
        yield smooth_part(e, d, eb) / (e + eb - 1.0) - residue(e, d0) / (d - d0)

    pole = (eta_a > 1.0 - ch_b.eta0) & (eta_a < 1.0 - eta_b_floor)
    # Each sum is empty, hence 0, when no row falls on its side of the split.
    eta_b, w_b = transmittance_nodes(ch_b, quad)
    total = sum(pair_sums((eta_a[~pole], w_a[~pole]), tensor_rule(eta_b, w_b), eta_b.size,
                          lambda e, eb: (_cosh_swapped(e, eb, v),)))
    if np.any(pole):
        e, w = eta_a[pole], w_a[pole]
        total += sum(pair_sums((e, w), split_at_pole, 2 * t01.size, subtracted))
        d0 = crossing(e)
        total += float(w @ (residue(e, d0) * np.log((d_hi - d0) / d0)))
    return total, bool(np.any(pole))


def _swap_summary(cfg: SchemeConfig, include_squeezing: bool = True) -> tuple[EffectiveParams, dict]:
    """Swap effective parameters plus the diagnostics ordering_check reports."""
    ch_a, ch_b = cfg.links()
    v = cfg.squeezing.v
    etas = _swap_eta_integrals(ch_a, ch_b, v, cfg.quad)
    cosh_avg, pv_used, r_e = None, False, float("nan")
    if include_squeezing:
        cosh_avg, pv_used = _swap_cosh_average(ch_a, ch_b, v, cfg.quad)
        if cosh_avg >= 1.0:
            r_e = 0.5 * math.acosh(cosh_avg)
    diagnostics = {
        "swap_separable_mass": etas.separable_mass,
        "swap_signed_eta_a": etas.signed_eta_a,
        "swap_signed_eta_b": etas.signed_eta_b,
        "swap_pv_used": pv_used,
        "swap_cosh_avg": cosh_avg,
    }
    return EffectiveParams(r_e=r_e, eta_a=etas.eta_a, eta_b=etas.eta_b), diagnostics


def scheme_effective_summary(cfg: SchemeConfig) -> EffectiveParams:
    """Scheme-level effective parameters from per-realization reductions.

    Direct and satellite realizations are literal loss channels, so their
    effective squeezing equals the source squeezing and only the
    transmittivities average.  Swapping averages both.
    """
    if cfg.kind == "swap":
        return _swap_summary(cfg)[0]
    (eta_a, _), (eta_b, _) = path_moments(cfg)
    return EffectiveParams(r_e=cfg.squeezing.r, eta_a=eta_a, eta_b=eta_b)


def ordering_check(
    geometry: LinkGeometry,
    sq: Squeezing,
    beta: float,
    w: float,
    quad: QuadratureSpec = DEFAULT_QUAD,
    include_swap_squeezing: bool = True,
) -> dict:
    """Compare total effective transmittivities of the three schemes.

    Swapping can never beat direct transmission (eta_a'' * eta_b'' <=
    eta_a * eta_b); the satellite source beats direct whenever the downlinks
    genuinely fade less than the uplink.  Violations are reported in the
    returned dict, never raised.
    """
    report: dict = {}
    for kind in ("direct", "satellite", "swap"):
        cfg = SchemeConfig(kind=kind, squeezing=sq, geometry=geometry,
                           beta=beta, w=w, quad=quad)
        if kind == "swap":
            params, diagnostics = _swap_summary(cfg, include_swap_squeezing)
            report.update(diagnostics)
        else:
            params = scheme_effective_summary(cfg)
        report[kind] = {"r_e": params.r_e, "eta_a": params.eta_a, "eta_b": params.eta_b,
                        "eta_product": params.eta_a * params.eta_b}
    direct_p = report["direct"]["eta_product"]
    report["swap_le_direct"] = bool(report["swap"]["eta_product"] <= direct_p + 1e-12)
    report["satellite_ge_direct"] = bool(report["satellite"]["eta_product"] >= direct_p - 1e-12)
    return report
