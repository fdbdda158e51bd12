"""Output covariance matrices of the three entanglement distribution schemes.

Direct transmission: station A keeps one half of a squeezed pair and bounces
the other off the satellite (uplink AS, downlink SB).  Satellite source: the
pair is produced on the satellite and both halves travel downlinks (SA, SB).
Swapping: both stations uplink one half each (AS, BS) and the satellite
performs a continuous-variable Bell measurement, broadcasting the outcomes so
the stations can apply gain-weighted displacements.

Each scheme has a per-realization CM at fixed transmittances and an ensemble
CM obtained by averaging the per-realization CM elements over the fading
statistics.  The ensemble state itself is a non-Gaussian mixture; only its
second moments (and hence its Gaussian entanglement) are tracked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .fading import FadingChannel, LinkGeometry, expand_links, transmittance_nodes
from .gaussian import Squeezing, StandardFormCM, TwoModeCM
from .numerics import DEFAULT_QUAD, QuadratureSpec, pair_sums, tensor_rule

KINDS = ("direct", "satellite", "swap")


@dataclass(frozen=True)
class SchemeConfig:
    kind: str
    squeezing: Squeezing
    geometry: LinkGeometry
    beta: float
    w: float
    chi: float = 0.0
    quad: QuadratureSpec = DEFAULT_QUAD

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DomainError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.chi < 0.0:
            raise DomainError(f"chi must be >= 0, got {self.chi}")

    def links(self) -> tuple[FadingChannel, FadingChannel]:
        """The pair of channels the scheme actually uses, in (A-side, B-side) order."""
        ln = expand_links(self.geometry, self.beta, self.w)
        if self.kind == "direct":
            return ln.a_s, ln.s_b
        if self.kind == "satellite":
            return ln.s_a, ln.s_b
        return ln.a_s, ln.b_s


def _check_transmittance(name: str, eta: float) -> None:
    if not (0.0 <= eta <= 1.0):
        raise DomainError(f"{name} must lie in [0, 1], got {eta}")


def _standard_cm(a: float, b: float, c: float) -> TwoModeCM:
    return StandardFormCM(a=a, b=b, c_plus=c, c_minus=-c).to_cm()


def direct_realization(sq: Squeezing, eta: float, eta_prime: float, chi: float = 0.0) -> TwoModeCM:
    """CM after one mode of a squeezed pair crosses both links with given transmittances."""
    _check_transmittance("eta", eta)
    _check_transmittance("eta_prime", eta_prime)
    v = sq.v
    zeta = eta * eta_prime
    return _standard_cm(
        a=v,
        b=1.0 + zeta * (v - 1.0) + chi,
        c=math.sqrt(zeta) * math.sqrt(v * v - 1.0),
    )


def path_moments(cfg: SchemeConfig) -> list[tuple[float, float]]:
    """(E[eta], E[sqrt(eta)]) of the paths modes A and B cross in the direct or satellite scheme.

    Direct: mode A stays home (1, 1); mode B crosses the uplink, then the
    downlink.  Satellite: each mode crosses its own downlink.  Links fade
    independently, so a path's moments are products of its links' moments.
    """
    ch_a, ch_b = cfg.links()
    moments = []
    for path in ((), (ch_a, ch_b)) if cfg.kind == "direct" else ((ch_a,), (ch_b,)):
        mean = root = 1.0
        for ch in path:
            eta, w = transmittance_nodes(ch, cfg.quad)
            mean *= float(w @ eta)
            root *= float(w @ np.sqrt(eta))
        moments.append((mean, root))
    return moments


@dataclass(frozen=True)
class SwapGains:
    """Displacement gains applied by stations A (g1) and B (g4)."""

    g1: float
    g4: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g1) and math.isfinite(self.g4)):
            raise DomainError(f"gains must be finite, got ({self.g1}, {self.g4})")


@dataclass(frozen=True)
class GeneralBipartiteInput:
    """Two zero-mean two-mode states entering the Bell measurement.

    State one covers modes (1, 2) with blocks a*I, b*I and cross diag(c+, c-);
    state two covers modes (3, 4) with blocks d*I, e*I and cross diag(f+, f-).
    Modes 2 and 3 are the ones measured.
    """

    a: float
    b: float
    c_plus: float
    c_minus: float
    d: float
    e: float
    f_plus: float
    f_minus: float

    def __post_init__(self) -> None:
        # Physicality of each constituent state is enforced by embedding.
        StandardFormCM(a=self.a, b=self.b, c_plus=self.c_plus, c_minus=self.c_minus)
        StandardFormCM(a=self.d, b=self.e, c_plus=self.f_plus, c_minus=self.f_minus)


def swap_conditional(inp: GeneralBipartiteInput) -> TwoModeCM:
    """CM of modes (1, 4) after a Bell measurement of modes (2, 3).

    The balanced beam splitter maps the measured pair to difference and sum
    ports; homodyning q on one and p on the other conditions the kept modes.
    """
    s = inp.b + inp.d
    if s <= 1e-12:
        raise NumericalError(f"measured-mode variance sum {s} is not positive")
    m = np.zeros((4, 4))
    m[0, 0] = inp.a - inp.c_plus**2 / s
    m[1, 1] = inp.a - inp.c_minus**2 / s
    m[2, 2] = inp.e - inp.f_plus**2 / s
    m[3, 3] = inp.e - inp.f_minus**2 / s
    m[0, 2] = m[2, 0] = inp.c_plus * inp.f_plus / s
    m[1, 3] = m[3, 1] = -inp.c_minus * inp.f_minus / s
    return TwoModeCM(m)


def swap_ensemble_cm(inp: GeneralBipartiteInput, gains: SwapGains) -> TwoModeCM:
    """CM of the displaced state averaged over Bell outcomes, for arbitrary gains."""
    s = inp.b + inp.d
    g1, g4 = gains.g1, gains.g4
    m = np.zeros((4, 4))
    m[0, 0] = inp.a + s * g1**2 - 2.0 * inp.c_plus * g1
    m[1, 1] = inp.a + s * g1**2 + 2.0 * inp.c_minus * g1
    m[2, 2] = inp.e + s * g4**2 - 2.0 * inp.f_plus * g4
    m[3, 3] = inp.e + s * g4**2 + 2.0 * inp.f_minus * g4
    m[0, 2] = m[2, 0] = inp.c_plus * g4 + inp.f_plus * g1 - g1 * g4 * s
    m[1, 3] = m[3, 1] = inp.c_minus * g4 + inp.f_minus * g1 + g1 * g4 * s
    return TwoModeCM(m)


def general_optimal_gains(inp: GeneralBipartiteInput) -> SwapGains:
    """Gains that zero the residual conditional means of the kept modes.

    A single gain per mode can cancel both quadrature residuals only for
    phase-symmetric cross blocks (c+ = -c-, f+ = -f-).
    """
    tol = 1e-9 * max(1.0, abs(inp.c_plus), abs(inp.f_plus))
    if abs(inp.c_plus + inp.c_minus) > tol or abs(inp.f_plus + inp.f_minus) > tol:
        raise DomainError("optimal phase-independent gains need c+ = -c- and f+ = -f-")
    s = inp.b + inp.d
    return SwapGains(g1=inp.c_plus / s, g4=inp.f_plus / s)


def optimal_gains(eta: float, eta_prime: float, sq: Squeezing) -> SwapGains:
    """Optimal displacement gains for squeezed-pair inputs after lossy uplinks."""
    _check_transmittance("eta", eta)
    _check_transmittance("eta_prime", eta_prime)
    v = sq.v
    den = 2.0 + (eta + eta_prime) * (v - 1.0)
    root = math.sqrt(v * v - 1.0)
    return SwapGains(g1=math.sqrt(eta) * root / den, g4=math.sqrt(eta_prime) * root / den)


def swap_inputs(sq: Squeezing, eta: float, eta_prime: float, chi: float = 0.0) -> GeneralBipartiteInput:
    """The two uplink-attenuated squeezed pairs arriving at the Bell measurement.

    Excess noise chi sits on each transmitted mode (mode 2 of the first pair,
    mode 3 of the second).
    """
    _check_transmittance("eta", eta)
    _check_transmittance("eta_prime", eta_prime)
    v = sq.v
    root = math.sqrt(v * v - 1.0)
    c = math.sqrt(eta) * root
    f = math.sqrt(eta_prime) * root
    return GeneralBipartiteInput(
        a=v, b=1.0 + eta * (v - 1.0) + chi, c_plus=c, c_minus=-c,
        d=1.0 + eta_prime * (v - 1.0) + chi, e=v, f_plus=f, f_minus=-f,
    )


def swap_realization(sq: Squeezing, eta: float, eta_prime: float, chi: float = 0.0) -> TwoModeCM:
    """Swapped CM at fixed uplink transmittances, with optimally chosen gains."""
    inp = swap_inputs(sq, eta, eta_prime, chi)
    return swap_ensemble_cm(inp, general_optimal_gains(inp))


def _swap_ensemble(cfg: SchemeConfig) -> TwoModeCM:
    """Ensemble CM of the swapping scheme, averaged over both uplinks."""
    ch_a, ch_b = cfg.links()
    v = cfg.squeezing.v
    v2m1 = v * v - 1.0
    chi2 = 2.0 * cfg.chi

    def integrand(e, ep):
        shared = v2m1 / (2.0 + (e + ep) * (v - 1.0) + chi2)
        yield v - e * shared
        yield v - ep * shared
        yield np.sqrt(e * ep) * shared

    eta_b, w_b = transmittance_nodes(ch_b, cfg.quad)
    a_avg, b_avg, c_avg = pair_sums(transmittance_nodes(ch_a, cfg.quad), tensor_rule(eta_b, w_b),
                                    eta_b.size, integrand)
    return _standard_cm(a=a_avg, b=b_avg, c=c_avg)


def ensemble_cm(cfg: SchemeConfig) -> TwoModeCM:
    """Ensemble CM of the scheme cfg.kind, averaged over the fading of its links.

    Direct and satellite entries follow from path_moments (direct station A
    keeps v exactly, without chi); swap does not factorize over its links.
    """
    if cfg.kind == "swap":
        return _swap_ensemble(cfg)
    (mean_a, root_a), (mean_b, root_b) = path_moments(cfg)
    v = cfg.squeezing.v
    a = v if cfg.kind == "direct" else 1.0 + mean_a * (v - 1.0) + cfg.chi
    return _standard_cm(a=a, b=1.0 + mean_b * (v - 1.0) + cfg.chi,
                        c=root_a * root_b * math.sqrt(v * v - 1.0))
