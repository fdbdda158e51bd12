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
# transmittance_nodes is unused here; perfbench/replay.py wraps it by attribute lookup in this module.
from .fading import (FadingChannel, LinkGeometry, LinkRule, Links, expand_links,  # noqa: F401
                     transmittance_nodes)
from .gaussian import Squeezing, StandardFormCM, TwoModeCM
from .numerics import DEFAULT_QUAD, QuadratureSpec, pair_sums

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
        return scheme_links(self.kind, expand_links(self.geometry, self.beta, self.w))

    def rules(self) -> tuple[LinkRule, LinkRule]:
        """links() under this config's quadrature rule."""
        return tuple(LinkRule(ch, self.quad) for ch in self.links())


def scheme_links(kind: str, ln: Links) -> tuple:
    """The pair of the four links (channels or rules) that scheme `kind` uses, in (A-side, B-side) order."""
    if kind == "direct":
        return ln.a_s, ln.s_b
    if kind == "satellite":
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


def path_moments(kind: str, rules: tuple[LinkRule, LinkRule]) -> list[tuple[float, float]]:
    """(E[eta], E[sqrt(eta)]) of the paths modes A and B cross in the direct or satellite scheme.

    Direct: mode A stays home (1, 1); mode B crosses the uplink, then the
    downlink.  Satellite: each mode crosses its own downlink.  Links fade
    independently, so a path's moments are products of its links' moments.
    """
    paths = ((), rules) if kind == "direct" else ((rules[0],), (rules[1],))
    # start=1.0 keeps direct mode A's empty path a float.
    return [tuple(math.prod((rule.moments[i] for rule in path), start=1.0) for i in (0, 1))
            for path in paths]


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
        StandardFormCM(a=self.a, b=self.b, c_plus=self.c_plus, c_minus=self.c_minus).to_cm()
        StandardFormCM(a=self.d, b=self.e, c_plus=self.f_plus, c_minus=self.f_minus).to_cm()


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


def _swap_ensemble(rules: tuple[LinkRule, LinkRule], squeezings, chi: float) -> list[TwoModeCM]:
    """Ensemble CMs of the swapping scheme, averaged over both uplinks, one per squeezing.

    Its entries E[v - eta G], E[v - eta' G] and E[sqrt(eta eta') G] share the
    factor G = (v^2 - 1)/(2 + s (v - 1) + 2 chi), s = eta + eta'.  Its pole
    lies at s < 0, so in x = sqrt(eta) every entry is analytic on [0, 1]^2:
    one pair sum of G on the two links' root rules (LinkRule.root) against
    weight columns w [1, x^2, x] yields G for every v of the column.  Per v,
    G = (v + 1)/(s + k) with k = (2 + 2 chi)/(v - 1), and v = 1 gives G = 0.
    """
    vs = [sq.v for sq in squeezings]
    ks = [math.inf if v == 1.0 else (2.0 + 2.0 * chi) / (v - 1.0) for v in vs]
    (x_a, w_a), (x_b, w_b) = (rule.root for rule in rules)

    def columns(x, w):
        return np.stack((w, w * x * x, w * x), axis=1)

    def integrand(x, y):
        s = x * x + y * y
        for v, k in zip(vs, ks):
            yield (v + 1.0) / (s + k)

    sums = pair_sums((x_a, columns(x_a, w_a)), (x_b, columns(x_b, w_b)), integrand)
    mass_a, mass_b = (rule.table[1].sum() for rule in rules)
    cms = []
    for v, s in zip(vs, sums):
        mass = v * mass_a * mass_b
        cms.append(_standard_cm(a=mass - s[1, 0], b=mass - s[0, 1], c=s[2, 2]))
    return cms


def ensemble_column(kind: str, rules: tuple[LinkRule, LinkRule], squeezings, chi: float) -> list[TwoModeCM]:
    """Ensemble CMs of scheme `kind` over its link rules (A-side, B-side), one per squeezing.

    Everything that does not depend on the squeezing, the node tables, the
    root rules and their sums, is built once for the whole column.  Direct
    and satellite entries follow from path_moments (direct station A keeps v
    exactly, without chi); swap does not factorize over its links.
    """
    if kind == "swap":
        return _swap_ensemble(rules, squeezings, chi)
    (mean_a, root_a), (mean_b, root_b) = path_moments(kind, rules)
    cms = []
    for sq in squeezings:
        v = sq.v
        a = v if kind == "direct" else 1.0 + mean_a * (v - 1.0) + chi
        cms.append(_standard_cm(a=a, b=1.0 + mean_b * (v - 1.0) + chi,
                                c=root_a * root_b * math.sqrt(v * v - 1.0)))
    return cms


def ensemble_cm(cfg: SchemeConfig) -> TwoModeCM:
    """Ensemble CM of the scheme cfg.kind, averaged over the fading of its links."""
    return ensemble_column(cfg.kind, cfg.rules(), (cfg.squeezing,), cfg.chi)[0]
