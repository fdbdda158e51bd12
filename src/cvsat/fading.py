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
from functools import cached_property
from typing import NamedTuple

import numpy as np

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
# A cut table grades its last panel toward the cut by _GRADED points at this ratio (Davis and
# Rabinowitz, 1984): classical selection sums, whose integrand has a kink there, go from 3.0e-11
# on equal panels to 3.6e-15 relative of a graded 64x256 rule on the mid-loss links at 64x8.
_GRADED = 4
_GRADING_RATIO = 0.15


# Chebyshev coefficients of Cephes' i0 and i1 (S. L. Moshier): exp(-x) I(x) on
# x <= 8 in the variable x/2 - 2 (A), and exp(-x) sqrt(x) I(x) on x > 8 in
# 32/x - 2 (B).  I1's A series is exp(-x) I1(x) / x.
_I0_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16, 1.715391285555133e-15,
    -1.1685332877993451e-14, 7.676185498604936e-14, -4.856446783111929e-13, 2.95505266312964e-12,
    -1.726826291441556e-11, 9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07, 1.1173875391201037e-06,
    -4.4167383584587505e-06, 1.6448448070728896e-05, -5.754195010082104e-05, 0.00018850288509584165,
    -0.0005763755745385824, 0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764, 0.17162090152220877,
    -0.3046826723431984, 0.6767952744094761,
)
_I0_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17, 3.461222867697461e-17,
    -2.8276239805165836e-16, -3.425485619677219e-16, 1.7725601330565263e-15, 3.8116806693526224e-15,
    -9.554846698828307e-15, -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11, -3.1499165279632416e-11,
    1.1889147107846439e-11, 4.94060238822497e-10, 3.3962320257083865e-09, 2.266668990498178e-08,
    2.0489185894690638e-07, 2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)
_I1_A = (
    2.7779141127610464e-18, -2.111421214358166e-17, 1.5536319577362005e-16, -1.1055969477353862e-15,
    7.600684294735408e-15, -5.042185504727912e-14, 3.223793365945575e-13, -1.9839743977649436e-12,
    1.1736186298890901e-11, -6.663489723502027e-11, 3.625590281552117e-10, -1.8872497517228294e-09,
    9.381537386495773e-09, -4.445059128796328e-08, 2.0032947535521353e-07, -8.568720264695455e-07,
    3.4702513081376785e-06, -1.3273163656039436e-05, 4.781565107550054e-05, -0.00016176081582589674,
    0.0005122859561685758, -0.0015135724506312532, 0.004156422944312888, -0.010564084894626197,
    0.024726449030626516, -0.05294598120809499, 0.1026436586898471, -0.17641651835783406,
    0.25258718644363365,
)
_I1_B = (
    7.517296310842105e-18, 4.414348323071708e-18, -4.6503053684893586e-17, -3.209525921993424e-17,
    2.96262899764595e-16, 3.3082023109209285e-16, -1.8803547755107825e-15, -3.8144030724370075e-15,
    1.0420276984128802e-14, 4.272440016711951e-14, -2.1015418427726643e-14, -4.0835511110921974e-13,
    -7.198551776245908e-13, 2.0356285441470896e-12, 1.4125807436613782e-11, 3.2526035830154884e-11,
    -1.8974958123505413e-11, -5.589743462196584e-10, -3.835380385964237e-09, -2.6314688468895196e-08,
    -2.512236237870209e-07, -3.882564808877691e-06, -0.00011058893876262371, -0.009761097491361469,
    0.7785762350182801,
)


def _chbevl(x: float, coef: tuple[float, ...]) -> float:
    """Clenshaw sum of a Chebyshev series, Cephes' chbevl operation for operation."""
    b0, b1, b2 = coef[0], 0.0, 0.0
    for c in coef[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _bessel_i0(x: float) -> float:
    """Modified Bessel function I0 for x >= 0, bit for bit Cephes' i0; OverflowError above 709.78."""
    if x <= 8.0:
        return math.exp(x) * _chbevl(x / 2.0 - 2.0, _I0_A)
    return math.exp(x) * _chbevl(32.0 / x - 2.0, _I0_B) / math.sqrt(x)


def _bessel_i1(x: float) -> float:
    """Modified Bessel function I1 for x >= 0, bit for bit Cephes' i1; OverflowError above 709.78."""
    if x <= 8.0:
        return _chbevl(x / 2.0 - 2.0, _I1_A) * x * math.exp(x)
    return math.exp(x) * _chbevl(32.0 / x - 2.0, _I1_B) / math.sqrt(x)


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
            i0 = _bessel_i0(4.0 * h)
        except OverflowError:  # (beta/w)**2 or exp(4h) leaves the double range
            i0 = math.inf
        if not math.isfinite(i0):
            raise NumericalError(f"beta/w = {self.beta / self.w:.6g} overflows I0(4 (beta/w)^2) above 13.32")
        q = 1.0 - math.exp(-4.0 * h) * i0
        if q <= _DEGENERACY_TOL:
            raise NumericalError(f"degenerate aperture geometry: h={h:.3e} is too small")
        eta0_sq = 1.0 - math.exp(-2.0 * h)
        t = math.log(2.0 * eta0_sq / q)
        if t <= _DEGENERACY_TOL:
            raise NumericalError(f"degenerate aperture geometry: h={h:.3e}")
        lam = 8.0 * h * math.exp(-4.0 * h) * _bessel_i1(4.0 * h) / (q * t)
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


def transmittance_nodes(
    ch: FadingChannel, quad: QuadratureSpec, eta_min: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes (eta_i, w_i) such that sum(w_i * g(eta_i)) = E[g(eta) * 1{eta > eta_min}].

    The rule lives in the deflection domain on LinkRule.edges, clipped at the
    cut's deflection d_c and graded toward it: e, the last edge below d_c, is
    followed by d_c - (d_c - e) _GRADING_RATIO^j, j = 1.._GRADED, and d_c.  Weights
    include the Rayleigh density; a rule whose weights miss its mass up to the
    end (1 but for a negligible tail when uncut) by more than _WEIGHT_SUM_TOL is
    too coarse and raises NumericalError.  A point-mass channel yields the
    single node eta0, weighted 1 where it clears the cut.  It takes (ch, quad),
    not a LinkRule, because perfbench's replay calls it in that form.
    """
    if ch.point_mass:
        return np.array([ch.eta0]), np.array([1.0 if ch.eta0 > eta_min else 0.0])
    edges = LinkRule(ch, quad).edges
    if eta_min > 0.0:  # a cut at or above eta0 gives zero-width panels, one past the end no cut
        d_c = float(deflection_of_eta(ch, min(max(eta_min, np.finfo(float).tiny), ch.eta0)))
        kept = edges[:max(1, np.searchsorted(edges, d_c))]
        graded = d_c - (d_c - kept[-1]) * _GRADING_RATIO ** np.arange(1, _GRADED + 1)
        edges = np.concatenate((kept, graded, [d_c])) if d_c < edges[-1] else edges
    d, wd = panel_nodes(edges, quad.nodes_1d)
    w = wd * rayleigh_pdf(d, ch.sigma_b)
    # Weight sum minus the Rayleigh mass below the rule's end.
    excess = abs(w.sum() + math.expm1(-0.5 * (edges[-1] / ch.sigma_b) ** 2))
    if excess > _WEIGHT_SUM_TOL:
        raise NumericalError(
            f"under-resolved quadrature at sigma_b={ch.sigma_b:g}: the {quad.nodes_1d}-node x "
            f"{edges.size - 1}-panel rule's weights miss their Rayleigh mass by {excess:.2e}"
        )
    return eta_of_deflection(ch, d), w


# Weight that LinkRule.trimmed leaves off the far end of an uncut table, about the
# Rayleigh tail beyond 9.1 sigma_b.  Its one reader, the effective swap eta pass, drops
# pairs of weight below 2 * _TAIL_MASS, so an integrand bounded by B moves by at most
# 2 * _TAIL_MASS * B, with B = max(1, (v - 1)/2) for the transmittivity sums.
# Unbounded integrands (the principal value) keep full tables.
_TAIL_MASS = 1e-18
# Nodes of LinkRule.root.  Over 150 random draws of the regime fuzz domain
# (tap_t down to 0.01) at the default 64x8 rule, 40 nodes agree with 96 to 7e-15
# of the quantum post-selection CM's largest entry; 32 miss by 1.8e-12, 24 by 1.1e-9.
_ROOT_NODES = 40
# Degree of LinkRule.antiderivatives' Chebyshev interpolant on each panel.
_CHEB_DEGREE = 64


@dataclass(frozen=True)
class LinkRule:
    """A link's panel edges, its uncut node table and what follows from them, each built on first use."""

    ch: FadingChannel
    quad: QuadratureSpec = DEFAULT_QUAD

    @cached_property
    def edges(self) -> np.ndarray:
        """The uncut rule's panel edges: equal panels on [0, D_MAX_SIGMAS sigma_b].

        The transmittance varies over deflections of order l_scale
        (comparable to beta); for high-loss channels the Rayleigh support is
        much wider than that, so panels grow with sigma_b/beta, up to
        _MAX_NODES_PER_AXIS nodes.  Cut tables clip them (transmittance_nodes).
        """
        ch, quad = self.ch, self.quad
        panels = quad.subdivisions * max(1, math.ceil(ch.sigma_b / ch.beta))
        n = quad.nodes_1d * panels
        if n > _MAX_NODES_PER_AXIS:
            raise DomainError(f"sigma_b={ch.sigma_b:g} with the {quad.nodes_1d}x{quad.subdivisions} "
                              f"rule needs {n} nodes per axis, above the limit {_MAX_NODES_PER_AXIS}")
        return np.linspace(0.0, D_MAX_SIGMAS * ch.sigma_b, panels + 1)

    @cached_property
    def unit(self) -> tuple[np.ndarray, np.ndarray]:
        """The link's equal panels on [0, 1], for rules that end on a row's own deflection.

        Its edges are their own linspace, not edges / edges[-1], which flips 75-99
        `effective` cells per survey grid and swap_cosh_avg by up to 5.2e-10
        relative on bw0.4; nor is the uncut table rebuilt as d_hi t.  The
        principal value is that sensitive to nodes moved in the last bits.
        """
        return panel_nodes(np.linspace(0.0, 1.0, self.edges.size), self.quad.nodes_1d)

    @cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray]:
        return transmittance_nodes(self.ch, self.quad)

    @cached_property
    def trimmed(self) -> tuple[np.ndarray, np.ndarray]:
        """The table without its trailing nodes of total weight below _TAIL_MASS, for the effective eta pass.

        The kept nodes are a prefix view of the table, so each keeps its value
        bit for bit; a point-mass table is returned whole.
        """
        eta, w = self.table
        dropped = int(np.searchsorted(np.cumsum(w[::-1]), _TAIL_MASS))
        return eta[:w.size - dropped], w[:w.size - dropped]

    @cached_property
    def root(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss rule (x_k, w_k) of _ROOT_NODES nodes in x = sqrt(eta) for the link's table.

        It sums integrands analytic in x: the quantum post-selection rows, the swap
        ensemble and the effective swap kernel C(v).  Q of the weighted Chebyshev basis
        holds the table's orthonormal polynomials; the eigenpairs of x in that basis are
        the nodes and weights (Golub and Welsch, Math. Comp. 23, 1969).  Unlike Lanczos
        this divides by nothing, so a link with almost no wander, or a point mass, is no
        special case.
        """
        eta, w = self.table
        keep = w > 0.0
        x, w = np.sqrt(eta[keep]), w[keep]
        n = min(_ROOT_NODES, x.size)
        q, _ = np.linalg.qr(np.polynomial.chebyshev.chebvander(2.0 * x - 1.0, n - 1) * np.sqrt(w)[:, None])
        nodes, vecs = np.linalg.eigh(q.T @ (x[:, None] * q))
        return nodes, w.sum() * vecs[0] ** 2

    @cached_property
    def moments(self) -> tuple[float, float]:
        """(E[eta], E[sqrt(eta)])."""
        eta, w = self.table
        return float(w @ eta), float(w @ np.sqrt(eta))

    @cached_property
    def antiderivatives(self):
        """F(d), the rows (F_0, F_1, F_1/2) of F_k(d) = integral_0^d p(d') eta(d')^k dd' at each deflection d.

        d is clipped to the rule's end, where the rows are the table's weight
        sum, E[eta] and E[sqrt(eta)] up to the rule's error.  F_0 is the
        Rayleigh CDF in closed form.  F_1 and F_1/2 are built once, on the
        panels of the link's rule: on each, the integrand in s, d = start +
        width s^2, is interpolated by a Chebyshev series of degree
        _CHEB_DEGREE and integrated term by term (Clenshaw and Curtis, Numer.
        Math. 2, 1960).  In d the integrand behaves like d^(lambda + 1) at
        d = 0, which is not analytic; in s it is s^(2 lambda + 3), smooth
        enough that F keeps its digits at small d, where a threshold near the
        largest zeta puts every cut.  A point mass sits at d = 0, so there
        F_k = eta0^k at every d.
        """
        ch = self.ch
        if ch.point_mass:
            point = np.array([[1.0], [ch.eta0], [math.sqrt(ch.eta0)]])
            return lambda d: np.repeat(point, np.size(d), axis=1)
        cheb = np.polynomial.chebyshev
        n = _CHEB_DEGREE
        edges = self.edges
        width = np.diff(edges)
        # Values at the Chebyshev points of the first kind -> coefficients of
        # the interpolant (discrete orthogonality) -> of its antiderivative.
        x = np.cos(np.pi * (np.arange(n + 1) + 0.5) / (n + 1))
        to_coef = cheb.chebvander(x, n).T * (2.0 / (n + 1))
        to_coef[0] *= 0.5
        to_integral = cheb.chebint(np.eye(n + 1), axis=0) @ to_coef
        # s = (1 + x)/2 on [-1, 1], so dd = width s dx
        s = 0.5 * (1.0 + x)
        nodes = edges[:-1, None] + width[:, None] * s * s
        eta, p = eta_of_deflection(ch, nodes), rayleigh_pdf(nodes, ch.sigma_b) * s * width[:, None]
        coef = np.stack([p * eta, p * np.sqrt(eta)]) @ to_integral.T
        # T_m(x) - T_m(-1) vanishes at the panel start and is 1 - (-1)^m at its end.
        start = (-1.0) ** np.arange(n + 2)
        totals = coef @ (1.0 - start)
        before = np.concatenate([np.zeros((2, 1)), np.cumsum(totals, axis=1)], axis=1)

        def evaluate(d):
            d = np.clip(d, 0.0, edges[-1])
            k = np.clip(np.searchsorted(edges, d, side="right") - 1, 0, width.size - 1)
            basis = cheb.chebvander(2.0 * np.sqrt((d - edges[k]) / width[k]) - 1.0, n + 1)
            basis -= start  # in place: chebvander's column-major layout keeps the einsum fast
            return np.concatenate([-np.expm1(-0.5 * (d / ch.sigma_b) ** 2)[None],
                                   before[:, k] + np.einsum("im,jim->ji", basis, coef[:, k])])
        return evaluate

    @cached_property
    def loss_db(self) -> float:
        eta, w = self.table
        mean_power = float(w @ (eta * eta))
        if mean_power <= 0.0:
            raise NumericalError("mean power transmittance is not positive")
        return -10.0 * math.log10(mean_power)


def mean_transmittance(ch: FadingChannel, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    return LinkRule(ch, quad).moments[0]


def loss_db(ch: FadingChannel, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Mean channel attenuation in dB, defined as -10*log10(E[eta^2]).

    The wander model's eta scales the field amplitude (eta0^2 is the encircled
    power fraction), so eta^2 is the power transmission of a realization; this
    is the convention that reproduces quoted link budgets.
    """
    return LinkRule(ch, quad).loss_db


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
