"""Two-mode Gaussian state algebra.

Covariance matrices (CMs) follow the hbar = 2 convention: the vacuum state
has unit quadrature variance, and a matrix M is a physical CM exactly when
M + i*Omega >= 0, i.e. when every symplectic eigenvalue of M is at least 1.
Quadratures are ordered (q1, p1, q2, p2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

# Slack allowed on the uncertainty bound nu >= 1.  A CM that misses the bound
# by more than this is rejected outright instead of being clamped; clamping
# would mask integration bugs upstream.
TOL_PHYS = 1e-9
# Largest squeezing a Squeezing holds.  The rounding of det Q and nu_+^2 grows
# like cosh(2r)^2 and reaches TOL_PHYS from r = 4.19 on, where TwoModeCM's
# physicality verdict on a pure TMSV is noise.  It is not the CLI's source
# bound of 3: the effective squeezing of an ensemble CM exceeds its source's
# (3.12 from r = 2 in the low-loss survey family), and rebuilding it needs a Squeezing.
MAX_SQUEEZING = 4.0


# Two-mode symplectic form: one [[0, 1], [-1, 0]] block per mode.
OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

# Entries that pair a q with a p quadrature: (0, 1), (0, 3), (1, 2), (2, 3) and mirrors.
_QP = np.add.outer(np.arange(4), np.arange(4)) % 2 == 1
# Index of the entries (q00, q01, q11, p00, p01, p11) of the q block and the p block.
_BLOCKS = ([0, 0, 2, 1, 1, 3], [0, 2, 2, 1, 3, 3])


@dataclass(frozen=True)
class TwoModeCM:
    """4x4 covariance matrix of a two-mode Gaussian state with q and p uncorrelated.

    Every CM this package builds keeps q and p apart, so the constructor
    requires it: the q-p entries must vanish (they are stored as exact zeros),
    and the matrix splits into a q block Q and a p block P.  It is physical
    when Q is positive definite and its smaller symplectic eigenvalue is at
    least 1 - TOL_PHYS.
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=float)
        if m.shape != (4, 4):
            raise DomainError(f"two-mode CM must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NumericalError("covariance matrix contains non-finite entries")
        tol = 1e-9 * max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > tol:
            raise DomainError("covariance matrix must be symmetric")
        m = 0.5 * (m + m.T)
        if np.abs(m[_QP]).max() > tol:
            raise DomainError("covariance matrix has q-p correlations; cvsat CMs keep q and p apart")
        m[_QP] = 0.0
        m.flags.writeable = False
        object.__setattr__(self, "m", m)
        block_log_negativity(*m[_BLOCKS].tolist())


def block_log_negativity(q00, q01, q11, p00, p01, p11):
    """E_LN of the CM with q block [[q00, q01], [q01, q11]] and p block likewise, scalars or arrays over rows.

    Raises DomainError unless every row is physical: positive variances and
    det Q > 0, which make Q positive definite and P nonzero, and a smallest
    squared symplectic eigenvalue of at least (1 - TOL_PHYS)^2.  Then det Q
    det P > 0, so the partial transpose, which negates p01, has nu~_- > 0,
    and E_LN = max(0, -log2(nu~_-)), formed as 0 - log2(min(nu~_-, 1)) so
    that it is never -0.
    """
    if not np.all((np.minimum(np.minimum(q00, p00), p11) > 0.0) & (q00 * q11 - q01 * q01 > 0.0)):
        raise DomainError("unphysical covariance matrix: a variance or det Q is not positive")
    lo, _ = _squared_spectrum(q00, q01, q11, p00, p01, p11)
    if not np.all(lo >= (1.0 - TOL_PHYS) ** 2):
        raise DomainError("unphysical covariance matrix: smallest squared symplectic eigenvalue "
                          f"{np.min(lo):.12g} < 1")
    return 0.0 - np.log2(np.minimum(np.sqrt(_squared_spectrum(q00, q01, q11, p00, -p01, p11)[0]), 1.0))


def _squared_spectrum(q00, q01, q11, p00, p01, p11):
    """Squared symplectic eigenvalues (lo, hi) of the CM with q block Q and p block P, scalars or arrays.

    In the order (q1, q2, p1, p2), (Omega M)^2 = -diag(PQ, QP), so nu^2 runs
    over the eigenvalues of QP, which are those of the symmetric R P R with
    R = sqrt(Q) = (Q + sqrt(det Q) I) / sqrt(tr Q + 2 sqrt(det Q)).  Q must
    be positive definite.  The discriminant is a hypot, so near-equal roots
    keep their digits, and lo = det Q det P / hi, so near-pure states do.
    """
    # math's functions keep floats floats, whose arithmetic is far cheaper than numpy scalars'
    sqrt, hypot = (math.sqrt, math.hypot) if isinstance(q00, float) else (np.sqrt, np.hypot)
    det_q = q00 * q11 - q01 * q01
    s = sqrt(det_q)
    t = sqrt(q00 + q11 + 2.0 * s)
    r00, r01, r11 = (q00 + s) / t, q01 / t, (q11 + s) / t
    # Rows of R P, then R P R.
    u0, u1 = r00 * p00 + r01 * p01, r00 * p01 + r01 * p11
    w0, w1 = r01 * p00 + r11 * p01, r01 * p01 + r11 * p11
    x, y, z = u0 * r00 + u1 * r01, u0 * r01 + u1 * r11, w0 * r01 + w1 * r11
    hi = 0.5 * (x + z) + hypot(0.5 * (x - z), y)
    return det_q * (p00 * p11 - p01 * p01) / hi, hi


@dataclass(frozen=True)
class StandardFormCM:
    """Standard-form CM record: blocks a*I, b*I, cross diag(c+, c-).  to_cm() validates it."""

    a: float
    b: float
    c_plus: float
    c_minus: float

    def to_cm(self) -> TwoModeCM:
        a, b, cp, cm = self.a, self.b, self.c_plus, self.c_minus
        return TwoModeCM(np.array([
            [a, 0.0, cp, 0.0],
            [0.0, a, 0.0, cm],
            [cp, 0.0, b, 0.0],
            [0.0, cm, 0.0, b],
        ]))


def standard_form(cm: TwoModeCM) -> StandardFormCM:
    """Extract (a, b, c_plus, c_minus) from a CM already in standard form.

    Every CM produced by this package is built in standard form; this only
    checks the shape and reads the four parameters, building no second CM.
    General symplectic standard-form reduction is out of scope.
    """
    m = cm.m
    tol = 1e-9 * max(1.0, float(np.abs(m).max()))
    if abs(m[0, 0] - m[1, 1]) > tol or abs(m[2, 2] - m[3, 3]) > tol:
        raise DomainError("CM diagonal blocks are not proportional to the identity")
    return StandardFormCM(a=m[0, 0], b=m[2, 2], c_plus=m[0, 2], c_minus=m[1, 3])


@dataclass(frozen=True)
class Squeezing:
    """Two-mode squeezing strength 0 <= r <= MAX_SQUEEZING; v = cosh(2r) is the quadrature variance."""

    r: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r <= MAX_SQUEEZING:
            raise DomainError(f"squeezing parameter must lie in [0, {MAX_SQUEEZING:g}], got {self.r}")

    @property
    def v(self) -> float:
        return math.cosh(2.0 * self.r)


def squeezing_excess(rs) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (u, sinh 2r) over rs, whose range callers check: u = v - 1 = 2 sinh(r)^2, never cosh(2r) - 1."""
    sh = np.array([math.sinh(r) for r in rs])
    return 2.0 * sh * sh, np.array([math.sinh(2.0 * r) for r in rs])


def tmsv_cm(sq: Squeezing) -> TwoModeCM:
    """CM of a two-mode squeezed vacuum state."""
    v = sq.v
    c = math.sqrt(v * v - 1.0)
    return StandardFormCM(a=v, b=v, c_plus=c, c_minus=-c).to_cm()


def symplectic_spectrum_pt(cm: TwoModeCM) -> tuple[float, float]:
    """Symplectic spectrum (nu_minus, nu_plus) of the partially transposed CM.

    Transposing the second mode flips the sign of p2, which negates the cross
    term of the p block.
    """
    q00, q01, q11, p00, p01, p11 = cm.m[_BLOCKS].tolist()
    lo, hi = _squared_spectrum(q00, q01, q11, p00, -p01, p11)
    return math.sqrt(lo), math.sqrt(hi)


def log_negativity(cm: TwoModeCM) -> float:
    """Logarithmic negativity E_LN = max(0, -log2(nu_minus)), base-2 logs: block_log_negativity of cm."""
    return float(block_log_negativity(*cm.m[_BLOCKS].tolist()))


def is_entangled(cm: TwoModeCM) -> bool:
    nu_minus, _ = symplectic_spectrum_pt(cm)
    return nu_minus < 1.0


def apply_loss(cm: TwoModeCM, eta_a: float, eta_b: float) -> TwoModeCM:
    """Pure-loss channel on each mode: M_kk -> eta_k M_kk + (1 - eta_k) I.

    Cross blocks scale by sqrt(eta_a * eta_b); vacuum enters through the
    unused beam-splitter port.
    """
    for name, eta in (("eta_a", eta_a), ("eta_b", eta_b)):
        if not (0.0 <= eta <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {eta}")
    ga, gb = math.sqrt(eta_a), math.sqrt(eta_b)
    s = np.diag([ga, ga, gb, gb])
    vac = np.diag([1.0 - eta_a, 1.0 - eta_a, 1.0 - eta_b, 1.0 - eta_b])
    return TwoModeCM(s @ cm.m @ s + vac)


def add_excess_noise(cm: TwoModeCM, chi_a: float, chi_b: float) -> TwoModeCM:
    """Add chi_a * I to the first diagonal block and chi_b * I to the second."""
    for name, chi in (("chi_a", chi_a), ("chi_b", chi_b)):
        if chi < 0.0:
            raise DomainError(f"{name} must be >= 0, got {chi}")
    return TwoModeCM(cm.m + np.diag([chi_a, chi_a, chi_b, chi_b]))
