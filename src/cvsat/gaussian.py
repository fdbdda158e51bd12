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
# Tolerance for internal algebraic consistency checks.
TOL_NUM = 1e-12


# Two-mode symplectic form: one [[0, 1], [-1, 0]] block per mode.
OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])


@dataclass(frozen=True)
class TwoModeCM:
    """4x4 covariance matrix of a two-mode Gaussian state.

    The constructor validates symmetry and physicality; every CM held by this
    type satisfies the uncertainty principle to within TOL_PHYS.
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=float)
        if m.shape != (4, 4):
            raise DomainError(f"two-mode CM must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NumericalError("covariance matrix contains non-finite entries")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-9 * scale:
            raise DomainError("covariance matrix must be symmetric")
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        object.__setattr__(self, "m", m)
        # The uncertainty relation M + i*Omega >= 0 as a Hermitian eigenvalue
        # problem.  A magnitude test on eig(i*Omega*M) alone would accept
        # indefinite matrices whose "symplectic spectrum" looks fine.
        gap = float(np.linalg.eigvalsh(m + 1j * OMEGA).min())
        if gap < -TOL_PHYS:
            raise DomainError(
                f"unphysical covariance matrix: min eig(M + i*Omega) = {gap:.12g} < 0"
            )


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
    scale = max(1.0, float(np.abs(m).max()))
    tol = 1e-9 * scale
    off = np.array([m[0, 1], m[2, 3], m[0, 3], m[1, 2]])
    if np.abs(off).max() > tol:
        raise DomainError("CM has q-p correlations; not in standard form")
    if abs(m[0, 0] - m[1, 1]) > tol or abs(m[2, 2] - m[3, 3]) > tol:
        raise DomainError("CM diagonal blocks are not proportional to the identity")
    return StandardFormCM(a=m[0, 0], b=m[2, 2], c_plus=m[0, 2], c_minus=m[1, 3])


@dataclass(frozen=True)
class Squeezing:
    """Two-mode squeezing strength r >= 0; v = cosh(2r) is the quadrature variance."""

    r: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.r) or self.r < 0.0:
            raise DomainError(f"squeezing parameter must be finite and >= 0, got {self.r}")

    @property
    def v(self) -> float:
        return math.cosh(2.0 * self.r)


def tmsv_cm(sq: Squeezing) -> TwoModeCM:
    """CM of a two-mode squeezed vacuum state."""
    v = sq.v
    c = math.sqrt(v * v - 1.0)
    return StandardFormCM(a=v, b=v, c_plus=c, c_minus=-c).to_cm()


def _det2(b: np.ndarray) -> float:
    return float(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])


_PT_SIGNS = np.diag([1.0, 1.0, 1.0, -1.0])


def _spectrum_hermitian(m: np.ndarray) -> tuple[float, float]:
    # nu_j are the positive eigenvalues of the Hermitian matrix
    # i * sqrt(M) Omega sqrt(M); errors stay O(eps * ||M||) even when the
    # two symplectic eigenvalues coincide.
    w, q = np.linalg.eigh(m)
    if w[0] < -TOL_PHYS * max(1.0, w[-1]):
        raise NumericalError(f"covariance matrix is not positive: min eig {w[0]:.3e}")
    mh = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T
    nus = np.linalg.eigvalsh(1j * (mh @ OMEGA @ mh))
    return float(nus[2]), float(nus[3])


def symplectic_spectrum_pt(cm: TwoModeCM) -> tuple[float, float]:
    """Symplectic spectrum (nu_minus, nu_plus) of the partially transposed CM.

    Uses the local invariants det A, det B, det C, det M; the partial
    transpose of the second mode flips the sign of det C.
    """
    m = cm.m
    det_a = _det2(m[:2, :2])
    det_b = _det2(m[2:, 2:])
    det_c = _det2(m[:2, 2:])
    det_m = float(np.linalg.det(m))
    delta = det_a + det_b - 2.0 * det_c
    scale = max(1.0, delta * delta)
    disc = delta * delta - 4.0 * det_m
    if disc < 1e-8 * scale:
        # Nearly coincident roots: disc is a difference of close squares and
        # carries O(eps * delta^2) noise, so sqrt(disc) loses half the digits.
        return _spectrum_hermitian(_PT_SIGNS @ m @ _PT_SIGNS)
    root = math.sqrt(disc)
    hi = (delta + root) / 2.0
    # delta - root cancels badly for near-pure states (nu_minus << nu_plus);
    # the product of the roots is det M, so divide instead of subtracting.
    lo = det_m / hi
    if lo < -TOL_NUM * scale:
        raise NumericalError(f"negative squared symplectic eigenvalue {lo:.3e}")
    return math.sqrt(max(lo, 0.0)), math.sqrt(hi)


def log_negativity(cm: TwoModeCM) -> float:
    """Logarithmic negativity E_LN = max(0, -log2(nu_minus)), base-2 logs."""
    nu_minus, _ = symplectic_spectrum_pt(cm)
    if nu_minus <= 0.0:
        raise NumericalError("vanishing symplectic eigenvalue; CM is degenerate")
    return max(0.0, -math.log2(nu_minus))


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
