"""Deterministic quadrature and a seeded Monte Carlo engine.

Integrands are evaluated on whole node arrays at once, so callables passed in
must accept numpy arrays (plain arithmetic expressions broadcast as is).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalError


# Largest Gauss-Legendre rule per panel: an n-node rule is built from the
# eigenvalues of an n x n matrix, 8 MB and 0.15 s at n = 1024 on 2 vCPUs.
_MAX_NODES_1D = 1 << 10
# Largest Monte Carlo sample count; each drawn array holds 8 bytes a sample.
_MAX_MC_SAMPLES = 1 << 22


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule: nodes_1d points on each of `subdivisions` panels."""

    nodes_1d: int = 64
    subdivisions: int = 8

    def __post_init__(self) -> None:
        if not (8 <= self.nodes_1d <= _MAX_NODES_1D):
            raise DomainError(f"nodes_1d must lie in [8, {_MAX_NODES_1D}], got {self.nodes_1d}")
        if self.subdivisions < 1:
            raise DomainError(f"subdivisions must be >= 1, got {self.subdivisions}")


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class McSpec:
    """Monte Carlo sample count and seed; same (samples, seed) gives identical output."""

    samples: int
    seed: int

    def __post_init__(self) -> None:
        if not (10_000 <= self.samples <= _MAX_MC_SAMPLES):
            raise DomainError(f"samples must lie in [10000, {_MAX_MC_SAMPLES}], got {self.samples}")
        if not (0 <= self.seed < 2**64):
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def panel_nodes(lo: float, hi: float, nodes_1d: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [lo, hi]: nodes_1d points on each of `panels` equal panels."""
    if not lo <= hi:
        raise DomainError(f"integration bounds must satisfy lo <= hi, got [{lo}, {hi}]")
    xg, wg = _leggauss(nodes_1d)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


# Elements per block of a channel-pair sum.  Each output array of a block
# holds this many floats, 128 KiB, so a block's temporaries fit a core's L2 cache.
_BLOCK_ELEMENTS = 1 << 14

# glibc's malloc maps requests of 128 KiB and more, a block's arrays among
# them, with fresh mmaps, and returns free heap above 256 KiB to the kernel.
# Freeing a mapped chunk raises both thresholds to its size and twice that, so
# until a chunk larger than a block's temporaries has been freed, those go
# back to the kernel after every block and are page-faulted in again:
# `cvsat effective` on lowloss_bw1.0 took 940k minor faults and 2.4 times its
# time.  Allocating and freeing one 2 MiB array here raises both thresholds
# once, so the blocks reuse heap memory.  Other allocators ignore it.
np.empty(16 * _BLOCK_ELEMENTS)


def pair_sums(outer, inner, integrand) -> list:
    """Weighted sums over a channel pair, one per output of the integrand.

    outer = (x, w) and inner = (y, wy) are node tables; every outer node
    pairs with every inner one.  integrand(x[:, None], y[None, :]) yields its
    output arrays one at a time, so shared subexpressions are computed once
    per block of outer rows, and each output is reduced, by the matrix
    products w_block^T @ (vals @ wy), before the next one is requested, so
    the integrand may reuse one buffer for several outputs.  Rows are
    processed in blocks of about _BLOCK_ELEMENTS points.

    Each sum is a float, or for weight columns, w of shape (n, m) and wy of
    shape (k,) or (k, l), the array of sums of the output times every column
    pair.  A rule that differs from row to row is a weight-column rule in a
    unit variable: the integrand maps it to each row's own interval and the
    outer columns carry each row's Jacobian.
    """
    x, w = outer
    y, wy = inner
    totals: list = []
    step = max(1, _BLOCK_ELEMENTS // y.size)
    for start in range(0, x.size, step):
        xb = x[start:start + step]
        outputs = integrand(xb[:, None], y[None, :])
        parts = [w[start:start + step].T @ (vals @ wy) for vals in outputs]
        totals = [t + p for t, p in zip(totals, parts)] if totals else parts
    if not all(np.isfinite(t).all() for t in totals):
        raise NumericalError("channel-pair integrand returned non-finite values")
    return [t if np.ndim(t) else float(t) for t in totals]


def mc_expectation(sampler, g, spec: McSpec) -> tuple[float, float]:
    """Sample mean and standard error of g over seeded i.i.d. draws.

    sampler(rng, n) must return an array of shape (n,) or a tuple of such
    arrays; g receives them positionally and returns values of shape (n,).
    """
    rng = np.random.default_rng(spec.seed)
    draws = sampler(rng, spec.samples)
    if not isinstance(draws, tuple):
        draws = (draws,)
    vals = np.asarray(g(*draws), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("Monte Carlo integrand returned non-finite values")
    mean = float(vals.mean())
    std_err = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return mean, std_err
