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


def panel_edges(lo: float, hi, subdivisions: int) -> np.ndarray:
    """Edges of `subdivisions` equal panels on [lo, hi], one row per end of a column hi."""
    hi = np.asarray(hi, dtype=float)
    # np.linspace(lo, hi, subdivisions + 1) written out, so a column of ends gives C-contiguous rows.
    edges = np.arange(subdivisions + 1) * ((hi - lo) / subdivisions) + lo
    edges[..., -1:] = hi
    return edges


def panel_nodes(
    lo: float,
    hi,
    spec: QuadratureSpec = DEFAULT_QUAD,
    subdivisions: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [lo, hi], one row per end of a column hi."""
    hi = np.asarray(hi, dtype=float)
    if not (lo <= hi).all():
        raise DomainError(f"integration bounds must satisfy lo <= hi, got [{lo}, {hi}]")
    xg, wg = _leggauss(spec.nodes_1d)
    edges = panel_edges(lo, hi, spec.subdivisions if subdivisions is None else subdivisions)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    x = (mid[..., None] + half[..., None] * xg).reshape(*mid.shape[:-1], -1)
    w = (half[..., None] * wg).reshape(*mid.shape[:-1], -1)
    return x, w


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


def pair_sums(outer, inner, width: int, integrand) -> list:
    """Weighted sums over a channel pair, one per output of the integrand.

    outer = (x, w) is the outer node table.  inner(x, w) takes a block of
    outer rows and returns the inner nodes y, broadcastable to (rows, width),
    and either the joint weights of that shape, for an inner rule that
    differs from row to row, or the pair (outer weights, inner weights) of a
    tensor_rule.  integrand(x[:, None], y) yields its output arrays one at a
    time, so shared subexpressions are computed once per block.  Each output
    is reduced before the next one is requested, so the integrand may reuse
    one buffer for several outputs.  Rows are processed in blocks of about
    _BLOCK_ELEMENTS points.

    Each sum is a float, or for a tensor rule with weight columns, outer w of
    shape (n, m) and inner wy of shape (width, k), the (m, k) matrix of sums
    of the output times every column pair.
    """
    x, w = outer
    totals: list = []
    step = max(1, _BLOCK_ELEMENTS // width)
    for start in range(0, x.size, step):
        xb = x[start:start + step]
        y, wgt = inner(xb, w[start:start + step])
        outputs = integrand(xb[:, None], y)
        # A tensor rule reduces each output by matrix products, forming no joint weight.
        parts = ([wgt[0].T @ (vals @ wgt[1]) for vals in outputs] if isinstance(wgt, tuple)
                 else [(wgt * vals).sum() for vals in outputs])
        totals = [t + p for t, p in zip(totals, parts)] if totals else parts
    if not all(np.isfinite(t).all() for t in totals):
        raise NumericalError("channel-pair integrand returned non-finite values")
    return [t if np.ndim(t) else float(t) for t in totals]


def tensor_rule(y: np.ndarray, wy: np.ndarray):
    """Inner rule for pair_sums that pairs every outer row with the same table (y, wy)."""
    return lambda x, w: (y[None, :], (w, wy))


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
