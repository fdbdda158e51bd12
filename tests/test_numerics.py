import math

import numpy as np
import pytest

from cvsat import numerics
from cvsat.errors import DomainError, NumericalError
from cvsat.fading import FadingChannel, LinkRule
from cvsat.numerics import (
    DEFAULT_QUAD,
    McSpec,
    QuadratureSpec,
    mc_expectation,
    pair_sums,
    panel_nodes,
)


def rule(lo, hi, spec=DEFAULT_QUAD):
    return panel_nodes(lo, hi, spec.nodes_1d, spec.subdivisions)


def integrate_1d(f, lo, hi, spec=DEFAULT_QUAD):
    x, w = rule(lo, hi, spec)
    return float(w @ f(x))


def integrate_2d(f, box, spec=DEFAULT_QUAD):
    (lo1, hi1), (lo2, hi2) = box
    (total,) = pair_sums(rule(lo1, hi1, spec), rule(lo2, hi2, spec),
                         lambda x, y: (f(x, y),))
    return total


class TestSpecs:
    def test_quadrature_spec_defaults(self):
        assert DEFAULT_QUAD.nodes_1d == 64
        assert DEFAULT_QUAD.subdivisions == 8

    def test_quadrature_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(nodes_1d=4, subdivisions=8)
        with pytest.raises(DomainError):
            QuadratureSpec(nodes_1d=16, subdivisions=0)

    def test_mc_spec_validation(self):
        with pytest.raises(DomainError):
            McSpec(samples=100, seed=1)
        with pytest.raises(DomainError):
            McSpec(samples=10_000, seed=-1)
        with pytest.raises(DomainError):
            McSpec(samples=10_000, seed=2**64)


class TestIntegrate1d:
    def test_polynomial_exactness(self):
        # An n-node Gauss rule is exact through degree 2n-1 on each panel.
        for k in (0, 1, 5, 17):
            got = integrate_1d(lambda x: x**k, 0.0, 2.0, QuadratureSpec(16, 2))
            assert got == pytest.approx(2.0 ** (k + 1) / (k + 1), rel=1e-13)

    def test_exponential(self):
        got = integrate_1d(np.exp, 0.0, 1.0)
        assert got == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_gaussian_over_wide_interval(self):
        got = integrate_1d(lambda x: np.exp(-0.5 * x * x), -20.0, 20.0)
        assert got == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_degenerate_interval(self):
        assert integrate_1d(np.exp, 1.0, 1.0) == 0.0

    def test_rejects_non_finite_integrand(self):
        # pair_sums with a one-node inner rule of weight 1 is a 1D sum
        one_node = (np.zeros(1), np.ones(1))
        with np.errstate(divide="ignore"), pytest.raises(NumericalError):
            pair_sums(rule(0.0, 1.0), one_node, lambda x, y: (1.0 / (x - x),))

    def test_panel_nodes_cover_interval(self):
        for hi in (5.0, 2.5, 4.0):
            x, w = panel_nodes(2.0, hi, 8, 3)
            assert x.shape == w.shape == (24,)
            assert np.all((x > 2.0) & (x < hi))
            assert float(w.sum()) == pytest.approx(hi - 2.0, rel=1e-14)

    def test_panel_nodes_are_the_linspace_panels(self):
        # uncut node tables must not move: the rule is bit-for-bit the one on
        # np.linspace panel edges
        xg, wg = np.polynomial.legendre.leggauss(16)
        for hi in (0.0, 1.0, 8.4, 264.0):
            edges = np.linspace(0.0, hi, 6)
            half = 0.5 * np.diff(edges)
            mid = 0.5 * (edges[:-1] + edges[1:])
            x, w = panel_nodes(0.0, hi, 16, 5)
            assert np.array_equal(x, (mid[:, None] + half[:, None] * xg).ravel())
            assert np.array_equal(w, (half[:, None] * wg).ravel())


class TestIntegrate2d:
    def test_separable_product(self):
        got = integrate_2d(
            lambda x, y: np.exp(x) * np.cos(y), ((0.0, 1.0), (0.0, math.pi / 2.0))
        )
        assert got == pytest.approx((math.e - 1.0) * 1.0, rel=1e-13)

    def test_non_separable(self):
        got = integrate_2d(lambda x, y: 1.0 / (1.0 + x * y), ((0.0, 1.0), (0.0, 1.0)))
        # sum_k (-1)^k/(k+1)^2 = pi^2/12
        assert got == pytest.approx(math.pi**2 / 12.0, rel=1e-10)

    def test_empty_box(self):
        assert integrate_2d(lambda x, y: x + y, ((0.0, 0.0), (0.0, 1.0))) == 0.0


class TestPairSums:
    def test_independent_of_block_size(self, monkeypatch):
        # the swap uplinks at sigma_b = 1.5, k2 = 0.64 (1024 x 512 nodes) and
        # the swap ensemble's integrands at r = 1
        eta_a, w_a = LinkRule(FadingChannel(1.5, 1.0, 1.0)).table
        eta_b, w_b = LinkRule(FadingChannel(0.96, 1.0, 1.0)).table
        v = math.cosh(2.0)

        def integrand(e, ep):
            shared = (v * v - 1.0) / (2.0 + (e + ep) * (v - 1.0))
            yield v - e * shared
            yield v - ep * shared
            yield np.sqrt(e * ep) * shared

        # weight columns w [1, sqrt(eta), eta] on the outer side, w' [1, eta'] on the inner
        left = w_a[:, None] * eta_a[:, None] ** np.array([0.0, 0.5, 1.0])
        right = w_b[:, None] * eta_b[:, None] ** np.array([0.0, 1.0])

        def sums():
            return (pair_sums((eta_a, w_a), (eta_b, w_b), integrand),
                    pair_sums((eta_a, left), (eta_b, right), integrand))

        default, default_cols = sums()
        monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", 3 * eta_b.size + 7)
        tiny, tiny_cols = sums()
        assert len(tiny) == 3 and all(isinstance(t, float) for t in tiny)
        for got, want in zip(tiny, default):
            assert got == pytest.approx(want, rel=1e-14)
        for vals, got, want in zip(integrand(eta_a[:, None], eta_b[None, :]), tiny_cols,
                                   default_cols):
            double_sum = np.array([[(lp[:, None] * rq[None, :] * vals).sum() for rq in right.T]
                                   for lp in left.T])
            assert got.shape == (3, 2)
            np.testing.assert_allclose(got, double_sum, rtol=1e-14, atol=0)
            np.testing.assert_allclose(want, double_sum, rtol=1e-14, atol=0)

    def test_row_dependent_inner_rule(self):
        # the inner interval [0, 1 - x] shrinks with the outer node, and is
        # split at its midpoint m: the unit variable t maps to y = m t and to
        # y = m + m t, and the outer weight columns (w m, w m) carry the
        # Jacobians, so each half's sum is its own output's own column
        x, w = rule(0.0, 1.0)
        m = 0.5 * (1.0 - x)

        def halves(x, t):
            half = 0.5 * (1.0 - x)
            yield x + half * t
            yield x + half + half * t

        lower, upper = pair_sums((x, np.stack((w * m, w * m), axis=1)),
                                 panel_nodes(0.0, 1.0, 16, 2), halves)
        assert lower.shape == upper.shape == (2,)
        assert lower[0] + upper[1] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_empty_outer_table(self):
        empty = (np.empty(0), np.empty(0))
        assert pair_sums(empty, rule(0.0, 1.0), lambda x, y: (x,)) == []


class TestMcExpectation:
    def test_seeded_reproducibility(self):
        spec = McSpec(samples=50_000, seed=99)
        first = mc_expectation(lambda rng, n: rng.uniform(0.0, 1.0, n), lambda x: x * x, spec)
        second = mc_expectation(lambda rng, n: rng.uniform(0.0, 1.0, n), lambda x: x * x, spec)
        assert first == second

    def test_uniform_mean_within_error_bars(self):
        spec = McSpec(samples=200_000, seed=7)
        mean, se = mc_expectation(lambda rng, n: rng.uniform(0.0, 1.0, n), lambda x: x, spec)
        assert abs(mean - 0.5) < 4.0 * se
        assert se == pytest.approx(math.sqrt(1.0 / 12.0 / spec.samples), rel=0.05)

    def test_tuple_sampler(self):
        spec = McSpec(samples=100_000, seed=3)
        mean, se = mc_expectation(
            lambda rng, n: (rng.uniform(0, 1, n), rng.uniform(0, 1, n)),
            lambda x, y: x * y,
            spec,
        )
        assert abs(mean - 0.25) < 4.0 * se

    def test_rejects_non_finite(self):
        spec = McSpec(samples=10_000, seed=1)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            mc_expectation(lambda rng, n: rng.uniform(0, 1, n), lambda x: np.log(-x), spec)
