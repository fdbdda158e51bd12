import math

import numpy as np
import pytest

from cvsat import numerics
from cvsat.errors import DomainError, NumericalError
from cvsat.fading import FadingChannel, transmittance_nodes
from cvsat.numerics import (
    DEFAULT_QUAD,
    McSpec,
    QuadratureSpec,
    bessel_i,
    mc_expectation,
    pair_sums,
    panel_nodes,
    tensor_rule,
)
from oracles import bessel_i0_series, bessel_i1_series


def integrate_1d(f, lo, hi, spec=DEFAULT_QUAD):
    x, w = panel_nodes(lo, hi, spec)
    return float(w @ f(x))


def integrate_2d(f, box, spec=DEFAULT_QUAD):
    (lo1, hi1), (lo2, hi2) = box
    y, wy = panel_nodes(lo2, hi2, spec)
    (total,) = pair_sums(panel_nodes(lo1, hi1, spec), tensor_rule(y, wy), y.size,
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
        def one_node(x, w):
            return np.zeros((1, 1)), w[:, None]

        with np.errstate(divide="ignore"), pytest.raises(NumericalError):
            pair_sums(panel_nodes(0.0, 1.0), one_node, 1, lambda x, y: (1.0 / (x - x),))

    def test_panel_nodes_cover_interval(self):
        # a scalar upper end, then a column of ends giving one row each
        for hi, shape in ((5.0, (24,)), (np.array([[5.0], [2.5], [4.0]]), (3, 24))):
            x, w = panel_nodes(2.0, hi, QuadratureSpec(8, 3))
            assert x.shape == w.shape == shape
            assert x.flags.c_contiguous and w.flags.c_contiguous
            ends = np.reshape(hi, (-1, 1))
            assert np.all((x > 2.0) & (x < ends))
            np.testing.assert_allclose(w.sum(axis=-1), ends[:, 0] - 2.0, rtol=1e-14)

    def test_panel_nodes_are_the_linspace_panels(self):
        # uncut node tables must not move: the rule is bit-for-bit the one on
        # np.linspace panel edges, and each row of a column of ends is
        # bit-for-bit the rule of that end alone
        spec = QuadratureSpec(16, 5)
        xg, wg = np.polynomial.legendre.leggauss(16)
        for hi in (0.0, 1.0, 8.4, 264.0):
            edges = np.linspace(0.0, hi, 6)
            half = 0.5 * np.diff(edges)
            mid = 0.5 * (edges[:-1] + edges[1:])
            x, w = panel_nodes(0.0, hi, spec)
            assert np.array_equal(x, (mid[:, None] + half[:, None] * xg).ravel())
            assert np.array_equal(w, (half[:, None] * wg).ravel())
            xc, wc = panel_nodes(0.0, np.array([[3.0], [hi], [0.0]]), spec)
            assert np.array_equal(xc[1], x) and np.array_equal(wc[1], w)


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
        eta_a, w_a = transmittance_nodes(FadingChannel(1.5, 1.0, 1.0))
        eta_b, w_b = transmittance_nodes(FadingChannel(0.96, 1.0, 1.0))
        v = math.cosh(2.0)

        def integrand(e, ep):
            shared = (v * v - 1.0) / (2.0 + (e + ep) * (v - 1.0))
            yield v - e * shared
            yield v - ep * shared
            yield np.sqrt(e * ep) * shared

        def sums():
            return pair_sums((eta_a, w_a), tensor_rule(eta_b, w_b), eta_b.size, integrand)

        default = sums()
        monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", 3 * eta_b.size + 7)
        tiny = sums()
        assert len(tiny) == 3
        for got, want in zip(tiny, default):
            assert got == pytest.approx(want, rel=1e-14)

    def test_row_dependent_inner_rule(self):
        # the inner interval [0, 1 - x] shrinks with the outer node
        t, wt = panel_nodes(0.0, 1.0, QuadratureSpec(16, 2))

        def triangle(x, w):
            cap = (1.0 - x)[:, None]
            return cap * t[None, :], (w[:, None] * cap) * wt[None, :]

        (got,) = pair_sums(panel_nodes(0.0, 1.0), triangle, t.size, lambda x, y: (x + y,))
        assert got == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_empty_outer_table(self):
        empty = (np.empty(0), np.empty(0))
        assert pair_sums(empty, tensor_rule(*panel_nodes(0.0, 1.0)), 1, lambda x, y: (x,)) == []


class TestSpecialFunctions:
    def test_bessel_matches_series(self):
        for x in (0.0, 1e-3, 0.5, 4.0, 16.0, 64.0):
            assert bessel_i(0, x) == pytest.approx(bessel_i0_series(x), rel=1e-13)
            assert bessel_i(1, x) == pytest.approx(bessel_i1_series(x), rel=1e-13)

    def test_bessel_validation(self):
        with pytest.raises(DomainError):
            bessel_i(2, 1.0)
        with pytest.raises(DomainError):
            bessel_i(0, -0.5)


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
