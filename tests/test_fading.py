"""Beam-wander channel tests.

The closed-form channel parameters are re-derived here from scratch with
series Bessel functions, the density is checked against the deflection-domain
CDF, and every ensemble average is cross-checked against a dense trapezoid
rule and Monte Carlo.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from cvsat import fading
from cvsat.errors import DomainError, NumericalError
from cvsat.fading import (
    D_MAX_SIGMAS,
    FadingChannel,
    LinkGeometry,
    LinkRule,
    deflection_of_eta,
    eta_of_deflection,
    expand_links,
    loss_db,
    mean_transmittance,
    pdf,
    rayleigh_pdf,
    sample,
    transmittance_nodes,
)
from cvsat.numerics import DEFAULT_QUAD, QuadratureSpec, panel_nodes

from oracles import (
    bessel_i0_series,
    bessel_i1_series,
    dense_channel_average,
    fading_cdf,
)


def params_oracle(beta: float, w: float) -> tuple[float, float, float, float]:
    """Channel constants (h, eta0, lambda, l_scale) recomputed independently."""
    h = (beta / w) ** 2
    eta0_sq = 1.0 - math.exp(-2.0 * h)
    q = 1.0 - math.exp(-4.0 * h) * bessel_i0_series(4.0 * h)
    t = math.log(2.0 * eta0_sq / q)
    lam = 8.0 * h * math.exp(-4.0 * h) * bessel_i1_series(4.0 * h) / (q * t)
    return h, math.sqrt(eta0_sq), lam, beta * t ** (-1.0 / lam)


def params_scipy(beta: float, w: float) -> tuple[float, float, float, float]:
    """(h, lambda, l_scale, eta0) by FadingChannel's own formulas with scipy's I0 and I1."""
    h = (beta / w) ** 2
    q = 1.0 - math.exp(-4.0 * h) * float(special.i0(4.0 * h))
    eta0_sq = 1.0 - math.exp(-2.0 * h)
    t = math.log(2.0 * eta0_sq / q)
    lam = 8.0 * h * math.exp(-4.0 * h) * float(special.i1(4.0 * h)) / (q * t)
    return h, lam, beta * t ** (-1.0 / lam), math.sqrt(eta0_sq)


class TestBessel:
    """The Cephes port behind the channel constants reproduces scipy.special bit for bit."""

    def test_i0_i1_equal_scipy(self):
        # both sides of the x = 8 switch between the A and B series, up to exp's overflow
        x = np.concatenate([np.geomspace(1e-8, 709.0, 20001), [0.0, np.nextafter(8.0, 0.0), 8.0,
                                                              np.nextafter(8.0, 9.0), 709.78]])
        assert [fading._bessel_i0(v) for v in x.tolist()] == special.i0(x).tolist()
        assert [fading._bessel_i1(v) for v in x.tolist()] == special.i1(x).tolist()

    @pytest.mark.parametrize("beta_over_w", [0.4, 0.5, 1.0, 4.0, 13.3])
    def test_channel_constants_equal_scipy_reference(self, beta_over_w):
        ch = FadingChannel(0.7, 0.5, 0.5 / beta_over_w)
        assert (ch.h, ch.lambda_shape, ch.l_scale, ch.eta0) == params_scipy(0.5, 0.5 / beta_over_w)


class TestDeriveParams:
    @pytest.mark.parametrize("beta,w", [(0.4, 1.0), (0.5, 1.0), (1.0, 1.0), (2.0, 1.3)])
    def test_matches_series_oracle(self, beta, w):
        ch = FadingChannel(0.7, beta, w)
        h, eta0, lam, l_scale = params_oracle(beta, w)
        assert ch.h == pytest.approx(h, rel=1e-14)
        assert ch.eta0 == pytest.approx(eta0, rel=1e-13)
        assert ch.lambda_shape == pytest.approx(lam, rel=1e-12)
        assert ch.l_scale == pytest.approx(l_scale, rel=1e-12)

    def test_params_do_not_depend_on_sigma(self):
        a = FadingChannel(0.2, 0.5, 1.0)
        b = FadingChannel(5.0, 0.5, 1.0)
        assert (a.h, a.eta0, a.lambda_shape, a.l_scale) == (
            b.h,
            b.eta0,
            b.lambda_shape,
            b.l_scale,
        )

    def test_rejects_bad_geometry(self):
        with pytest.raises(DomainError):
            FadingChannel(0.7, -0.5, 1.0)
        with pytest.raises(DomainError):
            FadingChannel(0.7, 0.5, 0.0)
        with pytest.raises(DomainError):
            FadingChannel(-0.1, 0.5, 1.0)
        with pytest.raises(DomainError):
            FadingChannel(math.inf, 0.5, 1.0)
        for beta, w in ((math.inf, 1.0), (0.5, math.inf), (math.nan, 1.0), (0.5, math.nan)):
            with pytest.raises(DomainError, match="beta and w must be finite"):
                FadingChannel(0.7, beta, w)
        # sigma_b**2 would underflow in the Rayleigh density
        with pytest.raises(DomainError, match="sigma_b"):
            FadingChannel(1e-160, 0.5, 1.0)

    def test_degenerate_aperture_raises(self):
        with pytest.raises(NumericalError):
            FadingChannel(0.7, 1e-9, 1.0)

    def test_huge_beta_over_w_is_numerical(self):
        # (beta/w)**2 overflows a double; that is I0's overflow, named as such
        with pytest.raises(NumericalError, match=r"beta/w = 1e\+300 overflows I0"):
            FadingChannel(0.7, 1e300, 1.0)

    def test_point_mass_flag(self):
        assert FadingChannel(0.0, 0.5, 1.0).point_mass
        assert not FadingChannel(0.1, 0.5, 1.0).point_mass


class TestEtaOfDeflection:
    def test_zero_deflection_gives_eta0(self):
        ch = FadingChannel(0.7, 0.5, 1.0)
        assert eta_of_deflection(ch, 0.0) == pytest.approx(ch.eta0)

    def test_scale_deflection(self):
        # at d = l_scale the exponent is exactly -1/2
        ch = FadingChannel(0.7, 0.5, 1.0)
        assert eta_of_deflection(ch, ch.l_scale) == pytest.approx(
            ch.eta0 * math.exp(-0.5), rel=1e-14
        )

    def test_monotone_decreasing(self):
        ch = FadingChannel(0.7, 0.5, 1.0)
        eta = eta_of_deflection(ch, np.linspace(0.0, 10.0, 200))
        assert np.all(np.diff(eta) < 0.0)

    def test_inverse_round_trip(self):
        ch = FadingChannel(0.7, 0.5, 1.0)
        d = np.linspace(0.05, 8.0, 50)
        assert deflection_of_eta(ch, eta_of_deflection(ch, d)) == pytest.approx(d, rel=1e-10)


class TestPdf:
    @pytest.mark.parametrize("sigma,beta", [(0.32, 0.5), (0.7, 1.0), (1.0, 0.5)])
    def test_normalized(self, sigma, beta):
        ch = FadingChannel(sigma, beta, 1.0)
        total, err = integrate.quad(lambda e: pdf(ch, e), 0.0, ch.eta0, limit=200)
        assert err < 1e-8
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_tail_mass_matches_deflection_cdf(self):
        ch = FadingChannel(0.7, 0.5, 1.0)
        for x in (0.1, 0.3, 0.5, 0.65):
            mass, err = integrate.quad(lambda e: pdf(ch, e), x, ch.eta0, limit=200)
            assert err < 1e-9
            expected = 1.0 - float(fading_cdf(ch, np.array([x]))[0])
            assert mass == pytest.approx(expected, abs=1e-8)

    def test_zero_outside_support(self):
        ch = FadingChannel(0.7, 0.5, 1.0)
        assert pdf(ch, -0.1) == 0.0
        assert pdf(ch, 0.0) == 0.0
        assert pdf(ch, ch.eta0 + 1e-6) == 0.0

    def test_scalar_and_array_shapes(self):
        ch = FadingChannel(0.7, 0.5, 1.0)
        assert isinstance(pdf(ch, 0.3), float)
        arr = pdf(ch, np.array([0.1, 0.3]))
        assert arr.shape == (2,)

    def test_point_mass_has_no_density(self):
        with pytest.raises(DomainError):
            pdf(FadingChannel(0.0, 0.5, 1.0), 0.3)


class TestSample:
    def test_within_support(self):
        ch = FadingChannel(0.7, 0.5, 1.0)
        draws = sample(ch, np.random.default_rng(7), 5000)
        assert np.all(draws > 0.0)
        assert np.all(draws <= ch.eta0)

    @pytest.mark.parametrize("sigma", [0.32, 0.7, 2.0])
    def test_kolmogorov_smirnov(self, sigma):
        ch = FadingChannel(sigma, 0.5, 1.0)
        n = 20_000
        draws = np.sort(sample(ch, np.random.default_rng(42), n))
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        cdf = fading_cdf(ch, draws)
        stat = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(emp_lo - cdf)))
        # 1% critical value of the one-sample KS statistic
        assert stat < 1.63 / math.sqrt(n)

    def test_point_mass_draws_eta0(self):
        ch = FadingChannel(0.0, 0.5, 1.0)
        rng = np.random.default_rng(0)
        assert sample(ch, rng) == ch.eta0
        draws = sample(ch, rng, 5)
        assert draws.shape == (5,) and np.all(draws == ch.eta0)
        # no randomness is consumed
        assert rng.random() == np.random.default_rng(0).random()


class TestTransmittanceNodes:
    @pytest.mark.parametrize("sigma", [0.32, 0.7, 1.0, 2.0, 22.0])
    def test_weights_sum_to_one(self, sigma):
        ch = FadingChannel(sigma, 0.5, 1.0)
        eta, w = LinkRule(ch).table
        assert np.all(w > 0.0)
        # deep-tail nodes may underflow to exactly 0 for very wide channels
        assert np.all((eta >= 0.0) & (eta <= ch.eta0))
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.32, 0.7, 2.0])
    def test_mean_against_dense_oracle(self, sigma):
        ch = FadingChannel(sigma, 0.5, 1.0)
        assert mean_transmittance(ch) == pytest.approx(
            dense_channel_average(ch, lambda e: e), abs=1e-9
        )

    def test_second_moment_against_dense_oracle(self):
        ch = FadingChannel(0.7, 1.0, 1.0)
        eta, w = LinkRule(ch).table
        assert float(w @ (eta * eta)) == pytest.approx(
            dense_channel_average(ch, lambda e: e * e), abs=1e-9
        )

    def test_mean_against_monte_carlo(self):
        ch = FadingChannel(0.7, 0.5, 1.0)
        draws = sample(ch, np.random.default_rng(11), 200_000)
        stderr = float(draws.std(ddof=1)) / math.sqrt(draws.size)
        assert abs(mean_transmittance(ch) - float(draws.mean())) < 4.0 * stderr

    @pytest.mark.parametrize("sigma", [0.32, 0.7, 2.0, 22.0])
    def test_converged_in_quadrature(self, sigma):
        ch = FadingChannel(sigma, 0.5, 1.0)
        coarse = mean_transmittance(ch, QuadratureSpec(nodes_1d=32, subdivisions=4))
        assert mean_transmittance(ch) == pytest.approx(coarse, abs=1e-9)

    def test_point_mass_single_node(self):
        ch = FadingChannel(0.0, 0.5, 1.0)
        eta, w = LinkRule(ch).table
        assert eta.tolist() == [ch.eta0]
        assert w.tolist() == [1.0]
        assert mean_transmittance(ch) == ch.eta0

    @pytest.mark.parametrize("sigma,quad", [(0.7, QuadratureSpec()), (22.0, QuadratureSpec(32, 4))])
    def test_cut_weights_sum_to_rayleigh_cdf(self, sigma, quad):
        ch = FadingChannel(sigma, 0.5, 1.0)
        # 1e-300 ends the rule on the uncut span at sigma_b = 0.7 and inside it at 22
        for cut in (1e-300, *(frac * ch.eta0 for frac in (1e-6, 0.05, 0.3, 0.7, 0.95))):
            eta, w = transmittance_nodes(ch, quad, cut)
            d_c = min(D_MAX_SIGMAS * sigma, float(deflection_of_eta(ch, cut)))
            assert float(w.sum()) == pytest.approx(-math.expm1(-0.5 * (d_c / sigma) ** 2), abs=1e-12)
            assert np.all(eta > cut)
        # a cut at 0 leaves the table uncut, bit for bit; one at or above eta0 keeps no weight
        uncut, cut_at_zero = LinkRule(ch, quad).table, transmittance_nodes(ch, quad, 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(uncut, cut_at_zero))
        for cut in (ch.eta0, 1.5 * ch.eta0, math.inf):
            assert not np.any(transmittance_nodes(ch, quad, cut)[1])

    def test_point_mass_cut(self):
        ch = FadingChannel(0.0, 0.5, 1.0)
        for cut, weight in ((0.0, 1.0), (1e-300, 1.0), (0.5 * ch.eta0, 1.0), (ch.eta0, 0.0),
                            (1.5 * ch.eta0, 0.0), (math.inf, 0.0)):
            eta, w = transmittance_nodes(ch, DEFAULT_QUAD, cut)
            assert eta.tolist() == [ch.eta0]
            assert w.tolist() == [weight]

    def test_truncation_leaves_negligible_tail(self):
        ch = FadingChannel(0.7, 0.5, 1.0)
        assert math.exp(-0.5 * D_MAX_SIGMAS**2) < 1e-30


class TestTrimTail:
    """LinkRule.trimmed against the rule's uncut table."""

    @pytest.mark.parametrize("sigma,beta,kept", [
        (0.7, 1.0, 395), (1.5, 1.0, 784), (0.1, 0.4, 395), (22.0, 0.5, None)])
    def test_bit_identical_prefix_without_the_tail_mass(self, sigma, beta, kept):
        rule = LinkRule(FadingChannel(sigma, beta, 1.0))
        (eta, w), (eta_t, w_t) = rule.table, rule.trimmed
        n = w_t.size
        assert np.shares_memory(eta_t, eta) and np.shares_memory(w_t, w)
        assert np.array_equal(eta_t, eta[:n]) and np.array_equal(w_t, w[:n])
        # the longest tail below _TAIL_MASS: one node more would reach it
        assert w[n:].sum() < fading._TAIL_MASS <= w[n - 1:].sum()
        if kept is not None:  # 64x8: 512 nodes, 1024 once sigma_b > beta
            assert n == kept

    def test_point_mass_table_is_whole(self):
        rule = LinkRule(FadingChannel(0.0, 0.5, 1.0))
        eta, w = rule.trimmed
        assert eta.tolist() == rule.table[0].tolist() and w.tolist() == [1.0]


class TestLinkRule:
    @pytest.mark.parametrize("sigma,beta", [(0.0, 0.5), (0.7, 1.0), (22.0, 0.5)])
    def test_reads_the_public_functions_bit_for_bit(self, sigma, beta):
        ch, quad = FadingChannel(sigma, beta, 1.0), QuadratureSpec(32, 4)
        rule = LinkRule(ch, quad)
        eta, w = rule.table
        # repr compares the floats bit for bit
        assert repr(rule.loss_db) == repr(loss_db(ch, quad)) \
            == repr(-10.0 * math.log10(float(w @ (eta * eta))))
        assert repr(rule.moments) == repr((mean_transmittance(ch, quad), float(w @ np.sqrt(eta))))
        assert repr(rule.moments[0]) == repr(float(w @ eta))

    def test_each_member_is_built_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fading, "transmittance_nodes",
                            lambda *args: calls.append(args) or transmittance_nodes(*args))
        rule = LinkRule(FadingChannel(0.7, 1.0, 1.0))
        for _ in range(2):
            assert rule.trimmed[0] is rule.trimmed[0] and rule.moments is rule.moments
            assert rule.loss_db == rule.loss_db
        assert len(calls) == 1

    # (sigma_b, beta, w) for LinkRule.antiderivatives: narrow and wide links, the
    # high-loss uplink, beta/W = 2 and beta/W = 0.2
    LINKS = [(0.5, 1.0, 2.0), (2.0, 1.0, 2.0), (22.0, 1.0, 2.0), (0.5, 1.0, 0.5), (30.0, 1.0, 5.0)]

    @pytest.mark.parametrize("sigma,beta,w", LINKS)
    def test_antiderivatives_start_at_zero_and_never_fall(self, sigma, beta, w):
        table = LinkRule(FadingChannel(sigma, beta, w)).antiderivatives
        f = table(np.linspace(0.0, D_MAX_SIGMAS * sigma, 20_001))
        assert (f[:, 0] == 0.0).all()
        assert (np.diff(f, axis=1) >= 0.0).all()

    @pytest.mark.parametrize("sigma,beta,w", LINKS)
    def test_antiderivatives_end_on_the_table_moments(self, sigma, beta, w):
        rule = LinkRule(FadingChannel(sigma, beta, w))
        eta, weights = rule.table
        # d is clipped to the rule's end
        for d in (D_MAX_SIGMAS * sigma, 2.0 * D_MAX_SIGMAS * sigma, math.inf):
            got = rule.antiderivatives(np.array([d]))[:, 0]
            np.testing.assert_allclose(got, (weights.sum(), *rule.moments), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("sigma,beta,w", LINKS)
    def test_weight_antiderivative_is_the_rayleigh_cdf(self, sigma, beta, w):
        d = np.random.default_rng(7).uniform(0.0, 6.0 * sigma, 1000)
        got = LinkRule(FadingChannel(sigma, beta, w)).antiderivatives(d)[0]
        np.testing.assert_allclose(got, stats.rayleigh.cdf(d, scale=sigma), rtol=1e-14, atol=0)

    def test_point_mass_antiderivatives_are_the_point(self):
        ch = FadingChannel(0.0, 0.5, 1.0)
        f = LinkRule(ch).antiderivatives(np.array([0.0, 0.3, math.inf]))
        np.testing.assert_array_equal(f, np.array([[1.0], [ch.eta0], [math.sqrt(ch.eta0)]]) * np.ones(3))

    def test_antiderivatives_are_built_once(self, monkeypatch):
        # building them evaluates the Rayleigh density once; evaluating them never does
        calls = []
        monkeypatch.setattr(fading, "rayleigh_pdf",
                            lambda *args: calls.append(args) or rayleigh_pdf(*args))
        rule = LinkRule(FadingChannel(0.7, 1.0, 1.0))
        for d in (0.1, 0.5, 2.0):
            assert rule.antiderivatives is rule.antiderivatives
            rule.antiderivatives(np.array([d]))
        assert len(calls) == 1


class TestSpan:
    """LinkRule.span, (d_hi, panels), and the tables laid out on it."""

    QUAD = QuadratureSpec(nodes_1d=32, subdivisions=4)

    def test_wide_channels_get_more_panels(self):
        for sigma, panels in ((0.0, 4), (0.3, 4), (0.7, 8), (22.0, 4 * 44)):
            assert LinkRule(FadingChannel(sigma, 0.5, 1.0), self.QUAD).span == (D_MAX_SIGMAS * sigma, panels)

    def test_too_many_nodes_per_axis(self):
        rule = LinkRule(FadingChannel(22.0, 0.5, 1.0), QuadratureSpec(1024, 1))
        with pytest.raises(DomainError, match="1024x1 rule needs 45056 nodes per axis, above the limit 32768"):
            rule.span

    @pytest.mark.parametrize("sigma", [0.7, 22.0])
    def test_table_and_unit_rule_share_the_panels(self, sigma):
        ch = FadingChannel(sigma, 0.5, 1.0)
        rule = LinkRule(ch, self.QUAD)
        d_hi, panels = rule.span
        # the uncut table is laid out on [0, d_hi] directly, bit for bit
        d, wd = panel_nodes(0.0, d_hi, 32, panels)
        assert np.array_equal(rule.table[0], eta_of_deflection(ch, d))
        assert np.array_equal(rule.table[1], wd * rayleigh_pdf(d, sigma))
        t, wt = rule.unit
        assert all(np.array_equal(a, b) for a, b in zip((t, wt), panel_nodes(0.0, 1.0, 32, panels)))
        np.testing.assert_allclose(d_hi * t, d, rtol=1e-13, atol=0)


class TestLossDb:
    def test_matches_mean_power_definition(self):
        ch = FadingChannel(0.7, 1.0, 1.0)
        mean_power = dense_channel_average(ch, lambda e: e * e)
        assert loss_db(ch) == pytest.approx(-10.0 * math.log10(mean_power), abs=1e-8)

    def test_point_mass(self):
        ch = FadingChannel(0.0, 0.5, 1.0)
        assert loss_db(ch) == pytest.approx(-20.0 * math.log10(ch.eta0), rel=1e-12)

    def test_loss_grows_with_wander(self):
        losses = [loss_db(FadingChannel(s, 0.5, 1.0)) for s in (0.1, 0.5, 1.0, 2.0)]
        assert losses == sorted(losses)


class TestLinkGeometry:
    def test_validation(self):
        with pytest.raises(DomainError):
            LinkGeometry(sigma_b=-1.0, k1=0.5, k2=0.6)
        with pytest.raises(DomainError):
            LinkGeometry(sigma_b=0.7, k1=1.5, k2=0.6)
        with pytest.raises(DomainError):
            LinkGeometry(sigma_b=0.7, k1=0.5, k2=-0.1)

    def test_expand_links_scales_sigma(self):
        geom = LinkGeometry(sigma_b=0.7, k1=0.5, k2=0.64)
        links = expand_links(geom, 0.5, 1.0)
        assert links.a_s.sigma_b == pytest.approx(0.7)
        assert links.s_a.sigma_b == pytest.approx(0.35)
        assert links.b_s.sigma_b == pytest.approx(0.448)
        assert links.s_b.sigma_b == pytest.approx(0.224)
        for ch in links:
            assert (ch.beta, ch.w) == (0.5, 1.0)

    def test_k1_zero_makes_downlinks_point_mass(self):
        links = expand_links(LinkGeometry(sigma_b=0.7, k1=0.0, k2=0.64), 0.5, 1.0)
        assert links.s_a.point_mass
        assert links.s_b.point_mass
        assert not links.a_s.point_mass
