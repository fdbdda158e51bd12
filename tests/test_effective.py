"""Effective-channel reduction tests.

The reduction is checked by reconstructing the input state, the swap
per-realization identities by a second route through the reduction itself,
and the principal-value fading average against scipy's Cauchy-weight rule.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from cvsat.cli import _column, parse_scenario
from cvsat.effective import (
    EffectiveParams,
    _swap_eta_integrals,
    _swap_pole_sums,
    ordering_check,
    ordering_column,
    scheme_effective_summary,
    to_effective,
    try_effective,
)
from cvsat.errors import DomainError, NumericalError
from cvsat.fading import (
    D_MAX_SIGMAS,
    FadingChannel,
    LinkGeometry,
    LinkRule,
    deflection_of_eta,
    eta_of_deflection,
    rayleigh_pdf,
    sample,
)
from cvsat.gaussian import Squeezing, StandardFormCM, apply_loss, log_negativity, tmsv_cm
from cvsat.numerics import QuadratureSpec
from cvsat.schemes import KINDS, SchemeConfig, swap_realization

from oracles import cosh_swapped, dense_channel_average, swap_eta_integrals_tensor

GEOM = LinkGeometry(sigma_b=0.7, k1=0.5, k2=0.64)
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def config(kind, r=1.0, geom=GEOM, beta=1.0, w=1.0):
    return SchemeConfig(kind=kind, squeezing=Squeezing(r), geometry=geom, beta=beta, w=w)


def cosh_average(ch_a, ch_b, v, quad):
    """(cosh(2 r'') average, pv_used) as _summary builds it: the per-r kernel plus the pole sums."""
    rules = (LinkRule(ch_a, quad), LinkRule(ch_b, quad))
    kernel = _swap_eta_integrals(rules, (v,))[1][0][4]
    mass, pv_sum, pv_used = _swap_pole_sums(rules)
    return -mass + (v + 1.0) * pv_sum - (v * v - 1.0) * kernel, pv_used


def split_at_crossing(ch_b, quad, e, w):
    """Pole rows' B-side rules, each split at its crossing d0 with the halves side by side.

    e and w are columns of A-side nodes and weights.  Returns (d0, d, joint):
    row i holds the B-side panel rule on [0, d0_i] and then the one on
    [d0_i, 12 sigma_b], as deflections d and joint weights w_i times the
    deflection weights.
    """
    rule = LinkRule(ch_b, quad)
    d_hi, (t01, w01) = rule.span[0], rule.unit
    d0 = np.asarray(deflection_of_eta(ch_b, 1.0 - e), dtype=float)
    d = np.concatenate((d0 * t01, d0 + (d_hi - d0) * t01), axis=1)
    return d0, d, w * np.concatenate((d0 * w01, (d_hi - d0) * w01), axis=1)


def pole_rows(eta_a, ch_b):
    """The A-side nodes whose B-side deflection integral crosses s = 1."""
    eta_b_floor = float(eta_of_deflection(ch_b, D_MAX_SIGMAS * ch_b.sigma_b))
    return (eta_a > 1.0 - ch_b.eta0) & (eta_a < 1.0 - eta_b_floor)


def residue_slope(ch_b, e, d0):
    """Slope of s(d) = e + eta_b(d) - 1 at the crossing d0."""
    lam, l_s = ch_b.lambda_shape, ch_b.l_scale
    return -(1.0 - e) * 0.5 * lam * d0 ** (lam - 1.0) / l_s**lam


def concatenated_pole_sums(ch_a, ch_b, quad):
    """(M, P, pv_used) of _swap_pole_sums, each pole row's split summed with joint weights.

    M is the weight mass and P the average of eta eta' / (s - 1): rows clear
    of the pole sum over the whole B-side table, pole rows over their split
    rule with the pole subtracted, plus its log term.
    """
    eta_a, w_a = LinkRule(ch_a, quad).table
    eta_b, w_b = LinkRule(ch_b, quad).table
    pole = pole_rows(eta_a, ch_b)
    e, w = eta_a[~pole, None], w_a[~pole, None]
    mass = float(w.sum()) * float(w_b.sum())
    pv = float((w * w_b * (e * eta_b / (e + eta_b - 1.0))).sum())
    if np.any(pole):
        e, w = eta_a[pole, None], w_a[pole, None]
        d0, d, joint = split_at_crossing(ch_b, quad, e, w)
        eb, density = eta_of_deflection(ch_b, d), rayleigh_pdf(d, ch_b.sigma_b)
        res = rayleigh_pdf(d0, ch_b.sigma_b) * e * eta_of_deflection(ch_b, d0) / residue_slope(ch_b, e, d0)
        mass += float((joint * density).sum())
        pv += float((joint * (density * e * eb / (e + eb - 1.0) - res / (d - d0))).sum())
        pv += float((w * res * np.log((D_MAX_SIGMAS * ch_b.sigma_b - d0) / d0)).sum())
    return mass, pv, bool(np.any(pole))


def per_node_cosh_average(ch_a, ch_b, v, quad):
    """The undecomposed average: cosh(2 r'') summed node by node, v inside the pole split.

    Rows clear of the pole sum num / ((s - 1)(s (v - 1) + 2)) over the B-side
    table; pole rows split the B-side deflection rule at the crossing,
    subtract the v-dependent residue there and add back its log term.  Each
    part is summed with joint weights.
    """
    def smooth_part(e, eb):
        return ((e * e + eb * eb) * (1.0 - v) + e * eb * (v * v + 3.0)
                + (e + eb) * (v - 3.0) + 2.0) / ((e + eb) * (v - 1.0) + 2.0)

    eta_a, w_a = LinkRule(ch_a, quad).table
    eta_b, w_b = LinkRule(ch_b, quad).table
    pole = pole_rows(eta_a, ch_b)
    e, w = eta_a[~pole, None], w_a[~pole, None]
    total = float((w * w_b * (smooth_part(e, eta_b) / (e + eta_b - 1.0))).sum())
    if np.any(pole):
        e, w = eta_a[pole, None], w_a[pole, None]
        d0, d, joint = split_at_crossing(ch_b, quad, e, w)
        eb, sig = eta_of_deflection(ch_b, d), ch_b.sigma_b
        res = rayleigh_pdf(d0, sig) * smooth_part(e, eta_of_deflection(ch_b, d0)) / residue_slope(ch_b, e, d0)
        total += float((joint * (rayleigh_pdf(d, sig) * smooth_part(e, eb) / (e + eb - 1.0)
                                 - res / (d - d0))).sum())
        total += float((w * res * np.log((D_MAX_SIGMAS * sig - d0) / d0)).sum())
    return total


class TestToEffective:
    @pytest.mark.parametrize("r,eta_a,eta_b", [
        (0.3, 1.0, 1.0),
        (1.0, 0.8, 0.55),
        (1.5, 1.0, 0.05),
        (2.0, 0.02, 0.9),
        (0.1, 0.6, 0.6),
    ])
    def test_recovers_loss_parameters(self, r, eta_a, eta_b):
        cm = apply_loss(tmsv_cm(Squeezing(r)), eta_a, eta_b)
        eff = to_effective(cm)
        assert eff.r_e == pytest.approx(r, abs=1e-10)
        assert eff.eta_a == pytest.approx(eta_a, abs=1e-10)
        assert eff.eta_b == pytest.approx(eta_b, abs=1e-10)

    @pytest.mark.parametrize("r,eta_a,eta_b", [(1.0, 0.8, 0.55), (1.5, 1.0, 0.05)])
    def test_round_trip_reconstructs_cm(self, r, eta_a, eta_b):
        cm = apply_loss(tmsv_cm(Squeezing(r)), eta_a, eta_b)
        eff = to_effective(cm)
        back = apply_loss(tmsv_cm(Squeezing(eff.r_e)), eff.eta_a, eff.eta_b)
        np.testing.assert_allclose(back.m, cm.m, atol=1e-9)

    def test_noisy_state_still_reduces(self):
        # excess noise keeps the CM in the aI/bI/diag(c,-c) family; as long
        # as it stays entangled the reduction reconstructs it exactly
        cm = StandardFormCM(a=2.5, b=1.9, c_plus=1.7, c_minus=-1.7).to_cm()
        eff = to_effective(cm)
        back = apply_loss(tmsv_cm(Squeezing(eff.r_e)), eff.eta_a, eff.eta_b)
        np.testing.assert_allclose(back.m, cm.m, atol=1e-9)

    def test_separable_state_rejected(self):
        cm = StandardFormCM(a=2.0, b=2.0, c_plus=0.9, c_minus=-0.9).to_cm()
        assert log_negativity(cm) == 0.0
        with pytest.raises(DomainError):
            to_effective(cm)
        assert try_effective(cm) is None

    def test_phase_asymmetric_rejected(self):
        cm = StandardFormCM(a=2.0, b=2.0, c_plus=1.3, c_minus=-0.9).to_cm()
        with pytest.raises(DomainError):
            to_effective(cm)

    def test_vacuum_rejected(self):
        with pytest.raises(DomainError):
            to_effective(StandardFormCM(a=1.0, b=1.0, c_plus=0.0, c_minus=0.0).to_cm())


class TestSwapRealizationReduction:
    @pytest.mark.parametrize("eta,eta_prime", [
        (1.0, 1.0), (0.9, 0.7), (0.6, 0.6), (0.95, 0.1), (0.52, 0.49),
    ])
    def test_dual_route_identities(self, eta, eta_prime):
        # route one: reduce the actual swapped CM; route two: the closed
        # forms used by the fading averages
        v = Squeezing(1.2).v
        eff = to_effective(swap_realization(Squeezing(1.2), eta, eta_prime))
        assert math.cosh(2.0 * eff.r_e) == pytest.approx(
            float(cosh_swapped(eta, eta_prime, v)), rel=1e-10
        )
        s = eta + eta_prime - 1.0
        eta_a_closed = -s * (v - 1.0) / (eta * (1.0 - v) + 2.0 * (eta_prime - 1.0))
        eta_b_closed = -s * (v - 1.0) / (eta_prime * (1.0 - v) + 2.0 * (eta - 1.0))
        assert eff.eta_a == pytest.approx(eta_a_closed, rel=1e-10)
        assert eff.eta_b == pytest.approx(eta_b_closed, rel=1e-10)

    def test_lossless_swap_values(self):
        v = Squeezing(1.0).v
        assert float(cosh_swapped(1.0, 1.0, v)) == pytest.approx(
            (v * v + 1.0) / (2.0 * v), rel=1e-14
        )
        eff = to_effective(swap_realization(Squeezing(1.0), 1.0, 1.0))
        assert eff.eta_a == pytest.approx(1.0, abs=1e-10)
        assert eff.eta_b == pytest.approx(1.0, abs=1e-10)
        assert math.cosh(2.0 * eff.r_e) == pytest.approx((v * v + 1.0) / (2.0 * v), rel=1e-12)

    def test_boundary_states_are_separable(self):
        # on and below eta + eta' = 1 the swapped state has no reduction
        for eta, eta_prime in ((0.5, 0.5), (0.3, 0.6), (0.2, 0.2)):
            cm = swap_realization(Squeezing(1.0), eta, eta_prime)
            assert log_negativity(cm) == 0.0
            assert try_effective(cm) is None


class TestSchemeEffectiveSummary:
    def test_direct(self):
        cfg = config("direct", r=0.9, beta=0.5)
        up, down = cfg.links()
        eff = scheme_effective_summary(cfg)
        assert eff.r_e == 0.9
        assert eff.eta_a == 1.0
        want = dense_channel_average(up, lambda e: e) * dense_channel_average(down, lambda e: e)
        assert eff.eta_b == pytest.approx(want, abs=1e-9)

    def test_satellite(self):
        cfg = config("satellite", r=0.9, beta=0.5)
        ch_a, ch_b = cfg.links()
        eff = scheme_effective_summary(cfg)
        assert eff.r_e == 0.9
        assert eff.eta_a == pytest.approx(dense_channel_average(ch_a, lambda e: e), abs=1e-9)
        assert eff.eta_b == pytest.approx(dense_channel_average(ch_b, lambda e: e), abs=1e-9)

    def test_swap_point_mass_equals_realization_reduction(self):
        cfg = config("swap", geom=LinkGeometry(sigma_b=0.0, k1=0.5, k2=0.64), beta=1.0)
        ch_a, ch_b = cfg.links()
        eff = scheme_effective_summary(cfg)
        want = to_effective(swap_realization(cfg.squeezing, ch_a.eta0, ch_b.eta0))
        assert eff.eta_a == pytest.approx(want.eta_a, rel=1e-10)
        assert eff.eta_b == pytest.approx(want.eta_b, rel=1e-10)
        assert eff.r_e == pytest.approx(want.r_e, rel=1e-10)

    def test_swap_eta_average_against_monte_carlo(self):
        cfg = config("swap", r=1.0)
        ch_a, ch_b = cfg.links()
        v = cfg.squeezing.v
        separable_mass, ((eta_a, _, signed_eta_a, _, _),) = _swap_eta_integrals(cfg.rules(), (v,))
        rng = np.random.default_rng(77)
        n = 400_000
        e = sample(ch_a, rng, n)
        ep = sample(ch_b, rng, n)
        signed = -(e + ep - 1.0) * (v - 1.0) / (e * (1.0 - v) + 2.0 * (ep - 1.0))
        for got, draws in ((eta_a, np.maximum(signed, 0.0)),
                           (signed_eta_a, signed)):
            err = draws.std(ddof=1) / math.sqrt(n)
            assert abs(got - draws.mean()) < 4.0 * err + 1e-4
        sep_draws = (e + ep < 1.0).astype(float)
        err_s = sep_draws.std(ddof=1) / math.sqrt(n)
        # indicator integrand: the tensor rule resolves it only to the panel
        # scale, so allow a small systematic term on top of the MC error
        assert abs(separable_mass - sep_draws.mean()) < 4.0 * err_s + 2e-3
        assert 0.0 <= separable_mass <= 1.0
        assert 0.0 <= eta_a <= 1.0
        assert signed_eta_a <= eta_a


class TestSwapCoshAverage:
    def test_point_mass_pair_plain_average(self):
        ch_a = FadingChannel(0.0, 1.0, 1.0)
        ch_b = FadingChannel(0.0, 1.0, 1.0)
        v = Squeezing(1.0).v
        got, pv_used = cosh_average(ch_a, ch_b, v, config("swap").quad)
        assert not pv_used
        assert got == pytest.approx(float(cosh_swapped(ch_a.eta0, ch_b.eta0, v)), rel=1e-12)

    def test_point_mass_on_boundary_raises(self):
        ch_a = FadingChannel(0.0, 0.4, 1.0)
        # choose beta so that eta0_b = 1 - eta0_a to float rounding
        target = 1.0 - ch_a.eta0
        beta_b = math.sqrt(-0.5 * math.log(1.0 - target * target))
        ch_b = FadingChannel(0.0, beta_b, 1.0)
        with pytest.raises(NumericalError):
            cosh_average(ch_a, ch_b, Squeezing(1.0).v, config("swap").quad)

    def test_principal_value_against_scipy_cauchy(self):
        # point-mass A side inside the pole window reduces the average to a
        # single principal-value integral scipy can check directly
        ch_a = FadingChannel(0.0, 1.0, 1.0)
        ch_b = FadingChannel(0.7, 1.0, 1.0)
        v = Squeezing(1.0).v
        e = ch_a.eta0
        assert 1.0 - ch_b.eta0 < e < 1.0
        got, pv_used = cosh_average(ch_a, ch_b, v, config("swap").quad)
        assert pv_used

        d_hi = D_MAX_SIGMAS * ch_b.sigma_b
        d0 = float(deflection_of_eta(ch_b, 1.0 - e))

        def smooth(d):
            etab = float(eta_of_deflection(ch_b, d))
            num = (e * e + etab * etab) * (1.0 - v) + e * etab * (v * v + 3.0) \
                + (e + etab) * (v - 3.0) + 2.0
            return float(rayleigh_pdf(d, ch_b.sigma_b)) * num / ((e + etab) * (v - 1.0) + 2.0)

        def regular(d):
            s = e + float(eta_of_deflection(ch_b, d)) - 1.0
            if abs(d - d0) < 1e-9:
                # remove the 0/0 at the crossing with the analytic slope
                slope = -(1.0 - e) * 0.5 * ch_b.lambda_shape \
                    * d0 ** (ch_b.lambda_shape - 1.0) / ch_b.l_scale**ch_b.lambda_shape
                return smooth(d) / slope
            return smooth(d) * (d - d0) / s

        want, err = integrate.quad(regular, 0.0, d_hi, weight="cauchy", wvar=d0, limit=400)
        assert err < 1e-7
        assert got == pytest.approx(want, abs=1e-8)

    def test_all_mass_on_entangled_side_needs_no_pv(self):
        # with eta0 pairs summing below 1 the whole support is separable side;
        # with tight wander around high eta0 it is all entangled side
        ch_a = FadingChannel(0.05, 1.5, 1.0)
        ch_b = FadingChannel(0.05, 1.5, 1.0)
        got, pv_used = cosh_average(ch_a, ch_b, Squeezing(1.0).v, config("swap").quad)
        assert not pv_used
        assert got > 1.0


class TestSwapEtaIntegrals:
    """The hoisted pass over tail-trimmed tables against the closed forms on full tables."""

    R_GRID = (0.0, 1e-8, 0.1, 2.0, 3.0)

    @pytest.mark.parametrize("ch_a,ch_b", [
        (FadingChannel(0.7, 0.4, 1.0), FadingChannel(0.448, 0.4, 1.0)),  # sigma_b > beta
        (FadingChannel(0.7, 1.0, 1.0), FadingChannel(0.448, 1.0, 1.0)),  # straddles s = 1
        (FadingChannel(1.5, 1.0, 1.0), FadingChannel(0.96, 1.0, 1.0)),  # sigma_b > beta
        # eta0 = 1, and a separable mass (deep in both tails) below _TAIL_MASS
        (FadingChannel(1.3, 13.0, 1.0), FadingChannel(0.832, 13.0, 1.0)),
        (FadingChannel(0.0, 1.0, 1.0), FadingChannel(0.7, 1.0, 1.0)),
        (FadingChannel(0.7, 1.0, 1.0), FadingChannel(0.0, 1.0, 1.0)),
        (FadingChannel(0.0, 1.0, 1.0), FadingChannel(0.0, 0.4, 1.0)),
    ], ids=["bw0.4-wide", "bw1", "bw1-wide", "bw13", "point-a", "point-b", "point-both"])
    def test_matches_full_table_closed_forms(self, ch_a, ch_b):
        quad = QuadratureSpec(64, 8)
        vs = [Squeezing(r).v for r in self.R_GRID]
        separable, got = _swap_eta_integrals((LinkRule(ch_a, quad), LinkRule(ch_b, quad)), vs)
        want_separable, want = swap_eta_integrals_tensor(ch_a, ch_b, vs, quad)
        assert separable == pytest.approx(want_separable, rel=1e-13, abs=0.0)
        for row, want_row in zip(got, want):
            eta_a, eta_b, signed_a, signed_b, kernel = row
            w_eta_a, w_eta_b, w_signed_a, w_signed_b, w_kernel = want_row
            for value, reference in ((eta_a, w_eta_a), (eta_b, w_eta_b), (kernel, w_kernel)):
                assert value == pytest.approx(reference, rel=1e-13, abs=0.0)
            # the signed sums cancel; measure them against E|num| = 2 E[max(num, 0)] - E[num]
            for value, reference, positive in ((signed_a, w_signed_a, w_eta_a),
                                               (signed_b, w_signed_b, w_eta_b)):
                assert abs(value - reference) <= 1e-13 * (2.0 * positive - reference)
        assert got[0][:4] == [0.0] * 4


class TestPoleDecomposition:
    """-M + (v + 1) P - (v^2 - 1) C(v) against the undecomposed per-node sum."""

    @staticmethod
    def assert_matches_per_node_sum(ch_a, ch_b, r):
        v = Squeezing(r).v
        quad = QuadratureSpec(64, 8)
        got, _ = cosh_average(ch_a, ch_b, v, quad)
        assert got == pytest.approx(per_node_cosh_average(ch_a, ch_b, v, quad), rel=1e-12)

    @pytest.mark.parametrize("r", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("sigma_b", [0.1, 0.7, 1.5])
    def test_fading_pair(self, sigma_b, r):
        ch_a, ch_b = config("swap", geom=LinkGeometry(sigma_b=sigma_b, k1=0.5, k2=0.64)).links()
        self.assert_matches_per_node_sum(ch_a, ch_b, r)

    @pytest.mark.parametrize("r", [0.1, 1.0, 2.0])
    def test_point_mass_a_side_in_pole_window(self, r):
        ch_a = FadingChannel(0.0, 1.0, 1.0)
        ch_b = FadingChannel(0.7, 1.0, 1.0)
        assert 1.0 - ch_b.eta0 < ch_a.eta0 < 1.0
        quad = QuadratureSpec(64, 8)
        assert _swap_pole_sums((LinkRule(ch_a, quad), LinkRule(ch_b, quad)))[2]
        self.assert_matches_per_node_sum(ch_a, ch_b, r)

    @pytest.mark.parametrize("r", [0.1, 1.0, 2.0])
    def test_every_a_row_a_pole_row(self, r):
        # a tight A side around a high eta0 inside a wide B side's pole
        # window: the sum over rows clear of the pole is empty
        ch_a = FadingChannel(0.05, 1.0, 1.0)
        ch_b = FadingChannel(0.7, 1.0, 1.0)
        eta_a, _ = LinkRule(ch_a, QuadratureSpec(64, 8)).table
        eta_b_floor = float(eta_of_deflection(ch_b, D_MAX_SIGMAS * ch_b.sigma_b))
        assert np.all((eta_a > 1.0 - ch_b.eta0) & (eta_a < 1.0 - eta_b_floor))
        self.assert_matches_per_node_sum(ch_a, ch_b, r)


class TestPoleSums:
    """(M, P, pv_used) against the concatenated per-row split summed with joint weights."""

    @staticmethod
    def assert_matches_concatenated_split(rules):
        got = _swap_pole_sums(rules)
        mass, pv, pv_used = concatenated_pole_sums(rules[0].ch, rules[1].ch, rules[0].quad)
        assert got[2] is pv_used
        assert got[0] == pytest.approx(mass, rel=1e-13, abs=0)
        assert got[1] == pytest.approx(pv, rel=1e-13, abs=0)
        return pv_used

    @pytest.mark.parametrize("name,pole_columns", [
        ("lowloss_bw0.4", 15), ("lowloss_bw0.5", 14), ("lowloss_bw1.0", 14)])
    def test_survey_pole_columns(self, name, pole_columns):
        scenario = parse_scenario(SCENARIOS / f"{name}.scn")
        columns = [_column(scenario, "swap", sigma_b)[1] for sigma_b in scenario.sigma_b_grid]
        assert sum(self.assert_matches_concatenated_split(rules) for rules in columns) == pole_columns

    @pytest.mark.parametrize("sigma_b", [0.1, 0.7, 1.5])
    def test_fading_pair(self, sigma_b):
        cfg = config("swap", geom=LinkGeometry(sigma_b=sigma_b, k1=0.5, k2=0.64))
        self.assert_matches_concatenated_split(cfg.rules())

    def test_every_a_row_a_pole_row(self):
        quad = QuadratureSpec(64, 8)
        rules = (LinkRule(FadingChannel(0.05, 1.0, 1.0), quad), LinkRule(FadingChannel(0.7, 1.0, 1.0), quad))
        assert self.assert_matches_concatenated_split(rules)


class TestOrderingColumn:
    """A column of squeezings gives, bit for bit, the per-point reports and summaries."""

    def test_matches_per_point_functions(self):
        # sigma_b = 0.7 straddles the swap pole, so the column shares a pole split
        r_grid = (0.1, 0.5, 1.0, 1.5, 2.0)
        reports = ordering_column(GEOM, [Squeezing(r) for r in r_grid], beta=1.0, w=1.0)
        assert reports[0]["swap_pv_used"]
        for r, report in zip(r_grid, reports):
            # repr compares floats bit for bit and a NaN r_e equal to itself
            assert repr(report) == repr(ordering_check(GEOM, Squeezing(r), beta=1.0, w=1.0))
            for kind in KINDS:
                eff = scheme_effective_summary(config(kind, r=r))
                assert repr([eff.r_e, eff.eta_a, eff.eta_b]) == repr(
                    [report[kind]["r_e"], report[kind]["eta_a"], report[kind]["eta_b"]])


class TestOrderingCheck:
    def test_reference_geometry(self):
        report = ordering_check(GEOM, Squeezing(1.0), beta=1.0, w=1.0)
        assert report["swap_le_direct"]
        assert report["satellite_ge_direct"]
        for kind in ("direct", "satellite", "swap"):
            entry = report[kind]
            assert entry["eta_product"] == pytest.approx(entry["eta_a"] * entry["eta_b"])
            assert 0.0 <= entry["eta_product"] <= 1.0
        assert 0.0 <= report["swap_separable_mass"] <= 1.0
        assert isinstance(report["swap_pv_used"], bool)
        assert report["swap_signed_eta_a"] <= report["swap"]["eta_a"]
        assert report["swap_signed_eta_b"] <= report["swap"]["eta_b"]

    def test_swap_never_beats_direct_across_geometries(self):
        for sigma, beta in ((0.32, 0.5), (0.7, 1.0), (1.0, 0.5), (1.5, 0.4), (2.0, 0.5)):
            geom = LinkGeometry(sigma_b=sigma, k1=0.5, k2=0.64)
            report = ordering_check(geom, Squeezing(1.5), beta=beta, w=1.0)
            assert report["swap_le_direct"]
            assert report["swap"]["eta_product"] <= report["direct"]["eta_product"] + 1e-12
            assert 0.0 <= report["swap"]["eta_a"] <= 1.0
            assert 0.0 <= report["swap"]["eta_b"] <= 1.0

    def test_point_mass_geometry(self):
        geom = LinkGeometry(sigma_b=0.0, k1=0.5, k2=0.64)
        report = ordering_check(geom, Squeezing(1.0), beta=1.0, w=1.0)
        eta0 = FadingChannel(0.0, 1.0, 1.0).eta0
        assert report["direct"]["eta_product"] == pytest.approx(eta0 * eta0, rel=1e-12)
        assert report["satellite_ge_direct"]
        assert report["swap_le_direct"]
