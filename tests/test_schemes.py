"""Tests for the three entanglement-distribution schemes.

Realizations are checked against the elementary channel maps, ensembles
against factorized dense averages and Monte Carlo, and the whole swap engine
against brute-force linear algebra on the four-mode covariance matrix.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from cvsat.cli import _column, parse_scenario
from cvsat.effective import scheme_effective_summary
from cvsat.errors import DomainError
from cvsat.fading import FadingChannel, LinkGeometry, LinkRule, sample
from cvsat.gaussian import (
    Squeezing,
    add_excess_noise,
    apply_loss,
    log_negativity,
    tmsv_cm,
)
from cvsat.numerics import QuadratureSpec, pair_sums
from cvsat.schemes import (
    GeneralBipartiteInput,
    SchemeConfig,
    SwapGains,
    direct_realization,
    ensemble_cm,
    ensemble_column,
    general_optimal_gains,
    swap_conditional,
    swap_ensemble_cm,
    swap_inputs,
    swap_realization,
)

from oracles import (
    dense_channel_average,
    random_general_input,
    random_standard_input,
    swap_conditional_oracle,
    swap_displaced_oracle,
    swap_ensemble_tensor,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

GEOM = LinkGeometry(sigma_b=0.7, k1=0.5, k2=0.64)
POINT = LinkGeometry(sigma_b=0.0, k1=0.5, k2=0.64)


def config(kind, r=1.0, geom=GEOM, beta=1.0, w=1.0, chi=0.0, quad=None):
    kwargs = {} if quad is None else {"quad": quad}
    return SchemeConfig(kind=kind, squeezing=Squeezing(r), geometry=geom,
                        beta=beta, w=w, chi=chi, **kwargs)


class TestSchemeConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            config("teleport")

    def test_rejects_negative_chi(self):
        with pytest.raises(DomainError):
            config("direct", chi=-0.01)

    def test_links_direct_uses_up_then_down(self):
        up, down = config("direct").links()
        assert up.sigma_b == pytest.approx(0.7)
        assert down.sigma_b == pytest.approx(0.7 * 0.5 * 0.64)

    def test_links_satellite_uses_both_downlinks(self):
        a, b = config("satellite").links()
        assert a.sigma_b == pytest.approx(0.7 * 0.5)
        assert b.sigma_b == pytest.approx(0.7 * 0.5 * 0.64)

    def test_links_swap_uses_both_uplinks(self):
        a, b = config("swap").links()
        assert a.sigma_b == pytest.approx(0.7)
        assert b.sigma_b == pytest.approx(0.7 * 0.64)


class TestDirectRealization:
    @pytest.mark.parametrize("eta,eta_prime,chi", [
        (1.0, 1.0, 0.0), (0.7, 0.9, 0.0), (0.3, 0.5, 0.05), (0.0, 0.4, 0.02),
    ])
    def test_equals_elementary_channel_maps(self, eta, eta_prime, chi):
        sq = Squeezing(0.9)
        got = direct_realization(sq, eta, eta_prime, chi)
        want = add_excess_noise(apply_loss(tmsv_cm(sq), 1.0, eta * eta_prime), 0.0, chi)
        np.testing.assert_allclose(got.m, want.m, atol=1e-13)

    def test_lossless_is_tmsv(self):
        sq = Squeezing(1.2)
        np.testing.assert_allclose(direct_realization(sq, 1.0, 1.0).m, tmsv_cm(sq).m, atol=0)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            direct_realization(Squeezing(1.0), 1.2, 0.5)
        with pytest.raises(DomainError):
            direct_realization(Squeezing(1.0), 0.5, -0.1)


class TestDirectEnsemble:
    def test_point_mass_equals_realization(self):
        cfg = config("direct", geom=POINT, beta=0.5, chi=0.03)
        up, down = cfg.links()
        want = direct_realization(cfg.squeezing, up.eta0, down.eta0, cfg.chi)
        np.testing.assert_allclose(ensemble_cm(cfg).m, want.m, atol=1e-12)

    def test_entries_match_factorized_dense_average(self):
        # independent links: E[f(eta) g(eta')] = E[f] * E[g].  The 2D pair sum
        # over both node tables is the unfactorized reference; the dense
        # trapezoid average is an independent one.
        highloss = LinkGeometry(sigma_b=22.0, k1=1.0 / 11.0, k2=1.0)
        for cfg in (
            config("direct", r=0.8, beta=0.5),
            config("direct", r=0.8, geom=POINT, beta=0.5, chi=0.03),
            config("direct", r=1.2, geom=LinkGeometry(sigma_b=0.1, k1=0.5, k2=0.64), beta=0.5),
            config("direct", r=1.5, geom=highloss, w=2.0, chi=0.01,
                   quad=QuadratureSpec(nodes_1d=32, subdivisions=4)),
        ):
            up, down = cfg.links()
            v = cfg.squeezing.v
            b_sum, c_sum, zeta = pair_sums(
                LinkRule(up, cfg.quad).table, LinkRule(down, cfg.quad).table,
                lambda e, ep: (1.0 + e * ep * (v - 1.0), np.sqrt(e * ep), e * ep),
            )
            b, c = b_sum + cfg.chi, c_sum * math.sqrt(v * v - 1.0)
            want = np.array([[v, 0, c, 0], [0, v, 0, -c], [c, 0, b, 0], [0, -c, 0, b]])
            np.testing.assert_allclose(ensemble_cm(cfg).m, want, rtol=1e-14, atol=0)
            assert scheme_effective_summary(cfg).eta_b == pytest.approx(zeta, rel=1e-14, abs=0)
            if up.point_mass:
                continue
            b_dense = 1.0 + cfg.chi + (v - 1.0) * (
                dense_channel_average(up, lambda e: e) * dense_channel_average(down, lambda e: e)
            )
            c_dense = math.sqrt(v * v - 1.0) * (
                dense_channel_average(up, np.sqrt) * dense_channel_average(down, np.sqrt)
            )
            assert b == pytest.approx(b_dense, abs=1e-9)
            assert c == pytest.approx(c_dense, abs=1e-9)

    def test_against_monte_carlo(self):
        cfg = config("direct", r=1.0, beta=0.5)
        up, down = cfg.links()
        v = cfg.squeezing.v
        rng = np.random.default_rng(314)
        e = sample(up, rng, 400_000)
        ep = sample(down, rng, 400_000)
        for draws, entry in (
            (1.0 + e * ep * (v - 1.0), ensemble_cm(cfg).m[2, 2]),
            (np.sqrt(e * ep) * math.sqrt(v * v - 1.0), ensemble_cm(cfg).m[0, 2]),
        ):
            stderr = draws.std(ddof=1) / math.sqrt(draws.size)
            assert abs(entry - draws.mean()) < 4.0 * stderr

    def test_chi_reduces_entanglement(self):
        vals = [log_negativity(ensemble_cm(config("direct", chi=c)))
                for c in (0.0, 0.02, 0.05)]
        assert vals[0] > vals[1] > vals[2]


class TestSatelliteEnsemble:
    def test_point_mass_equals_channel_maps(self):
        cfg = config("satellite", geom=POINT, beta=0.5, chi=0.04)
        ch_a, ch_b = cfg.links()
        want = add_excess_noise(
            apply_loss(tmsv_cm(cfg.squeezing), ch_a.eta0, ch_b.eta0), cfg.chi, cfg.chi
        )
        np.testing.assert_allclose(ensemble_cm(cfg).m, want.m, atol=1e-12)

    def test_entries_match_dense_average(self):
        cfg = config("satellite", r=1.1, beta=0.5)
        ch_a, ch_b = cfg.links()
        v = cfg.squeezing.v
        m = ensemble_cm(cfg).m
        assert m[0, 0] == pytest.approx(
            1.0 + (v - 1.0) * dense_channel_average(ch_a, lambda e: e), abs=1e-9
        )
        assert m[2, 2] == pytest.approx(
            1.0 + (v - 1.0) * dense_channel_average(ch_b, lambda e: e), abs=1e-9
        )
        assert m[0, 2] == pytest.approx(
            math.sqrt(v * v - 1.0)
            * dense_channel_average(ch_a, np.sqrt)
            * dense_channel_average(ch_b, np.sqrt),
            abs=1e-9,
        )

    def test_symmetric_links_give_symmetric_state(self):
        cfg = config("satellite", geom=LinkGeometry(sigma_b=0.7, k1=1.0, k2=1.0))
        m = ensemble_cm(cfg).m
        assert m[0, 0] == pytest.approx(m[2, 2], rel=1e-12)

    def test_beats_direct_at_reference_point(self):
        assert log_negativity(ensemble_cm(config("satellite"))) > log_negativity(
            ensemble_cm(config("direct"))
        )


class TestSwapConditional:
    def test_matches_schur_oracle_on_random_inputs(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            inp = random_general_input(rng)
            got = swap_conditional(inp).m
            want = swap_conditional_oracle(inp)
            np.testing.assert_allclose(got, want, atol=1e-10 * max(1.0, np.abs(want).max()))

    def test_lossless_tmsv_pair_swaps_to_cosh(self):
        for r in (0.1, 0.5, 1.0, 1.5, 2.0):
            inp = swap_inputs(Squeezing(r), 1.0, 1.0)
            want = math.log2(math.cosh(2.0 * r))
            assert log_negativity(swap_conditional(inp)) == pytest.approx(want, abs=1e-10)


class TestSwapEnsembleCm:
    def test_matches_displacement_oracle_for_arbitrary_gains(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            inp = random_general_input(rng)
            g1, g4 = rng.uniform(-0.8, 0.8, 2)
            got = swap_ensemble_cm(inp, SwapGains(g1=g1, g4=g4)).m
            want = swap_displaced_oracle(inp, g1, g4)
            np.testing.assert_allclose(got, want, atol=1e-10 * max(1.0, np.abs(want).max()))

    def test_optimal_gains_recover_conditional_state(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            inp = random_standard_input(rng)
            got = swap_ensemble_cm(inp, general_optimal_gains(inp)).m
            np.testing.assert_allclose(got, swap_conditional(inp).m, atol=1e-10)

    @pytest.mark.parametrize("first,second", [((1.0, 1.0, 2.0, -2.0), (2.0, 2.0, 1.0, -1.0)),
                                              ((2.0, 2.0, 1.0, -1.0), (1.0, 1.0, 2.0, -2.0))])
    def test_rejects_unphysical_constituent(self, first, second):
        a, b, c_plus, c_minus = first
        d, e, f_plus, f_minus = second
        with pytest.raises(DomainError, match="unphysical"):
            GeneralBipartiteInput(a=a, b=b, c_plus=c_plus, c_minus=c_minus,
                                  d=d, e=e, f_plus=f_plus, f_minus=f_minus)

    def test_optimal_gains_reject_phase_asymmetry(self):
        inp = GeneralBipartiteInput(
            a=2.0, b=2.0, c_plus=1.2, c_minus=-0.9,
            d=2.0, e=2.0, f_plus=1.0, f_minus=-1.0,
        )
        with pytest.raises(DomainError):
            general_optimal_gains(inp)

    def test_closed_form_gains_match_general(self):
        """g1 = sqrt(eta) sqrt(v^2 - 1) / (2 + (eta + eta')(v - 1) + 2 chi); g4 likewise with eta'."""
        sq = Squeezing(1.3)
        v = sq.v
        root = math.sqrt(v * v - 1.0)
        for (eta, eta_prime), chi in itertools.product(
                ((1.0, 1.0), (0.6, 0.9), (0.0, 0.5), (0.25, 0.25)), (0.0, 0.05)):
            den = 2.0 + (eta + eta_prime) * (v - 1.0) + 2.0 * chi
            general = general_optimal_gains(swap_inputs(sq, eta, eta_prime, chi))
            assert general.g1 == pytest.approx(math.sqrt(eta) * root / den, abs=1e-14)
            assert general.g4 == pytest.approx(math.sqrt(eta_prime) * root / den, abs=1e-14)

    def test_gains_are_locally_optimal(self):
        sq = Squeezing(1.0)
        inp = swap_inputs(sq, 0.7, 0.5)
        best = general_optimal_gains(inp)
        e_best = log_negativity(swap_ensemble_cm(inp, best))
        for d1 in (-1e-3, 0.0, 1e-3):
            for d4 in (-1e-3, 0.0, 1e-3):
                perturbed = SwapGains(g1=best.g1 + d1, g4=best.g4 + d4)
                assert log_negativity(swap_ensemble_cm(inp, perturbed)) <= e_best + 1e-12


class TestSwapRealization:
    def test_lossless_log_negativity(self):
        for r in (0.1, 0.5, 1.0, 1.5, 2.0):
            got = log_negativity(swap_realization(Squeezing(r), 1.0, 1.0))
            assert got == pytest.approx(math.log2(math.cosh(2.0 * r)), abs=1e-10)

    def test_zero_uplink_breaks_entanglement(self):
        cm = swap_realization(Squeezing(1.0), 0.0, 0.9)
        assert log_negativity(cm) == 0.0

    def test_excess_noise_enters_both_measured_modes(self):
        inp = swap_inputs(Squeezing(1.0), 0.6, 0.8, chi=0.05)
        assert inp.b == pytest.approx(1.0 + 0.6 * (Squeezing(1.0).v - 1.0) + 0.05)
        assert inp.d == pytest.approx(1.0 + 0.8 * (Squeezing(1.0).v - 1.0) + 0.05)
        assert inp.a == Squeezing(1.0).v
        assert inp.e == Squeezing(1.0).v


class TestSwapEnsemble:
    def test_point_mass_equals_realization(self):
        cfg = config("swap", geom=POINT, beta=0.5, chi=0.02)
        ch_a, ch_b = cfg.links()
        want = swap_realization(cfg.squeezing, ch_a.eta0, ch_b.eta0, cfg.chi)
        np.testing.assert_allclose(ensemble_cm(cfg).m, want.m, atol=1e-12)

    @pytest.mark.parametrize("geom", [LinkGeometry(sigma_b=0.1, k1=0.5, k2=0.64), GEOM,
                                      LinkGeometry(sigma_b=1.5, k1=0.5, k2=0.64), POINT])
    @pytest.mark.parametrize("r", [0.1, 2.0])
    @pytest.mark.parametrize("chi", [0.0, 0.05])
    def test_matches_joint_weight_pair_sum(self, geom, r, chi):
        # the per-entry integrands summed with the joint weights in plain
        # numpy: no weight columns, no matrix products, no pair_sums
        cfg = config("swap", r=r, geom=geom, chi=chi)
        ch_a, ch_b = cfg.links()
        v = cfg.squeezing.v
        eta_a, w_a = LinkRule(ch_a, cfg.quad).table
        eta_b, w_b = LinkRule(ch_b, cfg.quad).table
        e, ep, joint = eta_a[:, None], eta_b[None, :], w_a[:, None] * w_b[None, :]
        shared = (v * v - 1.0) / (2.0 + (e + ep) * (v - 1.0) + 2.0 * chi)
        a, b, c = (float((joint * vals).sum())
                   for vals in (v - e * shared, v - ep * shared, np.sqrt(e * ep) * shared))
        want = np.array([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]])
        np.testing.assert_allclose(ensemble_cm(cfg).m, want, rtol=1e-14, atol=0)

    def test_against_monte_carlo_realizations(self):
        cfg = config("swap", r=1.0, beta=1.0)
        ch_a, ch_b = cfg.links()
        rng = np.random.default_rng(99)
        n = 20_000
        e = sample(ch_a, rng, n)
        ep = sample(ch_b, rng, n)
        draws = np.empty((n, 3))
        for i in range(n):
            m = swap_realization(cfg.squeezing, e[i], ep[i]).m
            draws[i] = (m[0, 0], m[2, 2], m[0, 2])
        got = ensemble_cm(cfg).m
        for k, entry in enumerate((got[0, 0], got[2, 2], got[0, 2])):
            stderr = draws[:, k].std(ddof=1) / math.sqrt(n)
            assert abs(entry - draws[:, k].mean()) < 4.0 * stderr

    def test_chi_reduces_entanglement(self):
        vals = [log_negativity(ensemble_cm(config("swap", chi=c)))
                for c in (0.0, 0.02, 0.05)]
        assert vals[0] > vals[1] > vals[2]


class TestSwapEnsembleRootRule:
    """The swap ensemble on the links' root rules against the sum over every node pair of their full tables.

    Both sides use the same rule, and the pin is relative to the CM's largest
    entry.  The rule's own error is another matter: at beta/W = 13 the 64x8
    table is 8.9e-6 off a 128x16 one.
    """

    @staticmethod
    def assert_matches_full_tables(cfg, rs, chi):
        got = ensemble_column("swap", cfg.rules(), [Squeezing(r) for r in rs], chi)
        want = swap_ensemble_tensor(*cfg.links(), cfg.quad, [Squeezing(r).v for r in rs], chi)
        for cm, ref in zip(got, want):
            np.testing.assert_allclose(cm.m, ref, rtol=0, atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("chi", [0.0, 0.1])
    @pytest.mark.parametrize("geom,beta", [(GEOM, 1.0), (LinkGeometry(1.5, 0.5, 0.64), 1.0),
                                           (GEOM, 0.4), (LinkGeometry(1.3, 0.5, 0.64), 13.0)])
    def test_geometries(self, geom, beta, chi):
        cfg = config("swap", geom=geom, beta=beta, quad=QuadratureSpec(64, 8))
        self.assert_matches_full_tables(cfg, (0.0, 1e-8, 0.1, 1.0, 2.0, 3.0), chi)

    @pytest.mark.parametrize("name", ["lowloss_bw0.4", "lowloss_bw0.5", "lowloss_bw1.0"])
    def test_survey_columns(self, name):
        scenario = parse_scenario(SCENARIOS / f"{name}.scn")
        for sigma_b in scenario.sigma_b_grid:
            cfgs, _, _ = _column(scenario, "swap", sigma_b)
            self.assert_matches_full_tables(cfgs[0], scenario.r_grid, scenario.chi)

    def test_zero_squeezing_has_no_shared_factor(self):
        # v = 1 gives G = 0 exactly: the CM is the weight mass times the identity
        rules = config("swap").rules()
        cm, = ensemble_column("swap", rules, [Squeezing(0.0)], 0.1)
        mass = rules[0].table[1].sum() * rules[1].table[1].sum()
        assert cm.m.tolist() == (mass * np.eye(4)).tolist()


class TestEnsembleCmDispatch:
    def test_reference_point_ordering(self):
        e = {k: log_negativity(ensemble_cm(config(k))) for k in ("direct", "satellite", "swap")}
        assert e["satellite"] > e["direct"] > e["swap"] > 0.0

    def test_quadrature_converged(self):
        for kind in ("direct", "satellite", "swap"):
            coarse = log_negativity(
                ensemble_cm(config(kind, quad=QuadratureSpec(nodes_1d=32, subdivisions=4)))
            )
            fine = log_negativity(ensemble_cm(config(kind)))
            assert fine == pytest.approx(coarse, abs=1e-9)


class TestEnsembleColumn:
    """A column of squeezings gives, bit for bit, the CMs ensemble_cm gives point by point."""

    @pytest.mark.parametrize("kind", ["direct", "satellite", "swap"])
    @pytest.mark.parametrize("chi", [0.0, 0.02])
    def test_matches_ensemble_cm_at_every_r(self, kind, chi):
        cfgs = [config(kind, r=r, chi=chi) for r in (0.1, 0.8, 1.5, 2.9)]
        cms = ensemble_column(kind, cfgs[0].rules(), [cfg.squeezing for cfg in cfgs], chi)
        # repr of the entries compares the floats bit for bit
        assert [repr(cm.m.tolist()) for cm in cms] == [repr(ensemble_cm(cfg).m.tolist())
                                                       for cfg in cfgs]
