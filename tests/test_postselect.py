"""Post-selection tests.

The per-realization tap moments are validated against a brute-force Wigner
integral in three variables, the channel averaging against Monte Carlo, and
the no-selection limits against the plain ensemble states.
"""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from cvsat import postselect
from cvsat.errors import DomainError, NumericalError
from cvsat.cli import parse_scenario
from cvsat.fading import FadingChannel, LinkGeometry, LinkRule, sample
from cvsat.gaussian import Squeezing, apply_loss, log_negativity
from cvsat.numerics import DEFAULT_QUAD, QuadratureSpec
from cvsat.postselect import (
    ClassicalPsConfig,
    QuantumPsConfig,
    _tap_moments,
    classical_postselect,
    postselect_column,
    quantum_moments_realization,
    quantum_postselect,
)
from cvsat.schemes import SchemeConfig, ensemble_cm

from oracles import (
    classical_selection_sums_tensor,
    fading_cdf,
    mc_ratio,
    quantum_postselect_tensor,
    tap_moments_wigner,
)

GEOM = LinkGeometry(sigma_b=1.0, k1=0.5, k2=0.64)
# 30 dB mean uplink loss, 10 dB downlink, as in scenarios/postselect_highloss.scn
HIGHLOSS = LinkGeometry(sigma_b=22.0, k1=1.0 / 11.0, k2=1.0)
SQ = Squeezing(1.5)
ROOT = Path(__file__).resolve().parents[1]


def direct_cfg(r=1.5, geom=GEOM, beta=0.5, w=1.0, chi=0.0):
    return SchemeConfig(kind="direct", squeezing=Squeezing(r), geometry=geom,
                        beta=beta, w=w, chi=chi)


def links(cfg):
    return cfg.links()


class TestConfigs:
    def test_classical_threshold_validated(self):
        with pytest.raises(DomainError):
            ClassicalPsConfig(zeta_th=-0.1)
        with pytest.raises(DomainError):
            ClassicalPsConfig(zeta_th=math.inf)

    def test_quantum_tap_validated(self):
        with pytest.raises(DomainError):
            QuantumPsConfig(tap_t=0.0, q_th=1.0)
        with pytest.raises(DomainError):
            QuantumPsConfig(tap_t=1.1, q_th=1.0)
        with pytest.raises(DomainError):
            QuantumPsConfig(tap_t=0.9, q_th=math.nan)
        assert QuantumPsConfig(tap_t=0.93, q_th=0.0).tap_r == pytest.approx(0.07)


class TestClassicalPostselect:
    def test_zero_threshold_recovers_plain_ensemble(self):
        # the second link is the high-loss one, whose deep-tail uplink nodes underflow to eta = 0
        high_loss = dataclasses.replace(
            direct_cfg(geom=LinkGeometry(sigma_b=22.0, k1=1.0 / 11.0, k2=1.0), beta=1.0, w=2.0),
            quad=QuadratureSpec(32, 4))
        for cfg in (direct_cfg(), high_loss):
            up, down = links(cfg)
            res = classical_postselect(cfg.squeezing, up, down, ClassicalPsConfig(0.0), cfg.quad)
            np.testing.assert_allclose(res.cm.m, ensemble_cm(cfg).m, atol=1e-9)
            assert res.p_success == pytest.approx(1.0, abs=1e-12)

    def test_threshold_above_support_rejected(self):
        cfg = direct_cfg()
        up, down = links(cfg)
        with pytest.raises(DomainError):
            classical_postselect(cfg.squeezing, up, down,
                                 ClassicalPsConfig(up.eta0 * down.eta0))

    def test_trade_off_is_monotone(self):
        cfg = direct_cfg()
        up, down = links(cfg)
        zeta_max = up.eta0 * down.eta0
        results = [
            classical_postselect(cfg.squeezing, up, down, ClassicalPsConfig(z))
            for z in np.linspace(0.0, 0.8 * zeta_max, 6)
        ]
        p = [r.p_success for r in results]
        e = [r.e_ln for r in results]
        assert all(x > y for x, y in zip(p, p[1:]))
        assert all(x < y for x, y in zip(e, e[1:]))

    def test_success_probability_against_cdf_oracle(self):
        cfg = direct_cfg()
        up, down = links(cfg)
        zeta_th = 0.25
        res = classical_postselect(cfg.squeezing, up, down, ClassicalPsConfig(zeta_th))
        # P(eta * eta' > z) = E_eta[1 - F_down(z / eta)], dense in the deflection domain
        d = np.linspace(0.0, 14.0 * up.sigma_b, 400_000)
        eta = up.eta0 * np.exp(-0.5 * (d / up.l_scale) ** up.lambda_shape)
        pdf_d = (d / up.sigma_b**2) * np.exp(-0.5 * (d / up.sigma_b) ** 2)
        survive = 1.0 - fading_cdf(down, zeta_th / np.maximum(eta, 1e-300))
        want = float(np.trapezoid(survive * pdf_d, d))
        assert res.p_success == pytest.approx(want, abs=1e-7)

    def test_kept_moments_against_monte_carlo(self):
        cfg = direct_cfg()
        up, down = links(cfg)
        zeta_th = 0.2
        res = classical_postselect(cfg.squeezing, up, down, ClassicalPsConfig(zeta_th))
        v = cfg.squeezing.v
        rng = np.random.default_rng(1234)
        zeta = sample(up, rng, 400_000) * sample(down, rng, 400_000)
        keep = (zeta > zeta_th).astype(float)
        b_ratio, b_err = mc_ratio((1.0 + zeta * (v - 1.0)) * keep, keep)
        c_ratio, c_err = mc_ratio(np.sqrt(zeta) * keep, keep)
        assert abs(res.cm.m[2, 2] - b_ratio) < 4.0 * b_err + 1e-12
        assert abs(res.cm.m[0, 2] - c_ratio * math.sqrt(v * v - 1.0)) < (
            4.0 * c_err * math.sqrt(v * v - 1.0) + 1e-12
        )
        p_err = keep.std(ddof=1) / math.sqrt(keep.size)
        assert abs(res.p_success - keep.mean()) < 4.0 * p_err

    def test_point_mass_downlink(self):
        cfg = direct_cfg(geom=LinkGeometry(sigma_b=1.0, k1=0.0, k2=0.64))
        up, down = links(cfg)
        assert down.point_mass
        zeta_th = 0.3
        res = classical_postselect(cfg.squeezing, up, down, ClassicalPsConfig(zeta_th))
        rng = np.random.default_rng(9)
        zeta = sample(up, rng, 400_000) * down.eta0
        keep = (zeta > zeta_th).astype(float)
        v = cfg.squeezing.v
        b_ratio, b_err = mc_ratio((1.0 + zeta * (v - 1.0)) * keep, keep)
        assert abs(res.cm.m[2, 2] - b_ratio) < 4.0 * b_err + 1e-12

    def test_excess_noise_shifts_b_only(self):
        cfg = direct_cfg()
        up, down = links(cfg)
        ps = ClassicalPsConfig(0.2)
        clean = classical_postselect(cfg.squeezing, up, down, ps)
        noisy = classical_postselect(cfg.squeezing, up, down, ps, chi=0.04)
        assert noisy.p_success == clean.p_success
        assert noisy.cm.m[2, 2] == pytest.approx(clean.cm.m[2, 2] + 0.04, abs=1e-12)
        assert noisy.cm.m[0, 2] == pytest.approx(clean.cm.m[0, 2], abs=1e-12)
        with pytest.raises(DomainError):
            classical_postselect(cfg.squeezing, up, down, ps, chi=-0.01)

    def test_numerically_empty_selection(self):
        cfg = direct_cfg()
        up, down = links(cfg)
        with pytest.raises(NumericalError):
            classical_postselect(cfg.squeezing, up, down,
                                 ClassicalPsConfig(up.eta0 * down.eta0 * (1.0 - 1e-15)))

    @pytest.mark.parametrize("chi", [0.0, 0.05])
    @pytest.mark.parametrize("geom,beta,w,quad,thresholds", [
        (GEOM, 0.5, 1.0, DEFAULT_QUAD, (0.0, 0.1, 0.2, 0.3)),
        (HIGHLOSS, 1.0, 2.0, QuadratureSpec(32, 4), (0.0, 0.12, 0.24, 0.36)),
    ], ids=["midloss", "highloss"])
    def test_sweep_sums_each_threshold_once(self, monkeypatch, chi, geom, beta, w, quad,
                                            thresholds):
        # one column in the CLI's (r, threshold) order
        calls = []

        def counted(*args):
            calls.append(args)
            return selection_sums(*args)

        selection_sums = postselect._selection_sums
        monkeypatch.setattr(postselect, "_selection_sums", counted)
        r_grid = (1.5, 1.75, 2.0)
        cfg = dataclasses.replace(direct_cfg(geom=geom, beta=beta, w=w, chi=chi), quad=quad)
        up, down = links(cfg)
        column = postselect_column([Squeezing(r) for r in r_grid], LinkRule(up, quad), LinkRule(down, quad),
                                   [ClassicalPsConfig(zeta_th) for zeta_th in thresholds], chi)
        for r, row in zip(r_grid, column):
            for zeta_th, res in zip(thresholds, row):
                v = Squeezing(r).v
                # the 2D form: each uplink node with its own cut downlink table
                p_s, s_zeta, s_root = classical_selection_sums_tensor(up, down, quad, zeta_th)
                c = s_root / p_s * math.sqrt(v * v - 1.0)
                b = 1.0 + (v - 1.0) * s_zeta / p_s + chi
                want = np.array([[v, 0, c, 0], [0, v, 0, -c], [c, 0, b, 0], [0, -c, 0, b]])
                assert res.p_success == pytest.approx(p_s, rel=1e-14, abs=0)
                np.testing.assert_allclose(res.cm.m, want, rtol=1e-14, atol=0)
        # one 1D sum per threshold, shared by every r
        assert len(calls) == len(thresholds)


def perfbench_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def classical_scenarios(monkeypatch, tmp_path, seed):
    """The two classical post-selection scenarios, shipped (seed None) or perfbench's at a seed."""
    if seed is None:
        paths = sorted((ROOT / "scenarios").glob("postselect_*.scn"))
    else:
        invocations = perfbench_workloads(monkeypatch).generate("postselect", seed, tmp_path)
        paths = [inv.scenario for inv in invocations]
    scenarios = [parse_scenario(path) for path in paths]
    scenarios = [scn for scn in scenarios if isinstance(scn.postselect[0], ClassicalPsConfig)]
    assert len(scenarios) == 2
    return scenarios


class TestSelectionSums:
    """The 1D sums against the 2D form, which pairs each uplink node with its own cut downlink table."""

    @staticmethod
    def assert_matches_tensor(up, down, quad, thresholds):
        rules = LinkRule(up, quad), LinkRule(down, quad)
        for zeta_th in thresholds:
            np.testing.assert_allclose(postselect._selection_sums(*rules, zeta_th),
                                       classical_selection_sums_tensor(up, down, quad, zeta_th),
                                       rtol=1e-13, atol=0)

    @pytest.mark.parametrize("seed", [None, 0, 5], ids=["shipped", "perfbench-seed0", "perfbench-seed5"])
    def test_scenario_links(self, monkeypatch, tmp_path, seed):
        for scn in classical_scenarios(monkeypatch, tmp_path, seed):
            for sigma_b in scn.sigma_b_grid:
                up, down = direct_cfg(geom=LinkGeometry(sigma_b, scn.k1, scn.k2), beta=scn.beta,
                                      w=scn.w).links()
                self.assert_matches_tensor(up, down, scn.quad, [ps.zeta_th for ps in scn.postselect])

    # Each classical scenario's rule, its fine reference rule and the relative tolerance.
    # On equal panels the outer rule's kink at the cut left 64x8 3.0e-11 and 32x4 1.9e-12
    # off; graded toward the cut they read 3.6e-15 and 5.8e-14, and 32x4 reads 1.1e-13 at
    # zeta_th = 0, where the sums are products of the uncut tables' moments.
    REFERENCES = {QuadratureSpec(64, 8): (QuadratureSpec(64, 256), 1e-13),
                  QuadratureSpec(32, 4): (QuadratureSpec(64, 16), 2e-13)}

    @pytest.mark.parametrize("seed", [None, 0, 5], ids=["shipped", "perfbench-seed0", "perfbench-seed5"])
    def test_scenario_sums_match_a_fine_graded_rule(self, monkeypatch, tmp_path, seed):
        for scn in classical_scenarios(monkeypatch, tmp_path, seed):
            fine, rtol = self.REFERENCES[scn.quad]
            for sigma_b in scn.sigma_b_grid:
                up, down = direct_cfg(geom=LinkGeometry(sigma_b, scn.k1, scn.k2), beta=scn.beta,
                                      w=scn.w).links()
                rules, fine_rules = ((LinkRule(up, quad), LinkRule(down, quad)) for quad in (scn.quad, fine))
                for ps in scn.postselect:
                    np.testing.assert_allclose(postselect._selection_sums(*rules, ps.zeta_th),
                                               postselect._selection_sums(*fine_rules, ps.zeta_th),
                                               rtol=rtol, atol=0)

    @pytest.mark.parametrize("sigma_up,sigma_down,beta_over_w", [
        (0.0, 0.5, 0.5), (1.0, 0.0, 0.5), (0.0, 0.0, 0.5), (1.0, 0.32, 0.2), (1.0, 0.32, 2.0),
    ], ids=["point-uplink", "point-downlink", "point-both", "beta-w-0.2", "beta-w-2"])
    def test_point_masses_and_beta_over_w(self, sigma_up, sigma_down, beta_over_w):
        up, down = (FadingChannel(sigma, 1.0, 1.0 / beta_over_w) for sigma in (sigma_up, sigma_down))
        self.assert_matches_tensor(up, down, DEFAULT_QUAD, [
            frac * up.eta0 * down.eta0 for frac in (0.0, 0.3, 0.6, 0.9, 0.99)])

    def test_oracle_refuses_an_under_resolved_row(self):
        # a point-mass uplink leaves one row, whose downlink rule at sigma_b = 0.1
        # ends on the uncut edges: 8x1 misses its Rayleigh mass, 16x2 holds it
        up, down = FadingChannel(0.0, 1.0, 1.0), FadingChannel(0.1, 1.0, 1.0)
        with pytest.raises(NumericalError, match="weights miss by 7.29e-03"):
            classical_selection_sums_tensor(up, down, QuadratureSpec(8, 1), 0.01)
        assert np.isfinite(classical_selection_sums_tensor(up, down, QuadratureSpec(16, 2), 0.01)).all()

    def test_zero_threshold_is_the_product_of_the_link_moments(self):
        # the high-loss uplink's deep-tail nodes underflow to eta = 0
        up, down = (LinkRule(ch, QuadratureSpec(32, 4))
                    for ch in links(direct_cfg(geom=HIGHLOSS, beta=1.0, w=2.0)))
        (_, w_up), (_, w_down) = up.table, down.table
        (m_up, root_up), (m_down, root_down) = up.moments, down.moments
        assert postselect._selection_sums(up, down, 0.0) == (
            float(w_up.sum() * w_down.sum()), m_up * m_down, root_up * root_down)


class TestTapMomentsRealization:
    @pytest.mark.parametrize("v_r,zeta,tap_t,q_th", [
        (1.0, 0.7, 0.93, 0.5),
        (1.5, 0.3, 0.93, 1.5),
        (0.5, 0.9, 0.8, -1.0),
        (1.5, 0.05, 0.99, 2.0),
    ])
    def test_against_wigner_integral(self, v_r, zeta, tap_t, q_th):
        sq = Squeezing(v_r)
        got = quantum_moments_realization(sq, zeta, 1.0, QuantumPsConfig(tap_t, q_th))
        want = tap_moments_wigner(sq.v, zeta, tap_t, q_th, nodes=240)
        for name in ("q_a", "q_b", "q_a_sq", "q_b_sq", "q_ab", "p_select"):
            assert getattr(got, name) == pytest.approx(want[name], abs=1e-10), name

    def test_wigner_agreement_with_excess_noise(self):
        sq = Squeezing(1.2)
        cfg = QuantumPsConfig(tap_t=0.9, q_th=1.0)
        got = quantum_moments_realization(sq, 0.6, 0.8, cfg, chi=0.05)
        want = tap_moments_wigner(sq.v, 0.48, 0.9, 1.0, chi=0.05, nodes=240)
        for name in ("q_a", "q_b", "q_a_sq", "q_b_sq", "q_ab", "p_select"):
            assert getattr(got, name) == pytest.approx(want[name], abs=1e-10), name

    def test_select_probability_closed_form(self):
        sq = Squeezing(1.5)
        cfg = QuantumPsConfig(tap_t=0.93, q_th=0.8)
        got = quantum_moments_realization(sq, 0.5, 0.9, cfg)
        b_q = 1.0 + 0.45 * (sq.v - 1.0)
        v_t = cfg.tap_r * b_q + cfg.tap_t
        want = 0.5 * special.erfc(0.8 / math.sqrt(2.0 * v_t))
        assert got.p_select == pytest.approx(want, rel=1e-13)

    def test_zero_threshold_selects_half(self):
        got = quantum_moments_realization(SQ, 0.4, 0.7, QuantumPsConfig(0.93, 0.0))
        assert got.p_select == pytest.approx(0.5, abs=1e-15)

    def test_variance_product_identity(self):
        # R*T*(b-1)^2 + b == (T*b + R) * (R*b + T); the simplification used
        # for the second selection-weighted moment of q_B'
        for b in (1.0, 1.7, 4.2):
            for t in (0.5, 0.93, 1.0):
                r = 1.0 - t
                assert r * t * (b - 1.0) ** 2 + b == pytest.approx(
                    (t * b + r) * (r * b + t), rel=1e-14
                )

    def test_no_selection_limit_is_tapped_state(self):
        sq = Squeezing(1.0)
        eta, eta_prime, tap_t = 0.7, 0.8, 0.9
        mom = quantum_moments_realization(sq, eta, eta_prime,
                                          QuantumPsConfig(tap_t, -40.0))
        p = mom.p_select
        assert p == pytest.approx(1.0, abs=1e-12)
        mean_a, mean_b = mom.q_a / p, mom.q_b / p
        a_q = mom.q_a_sq / p - mean_a**2
        b_q = mom.q_b_sq / p - mean_b**2
        c_q = mom.q_ab / p - mean_a * mean_b
        from cvsat.schemes import direct_realization

        want = apply_loss(direct_realization(sq, eta, eta_prime), 1.0, tap_t).m
        assert a_q == pytest.approx(want[0, 0], abs=1e-10)
        assert b_q == pytest.approx(want[2, 2], abs=1e-10)
        assert c_q == pytest.approx(want[0, 2], abs=1e-10)

    def test_rejects_out_of_range_transmittance(self):
        with pytest.raises(DomainError):
            quantum_moments_realization(SQ, 1.3, 0.5, QuantumPsConfig(0.9, 0.0))

    def test_selection_erfc_matches_scipy(self):
        # erfc comes from the standard library; scipy's stays the reference.
        # They differ by up to 10 ulps of erfc near x = 0.9, where scipy forms
        # 1 - erf(x), but never by more than 2 ulps of 1.
        zeta = np.linspace(0.0, 1.0, 101)
        for v, tap_t, chi in ((math.cosh(1.0), 0.5, 0.0), (math.cosh(3.0), 0.93, 0.1),
                              (math.cosh(4.0), 0.99, 0.0)):
            for q_th in np.linspace(-2.0, 6.0, 33):
                p_sel = _tap_moments(v, zeta, tap_t, q_th, chi)[5]
                v_t = (1.0 - tap_t) * (1.0 + zeta * (v - 1.0) + chi) + tap_t
                want = special.erfc(q_th / np.sqrt(2.0 * v_t))
                assert np.abs(2.0 * p_sel - want).max() <= 2.0 * np.spacing(1.0)


class TestQuantumPostselect:
    def test_no_selection_limit_is_tapped_ensemble(self):
        cfg = direct_cfg()
        up, down = links(cfg)
        res = quantum_postselect(cfg.squeezing, up, down, QuantumPsConfig(0.93, -40.0))
        want = apply_loss(ensemble_cm(cfg), 1.0, 0.93)
        np.testing.assert_allclose(res.cm.m, want.m, atol=1e-9)
        assert res.p_success == pytest.approx(1.0, abs=1e-12)

    def test_unit_tap_measures_vacuum_only(self):
        cfg = direct_cfg()
        up, down = links(cfg)
        res = quantum_postselect(cfg.squeezing, up, down, QuantumPsConfig(1.0, 0.7))
        np.testing.assert_allclose(res.cm.m, ensemble_cm(cfg).m, atol=1e-10)
        assert res.p_success == pytest.approx(0.5 * special.erfc(0.7 / math.sqrt(2.0)),
                                              rel=1e-12)

    def test_trade_off_is_monotone(self):
        # this channel is lossy enough that e_ln stays clamped at zero until
        # the cut is a few vacuum units wide, so probe the active region
        cfg = direct_cfg()
        up, down = links(cfg)
        results = [
            quantum_postselect(cfg.squeezing, up, down, QuantumPsConfig(0.93, q))
            for q in np.linspace(0.0, 4.5, 7)
        ]
        p = [r.p_success for r in results]
        assert all(x > y for x, y in zip(p, p[1:]))
        e = [r.e_ln for r in results if r.e_ln > 0.0]
        assert len(e) >= 3
        assert all(x < y for x, y in zip(e, e[1:]))

    def test_half_selection_at_zero_threshold(self):
        cfg = direct_cfg()
        up, down = links(cfg)
        res = quantum_postselect(cfg.squeezing, up, down, QuantumPsConfig(0.93, 0.0))
        assert res.p_success == pytest.approx(0.5, abs=1e-12)

    def test_weighted_sums_against_monte_carlo(self):
        cfg = direct_cfg()
        up, down = links(cfg)
        ps = QuantumPsConfig(tap_t=0.93, q_th=1.2)
        res = quantum_postselect(cfg.squeezing, up, down, ps)
        rng = np.random.default_rng(4321)
        n = 300_000
        zeta = sample(up, rng, n) * sample(down, rng, n)
        q_a, q_b, q_a_sq, q_b_sq, q_ab, p_sel, _, _ = _tap_moments(
            cfg.squeezing.v, zeta, ps.tap_t, ps.q_th, 0.0
        )
        p_err = p_sel.std(ddof=1) / math.sqrt(n)
        assert abs(res.p_success - p_sel.mean()) < 4.0 * p_err
        # central moments of the kept ensemble via ratio estimators; the mean
        # products are tiny and their MC error is second order
        mean_a = q_a.mean() / p_sel.mean()
        mean_b = q_b.mean() / p_sel.mean()
        for got, num, shift in (
            (res.cm.m[0, 0], q_a_sq, mean_a * mean_a),
            (res.cm.m[2, 2], q_b_sq, mean_b * mean_b),
            (res.cm.m[0, 2], q_ab, mean_a * mean_b),
        ):
            ratio, err = mc_ratio(num, p_sel)
            assert abs(got - (ratio - shift)) < 4.0 * err + 1e-9

    # The production path sums _tap_moments on a Gauss rule in sqrt(eta) per
    # link; the oracle sums it over every node pair of the transmittance tables.
    # Negative q_th puts most of the tap distribution above the threshold.
    @pytest.mark.parametrize("q_th", [-2.0, 0.0, 2.0, 4.0])
    @pytest.mark.parametrize("chi", [0.0, 0.05])
    @pytest.mark.parametrize("cfg,quad,tap_t", [
        (direct_cfg(), DEFAULT_QUAD, 0.93),
        (direct_cfg(geom=HIGHLOSS, beta=1.0, w=2.0), QuadratureSpec(32, 4), 0.93),
        # a small tap_t on wide links, where a 32-node root rule misses by 7.7e-13
        (direct_cfg(r=2.75, geom=LinkGeometry(18.34, 0.799, 0.504), beta=1.0, w=1.0 / 1.975),
         DEFAULT_QUAD, 0.23),
        # a downlink with almost no wander (sigma_b 1.6e-5), as the regime fuzz draws it
        (direct_cfg(geom=LinkGeometry(1.0, 1.0 / 64.0, 1e-3), beta=1.0, w=0.5),
         QuadratureSpec(16, 2), 0.93),
        # a point-mass downlink
        (direct_cfg(geom=LinkGeometry(1.0, 0.0, 0.64)), DEFAULT_QUAD, 0.93),
    ], ids=["midloss", "highloss", "small_tap", "near_point_mass", "point_mass"])
    def test_matches_tensor_sum_of_tap_moments(self, cfg, quad, tap_t, q_th, chi):
        up, down = links(cfg)
        p_s, want = quantum_postselect_tensor(cfg.squeezing.v, up, down, quad, tap_t, q_th, chi)
        res = quantum_postselect(cfg.squeezing, up, down, QuantumPsConfig(tap_t, q_th), quad, chi)
        assert res.p_success == pytest.approx(p_s, rel=1e-13, abs=0)
        np.testing.assert_allclose(res.cm.m, want, rtol=1e-13, atol=0)

    def test_empty_selection_raises(self):
        cfg = direct_cfg()
        up, down = links(cfg)
        with pytest.raises(NumericalError):
            quantum_postselect(cfg.squeezing, up, down, QuantumPsConfig(0.93, 60.0))

    def test_negative_chi_rejected(self):
        cfg = direct_cfg()
        up, down = links(cfg)
        with pytest.raises(DomainError):
            quantum_postselect(cfg.squeezing, up, down, QuantumPsConfig(0.93, 0.0),
                               chi=-0.02)


class TestPostselectColumn:
    """A column of r x thresholds gives, bit for bit, the per-point results."""

    @pytest.mark.parametrize("select, selections", [
        (classical_postselect, [ClassicalPsConfig(zeta_th=z) for z in (0.0, 0.05, 0.15)]),
        (quantum_postselect, [QuantumPsConfig(tap_t=0.93, q_th=q) for q in (0.0, 1.5, 3.0)]),
    ], ids=["classical", "quantum"])
    def test_matches_per_point_functions(self, select, selections):
        r_grid = (0.5, 1.5, 2.5)
        ch_up, ch_down = links(direct_cfg())
        quad = QuadratureSpec(32, 4)
        column = postselect_column([Squeezing(r) for r in r_grid], LinkRule(ch_up, quad),
                                   LinkRule(ch_down, quad), selections, chi=0.01)
        assert len(column) == len(r_grid)
        for r, row in zip(r_grid, column):
            assert len(row) == len(selections)
            for ps, res in zip(selections, row):
                want = select(Squeezing(r), ch_up, ch_down, ps, quad, chi=0.01)
                # repr compares the floats bit for bit
                assert (repr((res.cm.m.tolist(), res.p_success, res.e_ln))
                        == repr((want.cm.m.tolist(), want.p_success, want.e_ln)))
