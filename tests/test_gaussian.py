import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsat.cli import _links, parse_scenario
from cvsat.errors import DomainError
from cvsat.fading import LinkGeometry
from cvsat.gaussian import (
    MAX_SQUEEZING,
    OMEGA,
    Squeezing,
    StandardFormCM,
    TwoModeCM,
    add_excess_noise,
    apply_loss,
    is_entangled,
    log_negativity,
    standard_form,
    symplectic_spectrum_pt,
    tmsv_cm,
)
from cvsat.numerics import QuadratureSpec
from cvsat.postselect import QuantumPsConfig, postselect_column, quantum_postselect
from cvsat.schemes import SchemeConfig, ensemble_column, scheme_links, swap_conditional
from oracles import (
    log_negativity_decimal,
    pt_spectrum_bruteforce,
    random_general_input,
    symplectic_eigenvalues,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def vacuum_cm() -> TwoModeCM:
    return TwoModeCM(np.eye(4))


class TestSqueezing:
    def test_v_is_cosh_2r(self):
        assert Squeezing(0.75).v == pytest.approx(math.cosh(1.5), abs=1e-15)

    def test_rejects_negative_and_non_finite(self):
        with pytest.raises(DomainError):
            Squeezing(-0.1)
        with pytest.raises(DomainError):
            Squeezing(float("nan"))

    def test_bounded_below_the_physicality_noise(self):
        # from r = 4.19 on the physicality verdict on a pure TMSV is rounding noise
        assert MAX_SQUEEZING == 4.0
        tmsv_cm(Squeezing(MAX_SQUEEZING))
        for r in (math.nextafter(4.0, math.inf), 4.2, 400.0, math.inf):
            with pytest.raises(DomainError, match=r"\[0, 4\]"):
                Squeezing(r)


class TestTwoModeCM:
    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            TwoModeCM(np.eye(3))

    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(DomainError):
            TwoModeCM(m)

    def test_rejects_sub_vacuum(self):
        with pytest.raises(DomainError):
            TwoModeCM(0.5 * np.eye(4))

    def test_rejects_indefinite_matrix_with_unit_magnitude_spectrum(self):
        # |eig(i*Omega*M)| >= 1 alone would accept this: the q block has a
        # negative eigenvalue, so it is not a covariance matrix at all.
        m = np.diag([3.45, 3.45, 1.176, 1.176]).astype(float)
        m[0, 2] = m[2, 0] = -3.499
        m[1, 3] = m[3, 1] = 0.112
        assert symplectic_eigenvalues(m)[0] > 1.0
        with pytest.raises(DomainError):
            TwoModeCM(m)

    @pytest.mark.parametrize("delta, accepted", [(5e-10, True), (2e-9, False)])
    def test_uncertainty_bound_slack_is_tol_phys(self, delta, accepted):
        # (1 - delta) I has nu = 1 - delta: inside the 1e-9 slack, or outside it
        if accepted:
            TwoModeCM((1.0 - delta) * np.eye(4))
        else:
            with pytest.raises(DomainError, match="unphysical"):
                TwoModeCM((1.0 - delta) * np.eye(4))

    def test_qp_entries_within_tolerance_are_stored_as_zeros(self):
        m = np.eye(4) * 2.0
        m[1, 2] = m[2, 1] = 1e-12
        m[0, 3] = m[3, 0] = -1e-12
        cm = TwoModeCM(m)
        assert cm.m[1, 2] == cm.m[2, 1] == cm.m[0, 3] == cm.m[3, 0] == 0.0

    def test_matrix_is_read_only(self):
        cm = vacuum_cm()
        with pytest.raises(ValueError):
            cm.m[0, 0] = 2.0


class TestStandardForm:
    def test_round_trip(self):
        sf = StandardFormCM(a=2.0, b=1.5, c_plus=0.9, c_minus=-0.8)
        back = standard_form(sf.to_cm())
        got = (back.a, back.b, back.c_plus, back.c_minus)
        assert got == pytest.approx((sf.a, sf.b, sf.c_plus, sf.c_minus))

    def test_rejects_qp_correlations(self):
        # standard_form needs no q-p check of its own: TwoModeCM refuses them
        m = np.eye(4) * 2.0
        m[0, 1] = m[1, 0] = 0.3
        with pytest.raises(DomainError, match="q-p correlations"):
            TwoModeCM(m)

    def test_record_is_checked_at_to_cm(self):
        # the record holds any four numbers; building the CM is the physicality check
        sf = StandardFormCM(a=1.0, b=1.0, c_plus=2.0, c_minus=-2.0)
        with pytest.raises(DomainError, match="unphysical"):
            sf.to_cm()

    def test_rejects_unequal_diagonal(self):
        m = np.diag([2.0, 1.5, 2.0, 2.0])
        with pytest.raises(DomainError):
            standard_form(TwoModeCM(m))


class TestSymplectic:
    def test_form_blocks(self):
        omega = OMEGA
        assert np.allclose(omega, -omega.T)
        assert np.allclose(omega @ omega, -np.eye(4))

    def test_vacuum_spectrum(self):
        assert symplectic_eigenvalues(np.eye(4)) == pytest.approx([1.0, 1.0])

    def test_tmsv_spectrum_is_unity(self):
        # Pure state: every symplectic eigenvalue equals 1.
        nus = symplectic_eigenvalues(tmsv_cm(Squeezing(1.3)).m)
        assert nus == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_pt_spectrum_matches_bruteforce_on_random_states(self):
        rng = np.random.default_rng(42)
        cms = [add_excess_noise(
            apply_loss(tmsv_cm(Squeezing(rng.uniform(0.05, 2.0))),
                       rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)),
            rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4),
        ) for _ in range(50)]
        cms += [swap_conditional(random_general_input(rng)) for _ in range(20)]
        # quantum distilled CMs: q and p blocks differ (a_q != a_p)
        quad = QuadratureSpec(16, 2)
        for r, q_th in ((0.3, 0.0), (1.0, 1.5), (2.0, 3.0)):
            cfg = SchemeConfig(kind="direct", squeezing=Squeezing(r),
                               geometry=LinkGeometry(sigma_b=1.0, k1=0.5, k2=0.64),
                               beta=0.5, w=1.0, quad=quad)
            cms.append(quantum_postselect(cfg.squeezing, *cfg.links(), QuantumPsConfig(0.93, q_th),
                                          quad).cm)
        # coincident roots, and a near-pure state
        cms += [vacuum_cm(), StandardFormCM(2.5, 2.5, 0.0, 0.0).to_cm(), tmsv_cm(Squeezing(3.0))]
        for cm in cms:
            lo, hi = symplectic_spectrum_pt(cm)
            lo_ref, hi_ref = pt_spectrum_bruteforce(cm)
            assert lo == pytest.approx(lo_ref, abs=1e-10)
            assert hi == pytest.approx(hi_ref, abs=1e-10)


class TestLogNegativity:
    def test_tmsv_analytic(self):
        # E_LN of a pure two-mode squeezed state is 2r/ln 2.
        for r in (0.1, 0.5, 1.0, 1.5, 2.0):
            expected = 2.0 * r / math.log(2.0)
            assert log_negativity(tmsv_cm(Squeezing(r))) == pytest.approx(expected, abs=1e-10)

    def test_vacuum_is_separable(self):
        assert log_negativity(vacuum_cm()) == 0.0
        assert not is_entangled(vacuum_cm())

    def test_clamped_at_zero_for_separable(self):
        cm = apply_loss(tmsv_cm(Squeezing(0.4)), 0.0, 1.0)
        assert log_negativity(cm) == 0.0


class TestLogNegativityDigits:
    """log_negativity against the 60-digit decimal E_LN of the very same float CMs."""

    @pytest.mark.parametrize("name", ["lowloss_bw0.4", "lowloss_bw0.5", "lowloss_bw1.0"])
    def test_every_entangled_survey_row(self, name):
        scenario = parse_scenario(SCENARIOS / f"{name}.scn")
        refs = []
        for kind in scenario.schemes:
            for sigma_b in scenario.sigma_b_grid:
                rules = scheme_links(kind, _links(scenario, sigma_b))
                for alpha, beta, c in zip(*ensemble_column(kind, rules, scenario.r_grid, scenario.chi)):
                    cm = StandardFormCM(a=1.0 + alpha, b=1.0 + beta, c_plus=c, c_minus=-c).to_cm()
                    ref = log_negativity_decimal(cm)
                    if ref > 0.0:
                        assert log_negativity(cm) == pytest.approx(ref, rel=1e-12, abs=0)
                        refs.append(ref)
        # weakly entangled swap rows (E_LN below 0.01, nu_minus near 1) are included
        assert len(refs) > 400 and min(refs) < 1e-2

    @pytest.mark.parametrize("name", ["postselect_highloss", "postselect_midloss_classical",
                                      "postselect_midloss_quantum"])
    def test_every_distilled_cm(self, name):
        scenario = parse_scenario(SCENARIOS / f"{name}.scn")
        checked = 0
        for sigma_b in scenario.sigma_b_grid:
            rules = scheme_links("direct", _links(scenario, sigma_b))
            for _, q, p in postselect_column(scenario.r_grid, *rules, scenario.postselect, scenario.chi):
                # every row's CM, as classical_postselect and quantum_postselect build it from its blocks
                cms = [TwoModeCM(np.array([[1.0 + qa, 0.0, qc, 0.0], [0.0, 1.0 + pa, 0.0, pc],
                                           [qc, 0.0, 1.0 + qb, 0.0], [0.0, pc, 0.0, 1.0 + pb]]))
                       for qa, qb, qc, pa, pb, pc in zip(*q, *p)]
                for cm in cms:
                    ref = log_negativity_decimal(cm)
                    if ref > 0.0:
                        assert log_negativity(cm) == pytest.approx(ref, rel=1e-13, abs=0)
                        checked += 1
        assert checked >= 10


class TestApplyLoss:
    def test_identity_at_unit_transmittance(self):
        cm = tmsv_cm(Squeezing(0.9))
        assert np.allclose(apply_loss(cm, 1.0, 1.0).m, cm.m, atol=1e-14)

    def test_full_loss_gives_vacuum(self):
        cm = apply_loss(tmsv_cm(Squeezing(0.9)), 0.0, 0.0)
        assert np.allclose(cm.m, np.eye(4), atol=1e-14)

    def test_composition(self):
        cm = tmsv_cm(Squeezing(0.7))
        once = apply_loss(cm, 0.6 * 0.5, 0.9)
        twice = apply_loss(apply_loss(cm, 0.6, 0.9), 0.5, 1.0)
        assert np.allclose(once.m, twice.m, atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            apply_loss(vacuum_cm(), 1.2, 0.5)
        with pytest.raises(DomainError):
            apply_loss(vacuum_cm(), 0.5, -0.01)

    def test_loss_on_one_mode_only_touches_its_blocks(self):
        cm = tmsv_cm(Squeezing(0.8))
        out = apply_loss(cm, 1.0, 0.25)
        assert np.allclose(out.m[:2, :2], cm.m[:2, :2], atol=1e-14)
        assert np.allclose(out.m[2:, 2:], 0.25 * cm.m[2:, 2:] + 0.75 * np.eye(2), atol=1e-14)
        assert np.allclose(out.m[:2, 2:], 0.5 * cm.m[:2, 2:], atol=1e-14)


class TestExcessNoise:
    def test_adds_to_diagonal_blocks(self):
        cm = tmsv_cm(Squeezing(0.8))
        out = add_excess_noise(cm, 0.02, 0.05)
        assert np.allclose(out.m[:2, :2], cm.m[:2, :2] + 0.02 * np.eye(2), atol=1e-14)
        assert np.allclose(out.m[2:, 2:], cm.m[2:, 2:] + 0.05 * np.eye(2), atol=1e-14)
        assert np.allclose(out.m[:2, 2:], cm.m[:2, 2:], atol=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            add_excess_noise(vacuum_cm(), -0.01, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(0.01, 2.0),
    eta_a=st.floats(0.0, 1.0),
    eta_b=st.floats(0.0, 1.0),
    chi=st.floats(0.0, 0.5),
)
def test_loss_and_noise_preserve_physicality_and_never_raise_entanglement(r, eta_a, eta_b, chi):
    pure = tmsv_cm(Squeezing(r))
    degraded = add_excess_noise(apply_loss(pure, eta_a, eta_b), chi, chi)
    lo, hi = symplectic_spectrum_pt(degraded)
    lo_ref, hi_ref = pt_spectrum_bruteforce(degraded)
    assert lo == pytest.approx(lo_ref, abs=1e-9)
    assert hi == pytest.approx(hi_ref, abs=1e-9)
    assert log_negativity(degraded) <= log_negativity(pure) + 1e-12
