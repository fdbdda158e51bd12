"""Regime fuzzing: random inputs beyond the shipped scenario grids.

Every scheme, both post-selections and the effective ordering report run over
sigma_b <= 30, beta/w in [0.2, 2], r <= 3, chi <= 0.1, classical thresholds
below zeta_max and q_th <= 6.  Each call must either return a physical CM with
finite E_LN (and finite effective fields) or raise a typed CvsatError; any
other exception fails the test, and pytest turns RuntimeWarning into an error,
so a silent overflow fails too.  A coarse 16x2 rule keeps each example cheap.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsat.effective import ordering_check, try_effective
from cvsat.errors import CvsatError
from cvsat.fading import LinkGeometry, LinkRule
from cvsat.gaussian import OMEGA, TOL_PHYS, Squeezing, TwoModeCM, log_negativity
from cvsat.numerics import QuadratureSpec
from cvsat.postselect import (
    P_SUCCESS_FLOOR,
    ClassicalPsConfig,
    QuantumPsConfig,
    classical_postselect,
    _selection_sums,
    quantum_postselect,
)
from cvsat.schemes import KINDS, SchemeConfig, ensemble_cm

from oracles import classical_selection_sums_tensor, swap_ensemble_tensor

QUAD = QuadratureSpec(nodes_1d=16, subdivisions=2)
BETA = 1.0
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def wander(hi):
    """0 (a point-mass link) or a wander well above the sigma_b floor."""
    return st.one_of(st.just(0.0), st.floats(1e-3, hi))


def configs(kinds=KINDS):
    return st.builds(
        lambda kind, sigma_b, beta_over_w, k1, k2, r, chi: SchemeConfig(
            kind=kind, squeezing=Squeezing(r), geometry=LinkGeometry(sigma_b, k1, k2),
            beta=BETA, w=BETA / beta_over_w, chi=chi, quad=QUAD),
        kind=st.sampled_from(kinds), sigma_b=wander(30.0),
        beta_over_w=st.floats(0.2, 2.0), k1=wander(1.0), k2=wander(1.0),
        r=st.floats(0.0, 3.0), chi=st.floats(0.0, 0.1),
    )


def physical_or_typed(build):
    """build() returns a CM; it must be physical with finite E_LN and effective fields."""
    try:
        cm = build()
        e_ln = log_negativity(cm)
        eff = try_effective(cm)
    except CvsatError:
        return
    assert isinstance(cm, TwoModeCM)
    assert np.linalg.eigvalsh(cm.m + 1j * OMEGA).min() >= -TOL_PHYS
    assert math.isfinite(e_ln) and e_ln >= 0.0
    if eff is not None:
        assert all(math.isfinite(x) for x in (eff.r_e, eff.eta_a, eff.eta_b))


@FUZZ
@given(cfg=configs())
def test_scheme_ensembles(cfg):
    physical_or_typed(lambda: ensemble_cm(cfg))


@FUZZ
@given(cfg=configs(("swap",)))
def test_swap_ensemble_matches_the_full_table_sum(cfg):
    try:
        got = ensemble_cm(cfg).m
    except CvsatError:
        return
    want, = swap_ensemble_tensor(*cfg.links(), QUAD, [cfg.squeezing.v], cfg.chi)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


@FUZZ
@given(cfg=configs(("direct",)), frac=st.floats(0.0, 0.999))
def test_classical_postselect(cfg, frac):
    def build():
        ch_up, ch_down = cfg.links()
        ps = ClassicalPsConfig(frac * ch_up.eta0 * ch_down.eta0)
        return classical_postselect(cfg.squeezing, ch_up, ch_down, ps, QUAD, cfg.chi).cm
    physical_or_typed(build)


@FUZZ
@given(cfg=configs(("direct",)), frac=st.floats(0.0, 0.999))
def test_classical_selection_sums_match_the_2d_form(cfg, frac):
    # 32x4, where the 2D form's per-node cut tables are resolved: at 16x2 they
    # miss the exact inner integral by up to 8e-11
    quad = QuadratureSpec(nodes_1d=32, subdivisions=4)
    up, down = cfg.links()
    zeta_th = frac * up.eta0 * down.eta0
    try:
        want = classical_selection_sums_tensor(up, down, quad, zeta_th)
    except CvsatError:
        return
    if want[0] < P_SUCCESS_FLOOR:
        return
    got = _selection_sums(LinkRule(up, quad), LinkRule(down, quad), zeta_th)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@FUZZ
@given(cfg=configs(("direct",)), tap_t=st.floats(0.5, 0.99), q_th=st.floats(0.0, 6.0))
def test_quantum_postselect(cfg, tap_t, q_th):
    ps = QuantumPsConfig(tap_t=tap_t, q_th=q_th)
    physical_or_typed(lambda: quantum_postselect(cfg.squeezing, *cfg.links(), ps, QUAD, cfg.chi).cm)


@FUZZ
@given(cfg=configs(("swap",)))
def test_ordering_check(cfg):
    try:
        report = ordering_check(cfg.geometry, cfg.squeezing, cfg.beta, cfg.w, QUAD)
    except CvsatError:
        return
    for kind in KINDS:
        fields = report[kind]
        assert all(math.isfinite(fields[key]) for key in ("eta_a", "eta_b", "eta_product"))
        # the swap r_e is NaN when the fading average of cosh(2 r'') falls below 1
        assert math.isfinite(fields["r_e"]) or (kind == "swap" and math.isnan(fields["r_e"]))
    assert math.isfinite(report["swap_cosh_avg"])
    assert -1e-12 <= report["swap_separable_mass"] <= 1.0 + 1e-9
