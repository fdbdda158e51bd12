"""Acceptance suite: one criterion per test, one printed verdict line each.

Criteria A1-A9 are the package's release gates.  Each test computes the
quantities it needs from scratch (no state shared between criteria), pins the
tolerances in place, and records a [PASS]/[FAIL] line that the conftest hook
echoes in the terminal summary.
"""

import math
import time

import numpy as np

from acceptance_log import LINES
from cvsat.effective import ordering_check, try_effective
from cvsat.fading import FadingChannel, LinkGeometry, expand_links, loss_db, sample
from cvsat.gaussian import Squeezing, apply_loss, log_negativity, tmsv_cm
from cvsat.numerics import DEFAULT_QUAD, QuadratureSpec
from cvsat.postselect import (
    ClassicalPsConfig,
    QuantumPsConfig,
    _tap_moments,
    classical_postselect,
    quantum_postselect,
)
from cvsat.schemes import (
    SchemeConfig,
    ensemble_cm,
    general_optimal_gains,
    swap_conditional,
    swap_ensemble_cm,
    swap_realization,
)
from oracles import random_standard_input, tap_moments_wigner

R_SET = (0.1, 0.5, 1.0, 1.5, 2.0)

# Survey grids: beam wander and squeezing ranges shared by the three low-loss
# geometries (beta/W = 1, 0.5, 0.4), all with k1 = 0.5, k2 = 0.64.
SIGMAS = np.linspace(0.1, 1.5, 15)
RS = np.linspace(0.1, 2.0, 15)
SURVEY_WS = (1.0, 2.0, 2.5)
SURVEY_GEOM = dict(k1=0.5, k2=0.64)

# Mid-loss channel (6.4 dB up / 4.4 dB down) used by the post-selection tests.
MID_SIGMA, MID_W = 1.0, 2.0
# High-loss channel (30 dB up / 10 dB down): downlink wander is 2 beam radii.
HIGH_SIGMA, HIGH_K1, HIGH_W = 22.0, 1.0 / 11.0, 2.0

FAST_QUAD = QuadratureSpec(nodes_1d=32, subdivisions=4)


def _report(tag: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {tag}: {detail}"
    LINES.append(line)
    print(line)
    assert passed, line


def _grid_entanglement(kind: str, w: float, chi: float, quad: QuadratureSpec) -> np.ndarray:
    out = np.empty((SIGMAS.size, RS.size))
    for i, sigma in enumerate(SIGMAS):
        geom = LinkGeometry(sigma_b=float(sigma), **SURVEY_GEOM)
        for j, r in enumerate(RS):
            cfg = SchemeConfig(kind=kind, squeezing=Squeezing(float(r)), geometry=geom,
                               beta=1.0, w=w, chi=chi, quad=quad)
            out[i, j] = log_negativity(ensemble_cm(cfg))
    return out


def test_a1_tmsv_log_negativity():
    t0 = time.perf_counter()
    errs = [abs(log_negativity(tmsv_cm(Squeezing(r))) - 2.0 * r / math.log(2.0))
            for r in R_SET]
    elapsed = time.perf_counter() - t0
    passed = max(errs) < 1e-10 and elapsed < 1.0
    _report("A1", passed,
            f"TMSV E_LN vs 2r/ln2 at r={R_SET}: max err {max(errs):.2e} "
            f"(tol 1e-10), {elapsed:.3f}s (limit 1s)")


def test_a2_lossless_swap():
    errs = [abs(log_negativity(swap_realization(Squeezing(r), 1.0, 1.0))
                - math.log2(math.cosh(2.0 * r)))
            for r in R_SET]
    rng = np.random.default_rng(424242)
    gap = 0.0
    for _ in range(100):
        inp = random_standard_input(rng)
        avg = swap_ensemble_cm(inp, general_optimal_gains(inp))
        cond = swap_conditional(inp)
        gap = max(gap, float(np.abs(avg.m - cond.m).max()))
    passed = max(errs) < 1e-10 and gap < 1e-10
    _report("A2", passed,
            f"lossless swap E_LN vs log2(cosh 2r): max err {max(errs):.2e}; "
            f"averaged-vs-conditional CM gap over 100 random inputs {gap:.2e} (tol 1e-10)")


def test_a3_mean_channel_losses():
    # Reference dB anchors for the five standard geometries.  The convention
    # is fixed here once: eta scales the field amplitude, so the mean loss is
    # -10*log10(E[eta^2]); a systematic miss on every anchor would point at
    # this convention, which is why each computed value is reported.
    anchors = (
        (1.0, 0.7, 3.0, "up"),
        (0.5, 0.7, 5.4, "up"),
        (0.4, 0.7, 6.7, "up"),
        (0.5, 1.0, 6.4, "up"),
        (0.5, 0.32, 4.4, "down"),
        (0.5, 22.0, 30.0, "up"),
        (0.5, 2.0, 10.0, "down"),
    )
    t0 = time.perf_counter()
    rows = []
    worst = 0.0
    for ratio, sigma, target, label in anchors:
        db = loss_db(FadingChannel(sigma, 1.0, 1.0 / ratio), DEFAULT_QUAD)
        worst = max(worst, abs(db - target))
        rows.append(f"{label} b/W={ratio} sigma={sigma}: {db:.2f} (ref {target})")
    elapsed = time.perf_counter() - t0
    passed = worst <= 0.3 and elapsed < 10.0
    _report("A3", passed,
            f"mean losses, power convention -10log10<eta^2>: {'; '.join(rows)}; "
            f"max dev {worst:.2f} dB (tol 0.3), {elapsed:.2f}s (limit 10s)")


def test_a4_scheme_ordering():
    t0 = time.perf_counter()
    e = {kind: _grid_entanglement(kind, 1.0, 0.0, DEFAULT_QUAD)
         for kind in ("direct", "satellite", "swap")}
    elapsed = time.perf_counter() - t0
    sat_gap = float((e["satellite"] - e["direct"]).min())
    # best-over-squeezing comparison per wander level
    peak_gap = float((e["direct"].max(axis=1) - e["swap"].max(axis=1)).min())
    passed = sat_gap >= -1e-12 and peak_gap >= -1e-12 and elapsed < 120.0
    _report("A4", passed,
            f"15x15 grid (b/W=1): min(satellite-direct) {sat_gap:.3e}, "
            f"min over sigma of max_r(direct)-max_r(swap) {peak_gap:.3e} "
            f"(both >= 0 required), {elapsed:.1f}s (limit 120s)")


def test_a5_excess_noise_reductions():
    # Percentage reductions are only meaningful against a solid baseline, so
    # points below one ebit of noise-free entanglement are excluded; the
    # verdict line reports how many points that leaves per scheme.
    floor = 1.0
    bands = {"direct": (1.0, 12.0), "satellite": (3.0, 20.0), "swap": (3.0, 20.0)}
    details = []
    passed = True
    for kind in ("direct", "satellite", "swap"):
        base, red01, red05 = [], [], []
        for w in SURVEY_WS:
            e0 = _grid_entanglement(kind, w, 0.0, FAST_QUAD)
            e1 = _grid_entanglement(kind, w, 0.01, FAST_QUAD)
            e5 = _grid_entanglement(kind, w, 0.05, FAST_QUAD)
            keep = e0 >= floor
            base.append(keep.sum())
            red01.extend((100.0 * (e0[keep] - e1[keep]) / e0[keep]).tolist())
            red05.extend((100.0 * (e0[keep] - e5[keep]) / e0[keep]).tolist())
        lo, hi = bands[kind]
        reds = red01 + red05
        ok = min(reds) >= lo and max(reds) <= hi
        passed = passed and ok
        details.append(
            f"{kind} n={sum(base)}: chi=0.01 [{min(red01):.2f},{max(red01):.2f}]%, "
            f"chi=0.05 [{min(red05):.2f},{max(red05):.2f}]% vs band [{lo:g},{hi:g}]%"
            + ("" if ok else " VIOLATED"))
    _report("A5", passed,
            f"E_LN reductions across the three survey grids, baseline floor {floor} ebit: "
            + "; ".join(details))


def _mid_loss_links():
    links = expand_links(LinkGeometry(sigma_b=MID_SIGMA, **SURVEY_GEOM), 1.0, MID_W)
    return links.a_s, links.s_b


def _match_classical_p(sq, up, down, target, quad):
    """Classical threshold whose success probability equals target (bisection)."""
    z_lo, z_hi = 0.0, up.eta0 * down.eta0 * (1.0 - 3e-4)
    res_hi = classical_postselect(sq, up, down, ClassicalPsConfig(z_hi), quad)
    if res_hi.p_success > target:
        raise AssertionError(f"matched-P bracket too shallow: {res_hi.p_success:.3e}")
    for _ in range(60):
        mid = 0.5 * (z_lo + z_hi)
        res = classical_postselect(sq, up, down, ClassicalPsConfig(mid), quad)
        if res.p_success > target:
            z_lo = mid
        else:
            z_hi = mid
    return classical_postselect(sq, up, down, ClassicalPsConfig(0.5 * (z_lo + z_hi)), quad)


def test_a6_postselection_tradeoff():
    sq = Squeezing(1.5)
    up, down = _mid_loss_links()
    quad = QuadratureSpec(nodes_1d=48, subdivisions=6)
    z_grid = np.linspace(0.0, 0.9 * up.eta0 * down.eta0, 10)
    cl = [classical_postselect(sq, up, down, ClassicalPsConfig(float(z)), quad)
          for z in z_grid]
    e_cl = [res.e_ln for res in cl]
    p_cl = [res.p_success for res in cl]
    cl_monotone = all(b > a for a, b in zip(e_cl, e_cl[1:])) \
        and all(b < a for a, b in zip(p_cl, p_cl[1:]))

    q_grid = np.linspace(0.0, 4.0, 9)
    qu = [quantum_postselect(sq, up, down, QuantumPsConfig(tap_t=0.93, q_th=float(q)), quad)
          for q in q_grid]
    qu_monotone = all(b.e_ln > a.e_ln for a, b in zip(qu, qu[1:])) \
        and all(b.p_success < a.p_success for a, b in zip(qu, qu[1:]))

    # classical dominance at equal success probability
    worst_margin = math.inf
    pairs = []
    for q_th in (1.0, 2.0, 3.0, 4.0):
        target = quantum_postselect(
            sq, up, down, QuantumPsConfig(tap_t=0.93, q_th=q_th), quad)
        matched = _match_classical_p(sq, up, down, target.p_success, quad)
        worst_margin = min(worst_margin, matched.e_ln - target.e_ln)
        pairs.append(f"P={target.p_success:.2e}: {matched.e_ln:.3f} vs {target.e_ln:.3f}")
    passed = cl_monotone and qu_monotone and worst_margin >= -1e-9
    _report("A6", passed,
            f"mid-loss channel r=1.5 T=0.93: classical sweep monotone={cl_monotone}, "
            f"quantum sweep monotone={qu_monotone}; matched-P classical vs quantum E_LN "
            f"({'; '.join(pairs)}), min margin {worst_margin:.3f}")


def test_a7_high_loss_rate():
    t0 = time.perf_counter()
    sq = Squeezing(1.5)
    links = expand_links(LinkGeometry(sigma_b=HIGH_SIGMA, k1=HIGH_K1, k2=1.0), 1.0, HIGH_W)
    up, down = links.a_s, links.s_b
    quad = QuadratureSpec(nodes_1d=32, subdivisions=2)

    # walk the threshold up until the kept entanglement clears one ebit
    z_lo, z_hi = 0.0, up.eta0 * down.eta0 * (1.0 - 1e-3)
    for _ in range(50):
        mid = 0.5 * (z_lo + z_hi)
        res = classical_postselect(sq, up, down, ClassicalPsConfig(mid), quad)
        if res.e_ln < 1.005:
            z_lo = mid
        else:
            z_hi = mid
    res = classical_postselect(sq, up, down, ClassicalPsConfig(z_hi), quad)
    rate = res.p_success * 1e8
    elapsed = time.perf_counter() - t0
    passed = (res.e_ln > 1.0 and res.p_success < 1e-4
              and 10**3.5 <= rate <= 10**4.5 and elapsed < 300.0)
    _report("A7", passed,
            f"high-loss channel: threshold {z_hi:.4f} gives E_LN {res.e_ln:.3f} > 1 at "
            f"P_s {res.p_success:.2e} < 1e-4; delivered rate {rate:.0f} Hz "
            f"(1e4 within half a decade), {elapsed:.1f}s (limit 300s)")


N_DRAWS = 1_000_000
N_BATCHES = 100
MC_SEED = 987654321


def _mc_cm_check(engine_m: np.ndarray, entry_fn, label: str, failures: list) -> None:
    """Compare an engine CM against a Monte Carlo oracle entry by entry.

    entry_fn(sl) builds the full 4x4 CM estimate from the draw slice sl; the
    standard error per entry comes from the spread of the batch estimates,
    which handles ratio and product estimators uniformly.
    """
    step = N_DRAWS // N_BATCHES
    batches = np.stack([entry_fn(slice(i * step, (i + 1) * step))
                        for i in range(N_BATCHES)])
    mc = entry_fn(slice(None))
    se = batches.std(axis=0, ddof=1) / math.sqrt(N_BATCHES)
    bad = np.abs(engine_m - mc) > 4.0 * se + 1e-12
    if bad.any():
        i, j = np.argwhere(bad)[0]
        failures.append(f"{label}[{i},{j}]: engine {engine_m[i, j]:.6g} vs "
                        f"MC {mc[i, j]:.6g} (se {se[i, j]:.2g})")


def _standard_m(a: float, b: float, c: float) -> np.ndarray:
    return np.array([
        [a, 0.0, c, 0.0],
        [0.0, a, 0.0, -c],
        [c, 0.0, b, 0.0],
        [0.0, -c, 0.0, b],
    ])


def test_a8_monte_carlo_and_wigner_oracles():
    rng = np.random.default_rng(MC_SEED)
    failures: list[str] = []

    # ensemble CMs of the three schemes at a survey-grid point
    sq = Squeezing(1.0)
    v = sq.v
    geom = LinkGeometry(sigma_b=0.7, **SURVEY_GEOM)
    links = expand_links(geom, 1.0, 1.0)
    draws = {name: sample(ch, rng, N_DRAWS)
             for name, ch in zip(("a_s", "s_a", "b_s", "s_b"), links)}

    def direct_fn(sl):
        zeta = draws["a_s"][sl] * draws["s_b"][sl]
        return _standard_m(v, 1.0 + (v - 1.0) * zeta.mean(),
                           math.sqrt(v * v - 1.0) * np.sqrt(zeta).mean())

    def satellite_fn(sl):
        e, ep = draws["s_a"][sl], draws["s_b"][sl]
        return _standard_m(1.0 + (v - 1.0) * e.mean(), 1.0 + (v - 1.0) * ep.mean(),
                           math.sqrt(v * v - 1.0) * np.sqrt(e).mean() * np.sqrt(ep).mean())

    def swap_fn(sl):
        e, ep = draws["a_s"][sl], draws["b_s"][sl]
        shared = (v * v - 1.0) / (2.0 + (e + ep) * (v - 1.0))
        return _standard_m(float((v - e * shared).mean()), float((v - ep * shared).mean()),
                           float((np.sqrt(e * ep) * shared).mean()))

    for kind, fn in (("direct", direct_fn), ("satellite", satellite_fn), ("swap", swap_fn)):
        cfg = SchemeConfig(kind=kind, squeezing=sq, geometry=geom, beta=1.0, w=1.0)
        _mc_cm_check(ensemble_cm(cfg).m, fn, kind, failures)

    # both post-selections on the mid-loss channel
    sq = Squeezing(1.5)
    v = sq.v
    up, down = _mid_loss_links()
    e_up = sample(up, rng, N_DRAWS)
    e_dn = sample(down, rng, N_DRAWS)
    zeta = e_up * e_dn

    z_th = 0.15
    cl = classical_postselect(sq, up, down, ClassicalPsConfig(z_th))

    def classical_fn(sl):
        kept = zeta[sl][zeta[sl] > z_th]
        p = kept.size / zeta[sl].size
        return np.concatenate((
            _standard_m(v, 1.0 + (v - 1.0) * kept.mean(),
                        math.sqrt(v * v - 1.0) * np.sqrt(kept).mean()).ravel(),
            [p]))

    step = N_DRAWS // N_BATCHES
    batches = np.stack([classical_fn(slice(i * step, (i + 1) * step))
                        for i in range(N_BATCHES)])
    mc = classical_fn(slice(None))
    se = batches.std(axis=0, ddof=1) / math.sqrt(N_BATCHES)
    engine_flat = np.concatenate((cl.cm.m.ravel(), [cl.p_success]))
    bad = np.abs(engine_flat - mc) > 4.0 * se + 1e-12
    if bad.any():
        k = int(np.argwhere(bad)[0])
        failures.append(f"classical-ps[{k}]: engine {engine_flat[k]:.6g} vs "
                        f"MC {mc[k]:.6g} (se {se[k]:.2g})")

    # Quantum post-selection: per-draw selection moments come from the same
    # closed forms the engine integrates (independently confirmed against the
    # Wigner oracle below); the Monte Carlo side checks the channel averaging.
    cfg_q = QuantumPsConfig(tap_t=0.93, q_th=1.5)
    t = cfg_q.tap_t
    qu = quantum_postselect(sq, up, down, cfg_q)
    q_a, q_b, q_a_sq, q_b_sq, q_ab, p_sel, b_q, c_q = _tap_moments(
        v, zeta, t, cfg_q.q_th, 0.0)
    b_p_w = p_sel * (t * b_q + (1.0 - t))
    c_p_w = p_sel * (-math.sqrt(t) * c_q)

    def quantum_fn(sl):
        p = p_sel[sl].mean()
        ma, mb = q_a[sl].mean() / p, q_b[sl].mean() / p
        aq = q_a_sq[sl].mean() / p - ma * ma
        bq = q_b_sq[sl].mean() / p - mb * mb
        cq = q_ab[sl].mean() / p - ma * mb
        return np.array([
            [aq, 0.0, cq, 0.0],
            [0.0, v, 0.0, c_p_w[sl].mean() / p],
            [cq, 0.0, bq, 0.0],
            [0.0, c_p_w[sl].mean() / p, 0.0, b_p_w[sl].mean() / p],
        ])

    _mc_cm_check(qu.cm.m, quantum_fn, "quantum-ps", failures)

    # closed-form selection moments vs the Wigner oracle on the 3x3x3 grid
    keys = ("q_a", "q_b", "q_a_sq", "q_b_sq", "q_ab", "p_select")
    worst = 0.0
    for z in (0.2, 0.5, 0.8):
        for r in (0.5, 1.0, 1.5):
            for q_th in (0.0, 1.0, 2.0):
                got = _tap_moments(Squeezing(r).v, z, 0.93, q_th, 0.0)[:6]
                ref = tap_moments_wigner(Squeezing(r).v, z, 0.93, q_th, nodes=240)
                worst = max(worst, max(abs(float(g) - ref[k])
                                       for g, k in zip(got, keys)))
    if worst > 1e-6:
        failures.append(f"selection moments vs Wigner oracle: max dev {worst:.2e}")

    _report("A8", not failures,
            "ensemble CMs (3 schemes + 2 post-selections) vs 1e6-draw MC within 4 se; "
            f"selection moments vs Wigner on 27 points, max dev {worst:.2e} (tol 1e-6)"
            + ("" if not failures else "; " + "; ".join(failures)))


def test_a9_effective_round_trip_and_ordering():
    worst_rt = 0.0
    skipped = 0
    total = 0
    worst_gap = -math.inf
    flags_ok = True
    for w in SURVEY_WS:
        for sigma in SIGMAS:
            geom = LinkGeometry(sigma_b=float(sigma), **SURVEY_GEOM)
            for r in RS:
                sq = Squeezing(float(r))
                for kind in ("direct", "satellite", "swap"):
                    total += 1
                    cfg = SchemeConfig(kind=kind, squeezing=sq, geometry=geom,
                                       beta=1.0, w=w, quad=FAST_QUAD)
                    cm = ensemble_cm(cfg)
                    eff = try_effective(cm)
                    if eff is None:
                        skipped += 1
                        continue
                    back = apply_loss(tmsv_cm(Squeezing(eff.r_e)), eff.eta_a, eff.eta_b)
                    worst_rt = max(worst_rt, float(np.abs(back.m - cm.m).max()))
                report = ordering_check(geom, sq, 1.0, w, FAST_QUAD)
                gap = report["swap"]["eta_product"] - report["direct"]["eta_product"]
                worst_gap = max(worst_gap, gap)
                flags_ok = flags_ok and report["swap_le_direct"]
    passed = worst_rt <= 1e-9 and flags_ok and worst_gap <= 1e-12
    _report("A9", passed,
            f"round trip over {total - skipped}/{total} entangled ensemble CMs: "
            f"max |rebuilt - original| {worst_rt:.2e} (tol 1e-9); swap vs direct "
            f"effective transmittance products on all grids: max gap {worst_gap:.3e} <= 0")
