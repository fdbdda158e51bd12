"""Seeded workload generator: scenario files and the CLI invocations that read them.

Every workload is a list of ``cvsat`` invocations on scenario files written
here from the seed alone, so the program only ever sees generated inputs.
Each scenario also gets a probe: the same family with every swept axis cut
to three points (both ends and the middle), cheap enough to run at a finer
quadrature rule for the accuracy figure.

Seed 0 reproduces the shipped grids (``scenarios/lowloss_bw1.0.scn`` and the
three shipped post-selection sweeps, the latter widened with extra
(sigma_b, r) points).

The seed moves values, never the amount of work: a redraw is taken until the
grid has the same number of points in each quadrature panel class as the
seed-0 grid (panels grow with ceil(sigma/beta) per link), so the run time of
a workload does not depend on the seed it is given.
"""

from __future__ import annotations

import argparse
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("survey", "survey-workers2", "effective", "postselect")

WHY = {
    "survey": "cvsat sweep of all three schemes over the 15x15 low-loss family; "
              "the 2D pair sums in schemes dominate and node tables are rebuilt per row",
    "survey-workers2": "the same survey with --workers 2: the only workload in which "
                       "the CLI process pool does work, so pool overhead shows here alone",
    "effective": "cvsat effective over the low-loss family: ordering_check and the swap "
                 "principal-value average, a path the survey never runs",
    "postselect": "three widened threshold sweeps (classical high-loss, classical and "
                  "quantum mid-loss): cut-aligned and full-tensor pair rules, short processes",
}

# Link wander scales of the shipped low-loss family (k1 downlink, k2 station B).
K1, K2 = 0.5, 0.64
BETA_OVER_W_CHOICES = (0.4, 0.5, 1.0)
MAX_REDRAWS = 1000
PROBE_STEPS = 3


@dataclass(frozen=True)
class Invocation:
    """One CLI process: subcommand, scenario file, extra flags."""

    command: str
    scenario: str
    flags: tuple[str, ...] = ()

    @property
    def probe(self) -> str:
        return probe_path(self.scenario)

    def argv(self) -> list[str]:
        return [self.command, self.scenario, *self.flags]


def _panel_profile(lo: float, hi: float, steps: int, scales: tuple[float, ...]) -> list:
    """Sorted per-point panel multipliers ceil(k*sigma/beta), beta = 1, on the CLI's grid."""
    return sorted(tuple(max(1, math.ceil(k * float(s))) for k in scales)
                  for s in np.linspace(lo, hi, steps))


def probe_path(scenario: str) -> str:
    return str(Path(scenario).with_suffix(".probe.scn"))


def _write(path: Path, lines: list[str]) -> str:
    """Write a scenario and its probe; returns the scenario's path."""
    path.write_text("\n".join(lines) + "\n")
    probe = []
    for line in lines:
        key, _, value = line.partition(" = ")
        if key.endswith("steps") and int(value) > PROBE_STEPS:
            line = f"{key} = {PROBE_STEPS}"
        probe.append(line)
    Path(probe_path(str(path))).write_text("\n".join(probe) + "\n")
    return str(path)


def _survey_scenario(rng: random.Random | None) -> tuple[float, float, float, float, float]:
    """(beta_over_w, sigma_min, sigma_max, r_min, r_max) of the low-loss family."""
    default = (1.0, 0.1, 1.5, 0.1, 2.0)
    if rng is None:
        return default
    scales = (1.0, K1, K2, K1 * K2)
    target = _panel_profile(default[1], default[2], 15, scales)
    for _ in range(MAX_REDRAWS):
        draw = (rng.choice(BETA_OVER_W_CHOICES), rng.uniform(0.08, 0.12),
                rng.uniform(1.42, 1.55), rng.uniform(0.08, 0.12), rng.uniform(1.9, 2.1))
        if _panel_profile(draw[1], draw[2], 15, scales) == target:
            return draw
    raise RuntimeError("no survey grid with the seed-0 panel profile was drawn")


def _survey_file(outdir: Path, rng: random.Random | None) -> str:
    bw, s_lo, s_hi, r_lo, r_hi = _survey_scenario(rng)
    return _write(outdir / "survey.scn", [
        "# generated low-loss survey",
        "schemes = direct, satellite, swap",
        f"sigma_b.min = {s_lo!r}", f"sigma_b.max = {s_hi!r}", "sigma_b.steps = 15",
        f"r.min = {r_lo!r}", f"r.max = {r_hi!r}", "r.steps = 15",
        "beta = 1.0", f"beta_over_w = {bw!r}", f"k1 = {K1!r}", f"k2 = {K2!r}",
    ])


def zeta_max(beta_over_w: float) -> float:
    """Largest combined transmittance eta0 * eta0' when both links share beta/W.

    eta0^2 = 1 - exp(-2 h) with h = (beta/W)^2 (Vasylyev, Semenov & Vogel 2012).
    """
    return 1.0 - math.exp(-2.0 * beta_over_w**2)


def _postselect_files(outdir: Path, rng: random.Random | None) -> list[str]:
    """Three threshold sweeps, widened so computation dominates interpreter start.

    Selections stay away from the empty-selection floor by construction:
    thresholds never exceed the shipped maxima, extra sigma_b points lie below
    the shipped sigma_b (less wander, larger success probability), and extra
    r points lie above the shipped r = 1.5 (the tapped variance grows with r,
    so the quantum success probability grows; the classical one ignores r).
    """
    def u(lo, hi, default):
        return default if rng is None else rng.uniform(lo, hi)

    bw = 0.5
    high_sigma = u(21.2, 22.0, 22.0)
    mid_lo = u(0.55, 0.65, 0.6)
    high_th = u(0.35, 0.37, 0.37)
    mid_th = u(0.33, 0.35, 0.35)
    for th in (high_th, mid_th):
        if not th < zeta_max(bw):
            raise RuntimeError(f"classical threshold {th} is not below zeta_max")
    sweeps = {
        "highloss": [
            "# generated classical post-selection, high loss",
            f"sigma_b.min = {high_sigma!r}",
            "r.min = 1.5", f"r.max = {u(1.8, 2.1, 2.0)!r}", "r.steps = 4",
            "k1 = 0.09090909090909091", "k2 = 1.0",
            "quad.nodes = 32", "quad.subdiv = 4",
            "postselect.type = classical",
            f"postselect.threshold_max = {high_th!r}", "postselect.threshold_steps = 15",
        ],
        "midloss_classical": [
            "# generated classical post-selection, mid loss",
            f"sigma_b.min = {mid_lo!r}", "sigma_b.max = 1.0", "sigma_b.steps = 5",
            "r.min = 1.5", f"r.max = {u(1.8, 2.1, 2.0)!r}", "r.steps = 2",
            "k1 = 0.5", "k2 = 0.64",
            "postselect.type = classical",
            f"postselect.threshold_max = {mid_th!r}", "postselect.threshold_steps = 15",
        ],
        "midloss_quantum": [
            "# generated quantum post-selection, mid loss",
            f"sigma_b.min = {mid_lo!r}", "sigma_b.max = 1.0", "sigma_b.steps = 4",
            "r.min = 1.5", f"r.max = {u(1.8, 2.1, 2.0)!r}", "r.steps = 3",
            "k1 = 0.5", "k2 = 0.64",
            "postselect.type = quantum", "postselect.tap_t = 0.93",
            f"postselect.threshold_max = {u(3.8, 4.0, 4.0)!r}", "postselect.threshold_steps = 17",
        ],
    }
    return [
        _write(outdir / f"{name}.scn", [
            *body, "postselect.threshold_min = 0.0", "schemes = direct",
            "beta = 1.0", f"beta_over_w = {bw!r}",
        ])
        for name, body in sweeps.items()
    ]


def generate(workload: str, seed: int, outdir: Path) -> list[Invocation]:
    """Write the workload's scenario files for this seed and list its CLI invocations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    outdir.mkdir(parents=True, exist_ok=True)
    family = "postselect" if workload == "postselect" else "lowloss"
    rng = None if seed == 0 else random.Random(f"{family}:{seed}")
    if workload == "postselect":
        return [Invocation("postselect", path) for path in _postselect_files(outdir, rng)]
    path = _survey_file(outdir, rng)
    if workload == "effective":
        return [Invocation("effective", path)]
    flags = ("--workers", "2") if workload == "survey-workers2" else ()
    return [Invocation("sweep", path, flags)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="directory for the scenario files")
    args = parser.parse_args()
    for inv in generate(args.workload, args.seed, Path(args.out)):
        print("cvsat", " ".join(inv.argv()))


if __name__ == "__main__":
    main()
