"""Self-check of the benchmark itself (not of cvsat).

    python3 perfbench/selfcheck.py [--workloads survey,effective] [--seed 3]

Asserts that:

* scenario generation is deterministic per seed and differs between seeds;
* the exact counts of the traced replay repeat between two runs;
* every metric named in BENCHMARK.json is printed, with its unit, in the
  mode that owns it (``--trace 0`` end to end, ``--trace 1`` per layer);
* without the cvsat sources run.py exits non-zero and prints no result.

Exits 0 when every assertion holds, 1 otherwise.  A run of all four
workloads takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench" / "selfcheck"

EXACT = (
    "cli.rows", "numerics.nodes_per_axis.max", "numerics.pair_points",
    "numerics.pair_mb_computed", "effective.swap_pv_frac", "effective.separable_frac",
    "postselect.empty_frac", "fading.loss_db.calls", "effective.swap_separable_mass.max",
)


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    checks = 0

    def expect(ok: bool, what: str) -> None:
        nonlocal checks
        checks += 1
        if not ok:
            print("FAIL " + what, flush=True)
            problems.append(what)

    shutil.rmtree(WORK, ignore_errors=True)
    for workload in args.workloads.split(","):
        files = {}
        for tag, seed in (("a", args.seed), ("b", args.seed), ("c", args.seed + 1)):
            invs = generate(workload, seed, WORK / f"gen-{workload}-{tag}")
            files[tag] = [Path(i.scenario).read_bytes() for i in invs]
        expect(files["a"] == files["b"], f"{workload}: generation repeats for seed {args.seed}")
        expect(files["a"] != files["c"], f"{workload}: seeds {args.seed} and {args.seed + 1} differ")

        end_code, end_out = _run(workload, args.seed, 0)
        expect(end_code == 0, f"{workload}: --trace 0 exits 0")
        traced = []
        for _ in range(2):
            code, out = _run(workload, args.seed, 1)
            expect(code == 0, f"{workload}: --trace 1 exits 0")
            traced.append(_result(out) if code == 0 else {"metrics": {}})
        if end_code == 0:
            got = _result(end_out)["metrics"]
            for m in spec["end_to_end"]:
                expect(got.get(m["name"], {}).get("unit") == m["unit"],
                       f"{workload}: {m['name']} printed in {m['unit']}")
        for m in spec["per_layer"]:
            expect(traced[0]["metrics"].get(m["name"], {}).get("unit") == m["unit"],
                   f"{workload}: {m['name']} printed in {m['unit']}")
        for name in EXACT:
            values = [t["metrics"].get(name, {}).get("value") for t in traced]
            expect(values[0] is not None and values[0] == values[1],
                   f"{workload}: {name} repeats exactly ({values[0]} / {values[1]})")
        expect(all(t.get("correct") for t in traced), f"{workload}: replay matches the CLI")

    bare = WORK / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = _run(WORKLOADS[0], args.seed, 0, cwd=bare)
    expect(code != 0 and not out.strip(), "without sources: non-zero exit, no result")

    print(f"{checks} checks, {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
