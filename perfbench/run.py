"""cvsat benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scenario files from the seed, then:

* ``--trace 0``: runs the workload's ``cvsat`` CLI invocations in a closed
  loop with one client (one CLI process at a time; ``survey-workers2`` adds
  its two pool workers) for ``--seconds`` seconds, checks every output
  against a reference computed by the pinned cvsat sources in
  ``ref/cvsat-src.tar.gz`` at the same quadrature rule, and reports the
  end-to-end metrics.
* ``--trace 1``: runs the traced in-process replay (``replay.py``) for the
  per-layer metrics, and checks that its output equals the CLI's byte for
  byte.

Everything it writes lands in ``.perfbench/`` at the checkout root.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, starting
with ``#``, are a readable summary and the environment record.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

from workloads import WORKLOADS, Invocation, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
STORED_REFS = BENCH / "ref" / "seed0"
# cvsat's sources at the commit that defined the benchmark: every reference
# output comes from them, never from the sources under test.
PINNED = BENCH / "ref" / "cvsat-src.tar.gz"

# Least number of set-up probes per run; setup_s is their median.
SETUP_PROBES = 7
# The finer probe rule has this many times the nodes per panel, same panels.
FINE_NODE_FACTOR = 1.25
# The output check passes a cell when |out - ref| <= CHECK_TOL * max(1, |ref|),
# ref being the pinned sources at the same rule given explicitly.  Items that
# change the quadrature may move the 12th digit; a lost digit above 1e-9 fails.
CHECK_TOL = 1e-9
# Keep BLAS single-threaded in the CLI processes so --workers alone decides
# how many cores a run uses.
PIN_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

PROBE = (
    "import sys, time\n"
    "from cvsat.cli import parse_scenario\n"
    "parse_scenario(sys.argv[1])\n"
    "print(repr(time.perf_counter()))\n"
)


def _env(src: Path = SRC) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), **PIN_THREADS)


def _cli(inv: Invocation) -> list[str]:
    return [sys.executable, "-m", "cvsat.cli", *inv.argv()]


def run_process(argv: list[str], out_path: Path, err_path: Path,
                src: Path = SRC) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, peak RSS in MB).

    Peak RSS is wait4's ru_maxrss: the largest resident set of any process in
    the tree the child waited for (its pool workers included).
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(src), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _run_ok(argv: list[str], out: Path, src: Path = SRC) -> str:
    """Run one untimed process that must succeed; returns its standard output."""
    err = out.with_suffix(".err")
    _, code, _ = run_process(argv, out, err, src)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[2:])} exited {code}: {err.read_text()}")
    return out.read_text()


class SetupProbe:
    """Samples of the time from process start until cvsat.cli is imported and a scenario parsed."""

    def __init__(self, invocations: list[Invocation], rundir: Path) -> None:
        self.invocations = invocations
        self.rundir = rundir
        self.samples: list[float] = []

    def sample(self) -> None:
        # perf_counter is CLOCK_MONOTONIC, shared by this process and the probe.
        inv = self.invocations[len(self.samples) % len(self.invocations)]
        t0 = time.perf_counter()
        out = _run_ok([sys.executable, "-c", PROBE, inv.scenario], self.rundir / "probe.out")
        self.samples.append(float(out) - t0)

    def median(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self.sample()
        return statistics.median(self.samples)


def own_rule(scenario: str) -> tuple[int, int]:
    """Nodes per panel and panels of the rule the CLI under test reads from a scenario."""
    from cvsat.cli import parse_scenario

    quad = parse_scenario(scenario).quad
    return quad.nodes_1d, quad.subdivisions


def rules(inv: Invocation) -> dict[str, tuple[str, tuple[int, int]]]:
    """The references of one invocation: scenario and explicit quadrature rule.

    "check" is the full scenario at the run's own rule, the output check's
    reference.  "fine" is the three-point probe at FINE_NODE_FACTOR times the
    rule's nodes; the run's own probe output differs from it by max_abs_err.
    """
    nodes, subdiv = own_rule(inv.scenario)
    return {"check": (inv.scenario, (nodes, subdiv)),
            "fine": (inv.probe, (round(nodes * FINE_NODE_FACTOR), subdiv))}


def pinned_source() -> tuple[Path, str, str | None]:
    """Unpack the pinned cvsat sources once: (PYTHONPATH, archive digest, commit)."""
    data = PINNED.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    dest = WORK / f"refsrc-{digest[:16]}"
    with tarfile.open(PINNED) as tar:
        commit = tar.pax_headers.get("comment")
        if not dest.is_dir():
            tmp = WORK / f"refsrc-tmp-{os.getpid()}"
            shutil.rmtree(tmp, ignore_errors=True)
            tar.extractall(tmp, filter="data")
            os.replace(tmp, dest)
    return dest / "src", digest, commit


def references(invocations: list[Invocation], rundir: Path,
               pinned: tuple[Path, str, str | None]) -> list[dict[str, str]]:
    """Reference outputs per invocation, keyed as in `rules`, from the pinned sources.

    Seed-0 references are stored with the benchmark.  Others are computed
    once per scenario with explicit --quad-nodes/--quad-subdiv, untimed, and
    cached under .perfbench/ref; the key covers the pinned archive, so a
    cached reference never comes from the sources under test.
    """
    src, digest, _ = pinned
    cache = WORK / "ref"
    cache.mkdir(parents=True, exist_ok=True)
    out = []
    for inv in invocations:
        refs = {}
        for name, (path, rule) in rules(inv).items():
            text = (f"{digest}\n{inv.command}\n{rule[0]}x{rule[1]}\n".encode()
                    + Path(path).read_bytes())
            key = hashlib.sha256(text).hexdigest()[:20]
            stored, cached = STORED_REFS / f"{key}.gz", cache / f"{key}.out"
            if stored.is_file():
                refs[name] = gzip.decompress(stored.read_bytes()).decode()
                continue
            if not cached.is_file():
                argv = [sys.executable, "-m", "cvsat.cli", inv.command, path, "--workers", "2",
                        "--quad-nodes", str(rule[0]), "--quad-subdiv", str(rule[1])]
                _run_ok(argv, rundir / f"ref-{key}.out", src)
                os.replace(rundir / f"ref-{key}.out", cached)
            refs[name] = cached.read_text()
        out.append(refs)
    return out


def _cells(text: str, command: str) -> tuple[list, int]:
    """Output leaves in order, and the record count (CSV rows or JSON points)."""
    if command == "effective":
        doc = json.loads(text)
        leaves: list = []

        def walk(node):
            if isinstance(node, dict):
                for k, v in node.items():
                    leaves.append(k)
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            else:
                leaves.append(node)

        walk(doc)
        return leaves, len(doc["points"])
    rows = list(csv.reader(io.StringIO(text)))
    return [cell for row in rows for cell in [len(row), *row]], len(rows) - 1


def _number(cell):
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def diff(out: str, ref: str, command: str) -> tuple[float, float, int]:
    """Largest absolute error, largest error scaled by max(1, |ref|), record count.

    Non-numeric cells (names, flags, empty cells, null) must match exactly;
    a mismatch there, or in the shape, reads as an infinite error.
    """
    got, records = _cells(out, command)
    want, _ = _cells(ref, command)
    if len(got) != len(want):
        return math.inf, math.inf, records
    worst_abs = worst = 0.0
    for a, b in zip(got, want):
        x, y = _number(a), _number(b)
        if x is None or y is None or math.isnan(x) or math.isnan(y):
            if a != b:
                return math.inf, math.inf, records
            continue
        worst_abs = max(worst_abs, abs(x - y))
        worst = max(worst, abs(x - y) / max(1.0, abs(y)))
    return worst_abs, worst, records


class Checker:
    """Output check against the pinned references, and the accuracy figure.

    max_abs_err is taken from the sources under test: each run computes the
    three-point probe at its own rule afresh (untimed) and compares it with
    the pinned sources' finer-rule probe.
    """

    def __init__(self, invocations: list[Invocation], refs: list[dict[str, str]],
                 rundir: Path) -> None:
        self.invocations = invocations
        self.refs = refs
        self.attempted = self.failed = 0
        self.max_abs_err = max(
            diff(_run_ok([sys.executable, "-m", "cvsat.cli", inv.command, inv.probe],
                         rundir / f"own-probe-{i}.out"), r["fine"], inv.command)[0]
            for i, (inv, r) in enumerate(zip(invocations, refs)))

    def check(self, i: int, code: int, out: str) -> int:
        """Count one CLI run; returns its record count (0 when it failed)."""
        self.attempted += 1
        command = self.invocations[i].command
        if code == 0:
            _, err, records = diff(out, self.refs[i]["check"], command)
            if err <= CHECK_TOL:
                return records
        self.failed += 1
        return 0


def environment(invocations: list[Invocation], pinned: tuple[Path, str, str | None]) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit, "src_sha256": digest.hexdigest(),
        "reference_commit": pinned[2], "reference_archive_sha256": pinned[1],
        "threads_pinned": PIN_THREADS,
        "rules": [{"scenario": Path(i.scenario).name,
                   **{k: "{}x{}".format(*rule) for k, (_, rule) in rules(i).items()}}
                  for i in invocations],
    }


def timed_runs(invocations, checker, seconds, setup, rundir):
    """Closed loop over whole passes of the workload for about `seconds`.

    A pass is every CLI invocation of the workload, one process at a time.
    After the first, no pass starts that the last pass's length says would
    end past `seconds`.  A set-up probe runs before the first pass and after
    each one, so its samples span the same stretch of time as the passes.
    """
    passes = []
    setup.sample()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1]["wall_s"] < seconds:
        wall = rss = 0.0
        records = 0
        for i, inv in enumerate(invocations):
            out = rundir / f"cli-{i}.out"
            dt, code, mb = run_process(_cli(inv), out, rundir / f"cli-{i}.err")
            wall += dt
            rss = max(rss, mb)
            records += checker.check(i, code, out.read_text())
        passes.append({"wall_s": wall, "peak_rss_mb": rss, "records": records})
        setup.sample()
    setup_s = setup.median()
    for p in passes:
        p["points_per_s"] = p["records"] / (p["wall_s"] - len(invocations) * setup_s)
    return passes, setup_s


def traced_run(invocations, checker, rundir, setup_s):
    """Per-layer metrics from the replay, plus one CLI pass that must match it byte for byte."""
    layer_dir = rundir / "replay"
    layer_dir.mkdir(exist_ok=True)
    argv = [sys.executable, str(BENCH / "replay.py"), "--command", invocations[0].command,
            "--scenarios", *[i.scenario for i in invocations], "--out-dir", str(layer_dir)]
    _run_ok(argv, rundir / "replay.log")
    layers = json.loads((layer_dir / "layers.json").read_text())

    cli_wall = 0.0
    for i, inv in enumerate(invocations):
        out = rundir / f"cli-{i}.out"
        dt, code, _ = run_process(_cli(inv), out, rundir / f"cli-{i}.err")
        cli_wall += dt
        same = out.read_bytes() == (layer_dir / f"replay-{i}.out").read_bytes()
        checker.check(i, code if same else -1, out.read_text())
    # Serial compute of the replay over the CPU time two workers had.
    workers = 2 if any("--workers" in i.flags for i in invocations) else 0
    efficiency = (layers["untraced_s"] / (workers * (cli_wall - len(invocations) * setup_s))
                  if workers else 0.0)
    metrics = layers["metrics"]
    metrics["cli.pool.efficiency"] = {"value": efficiency, "unit": "fraction"}
    return metrics, layers


def main() -> int:
    parser = argparse.ArgumentParser(description="cvsat benchmark runner")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cvsat" / "cli.py").is_file():
        print(f"perfbench: no cvsat sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    rundir = WORK / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    invocations = generate(args.workload, args.seed, rundir / "scenarios")
    pinned = pinned_source()
    checker = Checker(invocations, references(invocations, rundir, pinned), rundir)
    setup = SetupProbe(invocations, rundir)
    env = environment(invocations, pinned)
    print("# env " + json.dumps(env))

    if args.trace:
        metrics, layers = traced_run(invocations, checker, rundir, setup.median())
        detail = {"untraced_s": layers["untraced_s"], "traced_s": layers["traced_s"],
                  "self_s": layers["self_s"]}
    else:
        passes, setup_s = timed_runs(invocations, checker, args.seconds, setup, rundir)
        metrics = {"wall_s": {"value": statistics.median(p["wall_s"] for p in passes),
                              "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"}}
        for key, unit in (("points_per_s", "1/s"), ("peak_rss_mb", "MB")):
            metrics[key] = {"value": statistics.median(p[key] for p in passes), "unit": unit}
        detail = {"passes": passes}
        print(f"# {len(passes)} passes, medians over passes; setup_s over {len(setup.samples)} probes")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    fine = ", ".join(f"{r['check']} vs {r['fine']}" for r in env["rules"])
    print(f"# max_abs_err = {checker.max_abs_err:.3e} output units "
          f"(3-point probe grid, nodes x panels of the run vs a finer rule: {fine})")
    failed_frac = checker.failed / checker.attempted
    print(f"# failed_frac = {failed_frac:.6g} fraction "
          f"({checker.failed} of {checker.attempted} CLI runs)")

    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    (rundir / "result.json").write_text(json.dumps({
        **result, "workload": args.workload, "seed": args.seed, "env": env,
        "max_abs_err": checker.max_abs_err, "failed_frac": failed_frac, **detail,
    }, indent=1))
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
