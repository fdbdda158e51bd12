"""Traced in-process replay of one generated workload, for the per-layer metrics.

Runs the CLI's own ``cvsat.cli.main`` in this process, one scenario after
the other and with one worker, so the work and the bytes written are the
CLI's.  For the traced pass, the functions the ``cvsat`` modules call each
other through (the names in ``WRAPS``) are replaced in those modules'
namespaces by span wrappers; nothing else changes.  Spans (name, start,
end, parent, point id, and a few fields read from arguments or results)
are kept in memory and written as JSON lines when the replay ends.

The workload runs three times: traced, between two passes without the
wrappers whose mean is the untraced compute time; the ratio is the tracing
overhead.

Run it with ``src`` on PYTHONPATH, as run.py does:

    PYTHONPATH=src python3 perfbench/replay.py --command sweep \\
        --scenarios a.scn [b.scn ...] --out-dir DIR
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time
import types
from pathlib import Path

from cvsat import cli, effective, fading, gaussian, postselect, schemes
from cvsat.schemes import SchemeConfig

# Float64 arrays one pass over a channel pair writes per integrand, plus the
# weight product: the integrand counts of each library 2D sum.
PAIR_INTEGRANDS = {
    "schemes.direct": 2, "schemes.swap": 3,
    "effective.direct": 1, "effective.swap_eta": 5, "effective.swap_cosh": 1,
    "postselect.classical": 3, "postselect.quantum": 8,
}


def _pairs_ensemble(a):
    cfg = a["cfg"]
    return [] if cfg.kind == "satellite" else [(f"schemes.{cfg.kind}", cfg)]


def _pairs_postselect(kind):
    return lambda a: [(f"postselect.{kind}", (a["ch_up"], a["ch_down"], a["quad"]))]


def _pairs_ordering(a):
    def cfg(kind):
        return SchemeConfig(kind=kind, squeezing=a["sq"], geometry=a["geometry"],
                            beta=a["beta"], w=a["w"], quad=a["quad"])
    return [("effective.direct", cfg("direct")), ("effective.swap_eta", cfg("swap")),
            ("effective.swap_cosh", cfg("swap"))]


# (module, name, span name, starts a point, fields from (arguments, result),
#  2D pair sums from arguments).  A point is one CSV row or JSON point.
WRAPS = (
    (cli, "parse_scenario", "cli.parse_scenario", False, None, None),
    (cli, "write_csv", "cli.format", False, None, None),
    (cli, "_sweep_point", "cli.point", True, None, None),
    (cli, "_postselect_point", "cli.point", True, None, None),
    (cli, "ensemble_cm", "schemes.ensemble_cm", False,
     lambda a, r: {"kind": a["cfg"].kind}, _pairs_ensemble),
    (cli, "classical_postselect", "postselect.classical", False, None,
     _pairs_postselect("classical")),
    (cli, "quantum_postselect", "postselect.quantum", False, None,
     _pairs_postselect("quantum")),
    (cli, "ordering_check", "effective.ordering_check", True,
     lambda a, r: {"pv": bool(r["swap_pv_used"]),
                   "separable_mass": float(r["swap_separable_mass"])}, _pairs_ordering),
    (cli, "try_effective", "effective.try_effective", False,
     lambda a, r: {"separable": r is None}, None),
    (cli, "log_negativity", "gaussian.log_negativity", False, None, None),
    (postselect, "log_negativity", "gaussian.log_negativity", False, None, None),
    (cli, "loss_db", "fading.loss_db", False, None, None),
    (cli, "expand_links", "fading.expand_links", False, None, None),
    (schemes, "expand_links", "fading.expand_links", False, None, None),
    *((module, "transmittance_nodes", "fading.transmittance_nodes", False,
       lambda a, r: {"size": int(r[0].size)}, None)
      for module in (fading, schemes, effective, postselect)),
    (gaussian.TwoModeCM, "__post_init__", "gaussian.TwoModeCM", False, None, None),
)


class Tracer:
    """In-memory spans, recorded by the wrappers that `install` puts in place."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.pairs: list[tuple[str, object]] = []
        self._stack: list[int] = []
        self._point: int | None = None
        self._points = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, starts_point, fields, pairs):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {"name": name, "start": 0.0, "end": 0.0,
                   "parent": self._stack[-1] if self._stack else None, "point": self._point}
            outer_point = self._point
            if starts_point:
                rec["point"] = self._point = self._points
                self._points += 1
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
                self._point = outer_point
            if fields or pairs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if fields:
                    rec.update(fields(bound.arguments, result))
                if pairs:
                    self.pairs += pairs(bound.arguments)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, *spec in WRAPS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, *spec))
        # cli formats the effective report with json.dumps.
        dumps = self.wrap(json.dumps, "cli.format", False, None, None)
        self._saved.append((cli, "json", cli.json))
        cli.json = types.SimpleNamespace(**{**vars(json), "dumps": dumps})

    def uninstall(self) -> None:
        while self._saved:
            setattr(*self._saved.pop())

    def of(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")


def run_pass(command: str, scenarios: list[str], out_dir: Path, label: str) -> tuple[list[Path], float]:
    """Run the CLI in-process on every scenario; (output files, wall seconds)."""
    outputs = []
    t0 = time.perf_counter()
    for i, scenario in enumerate(scenarios):
        out = out_dir / f"{label}-{i}.out"
        code = cli.main([command, scenario, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"cvsat {command} {scenario} exited {code}")
        outputs.append(out)
    return outputs, time.perf_counter() - t0


def _dur(spans: list[dict]) -> list[float]:
    return [s["end"] - s["start"] for s in spans]


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when the layer made no calls."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _share(spans: list[dict], flag: str) -> float:
    return sum(bool(s.get(flag)) for s in spans) / len(spans) if spans else 0.0


def _records(path: Path, command: str) -> int:
    text = path.read_text()
    return len(json.loads(text)["points"]) if command == "effective" else text.count("\n") - 1


def pair_sums(pairs: list[tuple[str, object]]) -> tuple[int, int, float]:
    """(largest table, pair points, MB written) of the recorded 2D sums.

    Sizes are those of the node tables `transmittance_nodes` builds for the
    two channels of each sum; call with the wrappers removed.
    """
    sizes: dict = {}

    def size(ch, quad):
        if (ch, quad) not in sizes:
            sizes[(ch, quad)] = fading.transmittance_nodes(ch, quad)[0].size
        return sizes[(ch, quad)]

    points = 0
    mb = 0.0
    for kind, src in pairs:
        ch_a, ch_b, quad = (*src.links(), src.quad) if isinstance(src, SchemeConfig) else src
        n = size(ch_a, quad) * size(ch_b, quad)
        points += n
        mb += n * 8 * (PAIR_INTEGRANDS[kind] + 1) / 1e6
    return max(sizes.values(), default=0), points, mb


def layer_metrics(t: Tracer, rows: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of one traced pass, named <module>.<what>."""
    out = {
        "cli.parse_scenario.ms": (_pct(_dur(t.of("cli.parse_scenario")), 0.5) * 1e3, "ms"),
        "cli.format.ms": (_pct(_dur(t.of("cli.format")), 0.5) * 1e3, "ms"),
        "cli.rows": (rows, "count"),
    }
    tables = t.of("fading.transmittance_nodes")
    widest, pair_points, pair_mb = pair_sums(t.pairs)
    loss = _dur(t.of("fading.loss_db"))
    out.update({
        "fading.expand_links.us_p50": (_pct(_dur(t.of("fading.expand_links")), 0.5) * 1e6, "us"),
        "fading.transmittance_nodes.us_p50": (_pct(_dur(tables), 0.5) * 1e6, "us"),
        "fading.loss_db.calls": (len(loss), "count"),
        "fading.loss_db.busy_s": (sum(loss), "s"),
        "numerics.nodes_per_axis.max": (max([widest, *(s["size"] for s in tables)]), "count"),
        "numerics.pair_points": (pair_points, "count"),
        "numerics.pair_mb_computed": (pair_mb, "MB"),
    })
    for kind in ("direct", "satellite", "swap"):
        d = _dur([s for s in t.of("schemes.ensemble_cm") if s["kind"] == kind])
        out[f"schemes.ensemble_cm.{kind}.busy_s"] = (sum(d), "s")
        out[f"schemes.ensemble_cm.{kind}.ms_p50"] = (_pct(d, 0.5) * 1e3, "ms")
        out[f"schemes.ensemble_cm.{kind}.ms_p95"] = (_pct(d, 0.95) * 1e3, "ms")
    selections = []
    for kind in ("classical", "quantum"):
        spans = t.of(f"postselect.{kind}")
        selections += spans
        d = _dur(spans)
        out[f"postselect.{kind}.busy_s"] = (sum(d), "s")
        out[f"postselect.{kind}.ms_p50"] = (_pct(d, 0.5) * 1e3, "ms")
        out[f"postselect.{kind}.ms_p95"] = (_pct(d, 0.95) * 1e3, "ms")
    empty = [s for s in selections if s.get("error", "").startswith("NumericalError")
             and "empty" in s["error"]]
    out["postselect.empty_frac"] = (len(empty) / len(selections) if selections else 0.0,
                                    "fraction")
    checks = t.of("effective.ordering_check")
    d = _dur(checks)
    out.update({
        "effective.ordering_check.busy_s": (sum(d), "s"),
        "effective.ordering_check.ms_p50": (_pct(d, 0.5) * 1e3, "ms"),
        "effective.ordering_check.ms_p95": (_pct(d, 0.95) * 1e3, "ms"),
        "effective.swap_pv_frac": (_share(checks, "pv"), "fraction"),
        "effective.swap_separable_mass.max": (
            max((s["separable_mass"] for s in checks), default=0.0), "probability"),
        "effective.try_effective.us_p50": (
            _pct(_dur(t.of("effective.try_effective")), 0.5) * 1e6, "us"),
        "effective.separable_frac": (_share(t.of("effective.try_effective"), "separable"),
                                     "fraction"),
    })
    ln = _dur(t.of("gaussian.log_negativity"))
    out.update({
        "gaussian.log_negativity.us_p50": (_pct(ln, 0.5) * 1e6, "us"),
        "gaussian.log_negativity.busy_s": (sum(ln), "s"),
        "gaussian.TwoModeCM.us_p50": (_pct(_dur(t.of("gaussian.TwoModeCM")), 0.5) * 1e6, "us"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "fraction"),
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", required=True, choices=("sweep", "postselect", "effective"))
    parser.add_argument("--scenarios", nargs="+", required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    out_dir = Path(args.out_dir)

    # Untraced passes before and after the traced one, so warm-up and slow
    # drift of the machine fall on both sides of the overhead ratio.
    tracer = Tracer()
    plain, plain_s = run_pass(args.command, args.scenarios, out_dir, "plain")
    tracer.install()
    try:
        traced, traced_s = run_pass(args.command, args.scenarios, out_dir, "replay")
    finally:
        tracer.uninstall()
    plain2, plain2_s = run_pass(args.command, args.scenarios, out_dir, "plain2")
    untraced_s = 0.5 * (plain_s + plain2_s)

    for files in (plain, plain2):
        if [f.read_bytes() for f in files] != [f.read_bytes() for f in traced]:
            print("replay: traced and untraced passes disagree", file=sys.stderr)
            return 1
    tracer.write(out_dir / "spans.jsonl")
    rows = sum(_records(f, args.command) for f in traced)
    metrics = layer_metrics(tracer, rows, untraced_s, traced_s)
    (out_dir / "layers.json").write_text(json.dumps({
        "untraced_s": untraced_s, "traced_s": traced_s, "self_s": tracer.self_times(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
