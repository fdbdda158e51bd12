"""Command line front end: scenario files in, CSV or JSON reports out.

Scenario files are flat ``key = value`` text with dotted keys, for example::

    schemes      = direct,satellite,swap
    r.min        = 0.1
    r.max        = 2.0
    r.steps      = 15
    sigma_b.min  = 0.1
    sigma_b.max  = 1.5
    sigma_b.steps = 15
    beta_over_w  = 1.0
    k1           = 0.5
    k2           = 0.64

Subcommands: ``sweep`` (entanglement surface as CSV), ``postselect``
(threshold trade-off curves as CSV), ``effective`` (per-scheme effective
channel report as JSON), ``validate`` (self-consistency audit as JSON) and
``rate`` (pair rate from a success probability and a source rate).

Exit codes: 0 success, 2 configuration or domain problem, 3 numerical
failure, 4 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The CLI computes whole columns and calls none of ordering_check, try_effective, loss_db,
# log_negativity, ensemble_cm, classical_postselect or quantum_postselect; they stay imported
# because perfbench/replay.py wraps them by attribute lookup in this module.
from .effective import ordering_check, ordering_column, standard_rows, try_effective  # noqa: F401
from .errors import ConfigError, DomainError, NumericalError
from .fading import LinkGeometry, LinkRule, Links, expand_links, loss_db, sample  # noqa: F401
from .gaussian import block_log_negativity, log_negativity, squeezing_excess  # noqa: F401
from .numerics import McSpec, QuadratureSpec, mc_expectation
from .postselect import (ClassicalPsConfig, QuantumPsConfig, classical_postselect,  # noqa: F401
                         postselect_column, quantum_postselect)
from .schemes import KINDS, ensemble_cm, ensemble_column, scheme_links  # noqa: F401

CSV_COLUMNS = (
    "scheme", "sigma_b", "r", "chi", "e_ln", "p_success",
    "eff_r", "eff_eta_a", "eff_eta_b", "mean_loss_up_db", "mean_loss_down_db",
)

# Most rows (schemes x sigma_b x r x thresholds) a scenario may ask for; shipped grids have <= 675.
MAX_ROWS = 1 << 16
# Largest squeezing r a scenario may ask for; E_LN's relative error grows to 1e-12 at r = 3.
MAX_R = 3.0
# Absolute tolerance of the subdivision-doubling convergence gate.
CONVERGENCE_TOL = 1e-7
# Convergence gaps below this are summation round-off and print as "< 1e-12".
ROUND_OFF_GAP = 1e-12


@dataclass(frozen=True)
class Scenario:
    schemes: tuple[str, ...]
    r_grid: tuple[float, ...]
    sigma_b_grid: tuple[float, ...]
    beta: float
    w: float
    k1: float
    k2: float
    chi: float
    quad: QuadratureSpec
    mc: McSpec | None
    postselect: tuple[ClassicalPsConfig | QuantumPsConfig, ...] | None
    output: str | None


_REQUIRED = object()


def _pop(data: dict, key: str, conv, default):
    if key not in data:
        if default is _REQUIRED:
            raise ConfigError(f"scenario is missing required key {key!r}")
        return default
    raw = data.pop(key)
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"scenario key {key!r}: {exc}") from None


def _finite(raw: str) -> float:
    if not math.isfinite(value := float(raw)):
        raise ValueError(f"must be a finite number, got {raw!r}")
    return value


def _pop_float(data, key, default=_REQUIRED):
    return _pop(data, key, _finite, default)


def _pop_int(data, key, default=_REQUIRED):
    return _pop(data, key, int, default)


def _axis(data: dict, prefix: str, sep: str = ".") -> tuple[float, float, int]:
    """(min, max, steps) of a grid axis; _grid lays out its points."""
    lo = _pop_float(data, f"{prefix}{sep}min")
    steps = _pop_int(data, f"{prefix}{sep}steps", 1)
    hi = _pop_float(data, f"{prefix}{sep}max", lo)
    if steps < 1:
        raise ConfigError(f"scenario key {prefix}{sep}steps must be >= 1, got {steps}")
    if hi < lo:
        raise ConfigError(f"scenario key {prefix}{sep}max must be >= {prefix}{sep}min")
    if steps > 1 and hi == lo:
        raise ConfigError(f"scenario key {prefix}{sep}max must exceed {prefix}{sep}min when steps > 1")
    if steps == 1 and hi != lo:
        raise ConfigError(f"scenario key {prefix}{sep}max must equal {prefix}{sep}min "
                          f"unless {prefix}{sep}steps > 1")
    return lo, hi, steps


def _grid(axis: tuple[float, float, int]) -> tuple[float, ...]:
    lo, hi, steps = axis
    return (lo,) if steps == 1 else tuple(np.linspace(lo, hi, steps))


def parse_scenario(path: str | Path) -> Scenario:
    """Read and type-check a scenario file; raises ConfigError naming the bad key."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in data:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        data[key] = value

    schemes = tuple(s.strip() for s in _pop(data, "schemes", str, _REQUIRED).split(","))
    for s in schemes:
        if s not in KINDS:
            raise ConfigError(f"scenario key 'schemes': unknown scheme {s!r}")
    if len(set(schemes)) != len(schemes):
        raise ConfigError("scenario key 'schemes' lists a scheme twice")

    r_axis = _axis(data, "r")
    sigma_axis = _axis(data, "sigma_b")
    beta = _pop_float(data, "beta", 1.0)
    w = _pop_float(data, "w", None)
    beta_over_w = _pop_float(data, "beta_over_w", None)
    if (w is None) == (beta_over_w is None):
        raise ConfigError("scenario must set exactly one of 'w' or 'beta_over_w'")
    if w is None:
        if beta_over_w <= 0.0:
            raise ConfigError("scenario key 'beta_over_w' must be positive")
        w = beta / beta_over_w
    k1 = _pop_float(data, "k1")
    k2 = _pop_float(data, "k2")
    chi = _pop_float(data, "chi", 0.0)
    for key, value, ok, bound in (
        ("beta", beta, beta > 0.0, "> 0"),
        ("w", w, w > 0.0, "> 0"),
        ("k1", k1, 0.0 <= k1 <= 1.0, "in [0, 1]"),
        ("k2", k2, k2 >= 0.0, ">= 0"),
        ("chi", chi, chi >= 0.0, ">= 0"),
        ("sigma_b.min", sigma_axis[0], sigma_axis[0] >= 0.0, ">= 0"),
        ("r.min", r_axis[0], r_axis[0] >= 0.0, ">= 0"),
        ("r.max", r_axis[1], r_axis[1] <= MAX_R, f"<= {MAX_R:g}"),
    ):
        if not ok:
            raise ConfigError(f"scenario key {key!r} is out of range: {value} (must be {bound})")
    quad = QuadratureSpec(
        nodes_1d=_pop_int(data, "quad.nodes", 64),
        subdivisions=_pop_int(data, "quad.subdiv", 8),
    )

    mc = None
    if "mc.samples" in data:
        mc = McSpec(samples=_pop_int(data, "mc.samples"), seed=_pop_int(data, "mc.seed", 1))
    elif "mc.seed" in data:
        raise ConfigError("scenario sets 'mc.seed' without 'mc.samples'")

    ps_axis = None
    if any(key.startswith("postselect.") for key in data):
        kind = _pop(data, "postselect.type", str, _REQUIRED)
        if kind not in ("classical", "quantum"):
            raise ConfigError(
                f"scenario key 'postselect.type' must be classical or quantum, got {kind!r}"
            )
        ps_axis = _axis(data, "postselect.threshold", sep="_")
        tap_t = _pop_float(data, "postselect.tap_t", None)
        if kind == "quantum" and tap_t is None:
            raise ConfigError("quantum post-selection requires 'postselect.tap_t'")
        if kind == "classical" and tap_t is not None:
            raise ConfigError("'postselect.tap_t' only applies to quantum post-selection")

    output = _pop(data, "output", str, None)
    if data:
        raise ConfigError(f"unknown scenario key(s): {', '.join(sorted(data))}")
    rows = len(schemes) * r_axis[2] * sigma_axis[2] * (ps_axis[2] if ps_axis else 1)
    if rows > MAX_ROWS:
        raise ConfigError(f"scenario grid has {rows} rows (schemes x sigma_b x r x thresholds), "
                          f"above the limit {MAX_ROWS}")
    ps = tuple(ClassicalPsConfig(th) if kind == "classical" else QuantumPsConfig(tap_t=tap_t, q_th=th)
               for th in _grid(ps_axis)) if ps_axis else None
    return Scenario(
        schemes=schemes, r_grid=_grid(r_axis), sigma_b_grid=_grid(sigma_axis), beta=beta, w=w,
        k1=k1, k2=k2, chi=chi, quad=quad, mc=mc, postselect=ps, output=output,
    )


def format_value(value) -> str:
    """Fixed CSV number format: 12 significant digits, scientific below 1e-4."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    v = float(value)
    if math.isnan(v):
        return "nan"
    if v != 0.0 and abs(v) < 1e-4:
        return f"{v:.11e}"
    return f"{v:.12g}"


def write_csv(rows: list[dict], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([format_value(row[col]) for col in CSV_COLUMNS])


def _postselect_point(kind: str, sigma_b: float, r: float, chi: float, row, losses: list[float]) -> dict:
    """One CSV row from row = (e_ln, p_success, eff_r, eff_eta_a, eff_eta_b); NaN eff_r: eff_* empty."""
    return dict(zip(CSV_COLUMNS, (kind, sigma_b, r, chi, *row[:2],
                                  *([None] * 3 if math.isnan(row[2]) else row[2:]), *losses)))


def _sweep_point(kind: str, sigma_b: float, r: float, chi: float, row, losses: list[float]) -> dict:
    """One CSV row of a sweep: the selection that keeps everything, so row's p_success is 1."""
    return _postselect_point(kind, sigma_b, r, chi, row, losses)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(workers: int, tasks: int) -> int:
    """Worker processes worth running: never more than the tasks or the usable CPUs."""
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    return min(workers, tasks, _usable_cpus())


def _map_tasks(fn, tasks: list[tuple], workers: int) -> list:
    """fn(*task) for every task, in task order, on this process and size - 1 forked children.

    Child k computes tasks[k::size] and pickles its results, or its exception,
    into a pipe; this process computes tasks[0::size] meanwhile.  Shares are
    strided because a column's cost grows with its sigma_b.  A child that
    ends without a result raises ChildProcessError, and no child outlives the call.
    """
    size = _pool_size(workers, len(tasks))
    if size <= 1 or not hasattr(os, "fork"):
        return [fn(*task) for task in tasks]
    children, shares, done = {}, [], False  # children: pid -> read end, until reaped
    try:
        for k in range(1, size):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:
                code = 1
                try:
                    try:
                        result = True, [fn(*task) for task in tasks[k::size]]
                    except BaseException as exc:
                        result = False, exc
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(result, pipe)
                    code = 0
                finally:
                    os._exit(code)  # no atexit handler, no inherited stdio buffer, no return into main
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        shares.append([fn(*task) for task in tasks[0::size]])
        for pid, pipe in list(children.items()):
            payload = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            try:
                ok, rows = pickle.loads(payload)
            except Exception:
                raise ChildProcessError(f"worker process {pid} ended without a result "
                                        f"(wait status {status})") from None
            if not ok:
                raise rows
            shares.append(rows)
        done = True
    finally:
        for pipe in children.values():
            pipe.close()
        if not done:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
        for pid in children:
            os.waitpid(pid, 0)
    return [shares[i % size][i // size] for i in range(len(tasks))]


def _links(scenario: Scenario, sigma_b: float) -> Links:
    """The link rules of one sigma_b column, which every scheme, report and audit of it reads."""
    links = expand_links(LinkGeometry(sigma_b, scenario.k1, scenario.k2), scenario.beta, scenario.w)
    return Links(*(LinkRule(ch, scenario.quad) for ch in links))


def _rows(readout, p_success=1.0) -> list[tuple]:
    """Rows (e_ln, p_success, eff_r, eff_eta_a, eff_eta_b) of arrays readout = (e_ln, eff_r, eff_eta_a,
    eff_eta_b) over r, as standard_rows returns them; a float in p_success or an eff_* holds for every row."""
    e_ln, *eff = readout
    return list(zip(*(np.broadcast_to(x, e_ln.shape).tolist() for x in (e_ln, p_success, *eff))))


def _selected_rows(rs, rules: tuple[LinkRule, LinkRule], selections, chi: float) -> list[list[tuple]]:
    """Per selection, the rows of every r in rs, read from postselect_column's arrays without a CM.

    standard_rows reads the a I, b I, diag(c, -c) family: a classical CM, and
    the q block of a quantum CM at tap_t = 1, where the tap takes nothing.  A
    quantum row's physicality check and E_LN are block_log_negativity's, and
    its eff_* stay empty unless tap_t = 1.
    """
    columns = []
    for cfg, (p_s, q, p) in zip(selections, postselect_column(rs, *rules, selections, chi)):
        if isinstance(cfg, ClassicalPsConfig):
            readout = standard_rows(*q)
        else:
            e_ln = block_log_negativity(1.0 + q[0], q[2], 1.0 + q[1], 1.0 + p[0], p[2], 1.0 + p[1])
            readout = (e_ln, *(standard_rows(*q)[1:] if cfg.tap_t == 1.0 else [math.nan] * 3))
        columns.append(_rows(readout, p_s))
    return columns


def _sweep_column(scenario: Scenario, sigma_b: float) -> list[list[dict]]:
    """Per scheme, in sorted order, the rows of one sigma_b column; the schemes share its links."""
    links = _links(scenario, sigma_b)
    columns = []
    for kind in sorted(scenario.schemes):
        rules = scheme_links(kind, links)
        losses = [rule.loss_db for rule in rules]
        rows = _rows(standard_rows(*ensemble_column(kind, rules, scenario.r_grid, scenario.chi)))
        columns.append([_sweep_point(kind, sigma_b, r, scenario.chi, row, losses)
                        for r, row in zip(scenario.r_grid, rows)])
    return columns


def _postselect_column(scenario: Scenario, sigma_b: float) -> list[dict]:
    """Rows r by r, thresholds ascending within each r."""
    rules = scheme_links("direct", _links(scenario, sigma_b))
    losses = [rule.loss_db for rule in rules]
    columns = _selected_rows(scenario.r_grid, rules, scenario.postselect, scenario.chi)
    return [_postselect_point("direct", sigma_b, r, scenario.chi, row, losses)
            for r, *rows in zip(scenario.r_grid, *columns) for row in rows]


def run_sweep(scenario: Scenario, workers: int = 1) -> list[dict]:
    """One CSV row per (scheme, sigma_b, r[, threshold]), in deterministic sorted order.

    Scenarios with a postselect.* block sweep the threshold axis as well; the
    threshold of each row is implicit in its success probability.  Each
    sigma_b column is one task, which builds its links and node tables once
    for every scheme, and each scheme's r-independent sums once for all r.
    """
    if scenario.postselect is not None:
        return run_postselect(scenario, workers=workers)
    columns = _map_tasks(_sweep_column, [(scenario, sigma_b) for sigma_b in scenario.sigma_b_grid],
                         workers)
    return [row for k in range(len(scenario.schemes)) for column in columns for row in column[k]]


def run_postselect(scenario: Scenario, workers: int = 1) -> list[dict]:
    """One CSV row per (sigma_b, r, threshold); thresholds ascend within a point.

    Each sigma_b column is one task, which computes the selection sums of
    each threshold (or the root rules of quantum selection) once for all r.
    """
    if scenario.postselect is None:
        raise ConfigError("scenario has no postselect.* section")
    if scenario.schemes != ("direct",):
        raise ConfigError("post-selection applies to the direct scheme only; set schemes = direct")
    columns = _map_tasks(_postselect_column, [(scenario, sigma_b) for sigma_b in scenario.sigma_b_grid],
                         workers)
    return [row for column in columns for row in column]


def rate_estimate(p_success: float, tx_rate_hz: float) -> float:
    """Delivered pair rate when a source emitting at tx_rate_hz is gated by p_success."""
    if not (0.0 <= p_success <= 1.0) or not math.isfinite(p_success):
        raise DomainError(f"p_success must lie in [0, 1], got {p_success}")
    if not (tx_rate_hz > 0.0) or not math.isfinite(tx_rate_hz):
        raise DomainError(f"tx_rate_hz must be positive and finite, got {tx_rate_hz}")
    return p_success * tx_rate_hz


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, list):
        return [_jsonable(val) for val in obj]
    return None if isinstance(obj, float) and math.isnan(obj) else obj


def run_effective(scenario: Scenario) -> dict:
    """Effective-channel report: per-point scheme summaries plus ordering flags, column by column."""
    if scenario.chi > 0.0:
        raise ConfigError(f"scenario key 'chi' = {scenario.chi}: effective reduces noiseless links only")
    points = [{"sigma_b": sigma_b, "r": r, **report} for sigma_b in scenario.sigma_b_grid
              for r, report in zip(scenario.r_grid,
                                   ordering_column(_links(scenario, sigma_b), scenario.r_grid))]
    return _jsonable({
        "beta": scenario.beta, "w": scenario.w,
        "k1": scenario.k1, "k2": scenario.k2, "chi": scenario.chi,
        "points": points,
    })


def _grid_probes(grid: tuple[float, ...]) -> list[float]:
    probes = {grid[0], grid[-1], grid[len(grid) // 2]}
    return sorted(probes)


def run_validate(scenario: Scenario) -> dict:
    """Self-consistency audit: quadrature convergence, physicality, MC agreement.

    Every probe reads the rows sweep and postselect print, from the links of
    its sigma_b column, built once per quadrature rule.
    """
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    fine = dataclasses.replace(scenario, quad=QuadratureSpec(
        nodes_1d=scenario.quad.nodes_1d, subdivisions=2 * scenario.quad.subdivisions))
    sigma_probes, r_probes = _grid_probes(scenario.sigma_b_grid), _grid_probes(scenario.r_grid)
    columns = {sigma_b: [_links(s, sigma_b) for s in (scenario, fine)] for sigma_b in sigma_probes}
    for kind in sorted(scenario.schemes):
        for sigma_b in sigma_probes:
            names = [f"convergence/{kind}/sigma_b={sigma_b:g}/r={r:g}" for r in r_probes]
            try:
                coarse, refined = (standard_rows(*ensemble_column(
                    kind, scheme_links(kind, links), r_probes, scenario.chi))[0]
                    for links in columns[sigma_b])
            except (DomainError, NumericalError) as exc:
                # one failure fails every r probe of the column
                for name in names:
                    record(name, False, f"evaluation failed: {exc}")
                continue
            for name, diff in zip(names, np.abs(coarse - refined).tolist()):
                gap = f"< {ROUND_OFF_GAP:g}" if diff < ROUND_OFF_GAP else f"= {diff:.3e}"
                record(name, diff < CONVERGENCE_TOL,
                       f"|E_LN({scenario.quad.subdivisions} subdiv) - E_LN({fine.quad.subdivisions})| {gap}")

    # The direct scheme at the grid's last point probes MC agreement and post-selection.
    rules = scheme_links("direct", columns[scenario.sigma_b_grid[-1]][0])
    r = scenario.r_grid[-1]
    if scenario.mc is not None:
        for label, rule in zip(("uplink", "downlink"), rules):
            if rule.ch.point_mass:
                continue
            quad_mean = rule.moments[0]
            mc_mean, se = mc_expectation(
                lambda rng, n, _ch=rule.ch: sample(_ch, rng, n), lambda e: e, scenario.mc
            )
            err = abs(quad_mean - mc_mean)
            record(f"mc/{label}-mean-transmittance", err <= 4.0 * se + 1e-12,
                   f"quadrature {quad_mean:.9g} vs MC {mc_mean:.9g} (stderr {se:.2e})")
        (u,), _ = squeezing_excess((r,))
        b_quad = 1.0 + float(ensemble_column("direct", rules, (r,), scenario.chi)[1][0])
        b_mc, se = mc_expectation(
            lambda rng, n: tuple(sample(rule.ch, rng, n) for rule in rules),
            lambda e, ep: 1.0 + e * ep * u + scenario.chi,
            scenario.mc,
        )
        record("mc/direct-b-entry", abs(b_quad - b_mc) <= 4.0 * se + 1e-12,
               f"quadrature {b_quad:.9g} vs MC {b_mc:.9g} (stderr {se:.2e})")

    if scenario.postselect is not None:
        ps = scenario.postselect[len(scenario.postselect) // 2]
        classical = isinstance(ps, ClassicalPsConfig)
        kind, threshold = ("classical", ps.zeta_th) if classical else ("quantum", ps.q_th)
        name = f"postselect/{kind}/threshold={threshold:g}"
        try:
            ((e_ln, p_s, *_),), = _selected_rows((r,), rules, (ps,), scenario.chi)
        except (DomainError, NumericalError) as exc:
            record(name, False, f"evaluation failed: {exc}")
        else:
            ok = 0.0 < p_s <= 1.0 + 1e-9 and e_ln >= 0.0
            record(name, ok, f"P_s = {p_s:.6g}, E_LN = {e_ln:.6g}")

    return {"passed": all(c["passed"] for c in checks), "checks": checks}


def _load(args) -> Scenario:
    """The scenario file with the command line's quadrature override applied."""
    scenario = parse_scenario(args.scenario)
    quad = scenario.quad
    if args.quad_nodes is not None or args.quad_subdiv is not None:
        quad = QuadratureSpec(
            nodes_1d=args.quad_nodes if args.quad_nodes is not None else quad.nodes_1d,
            subdivisions=args.quad_subdiv if args.quad_subdiv is not None else quad.subdivisions,
        )
    return dataclasses.replace(scenario, quad=quad)


def _to_stdout(text: str) -> None:
    """Write and flush text; after a failure fd 1 is os.devnull, so the flush at exit cannot fail again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise


def _emit(args, scenario: Scenario, text: str) -> None:
    target = args.out or scenario.output
    if target is None or target == "-":
        _to_stdout(text)
        return
    with open(target, "w", newline="") as stream:
        stream.write(text)


def _cmd_rows(args) -> int:
    """sweep and postselect: the parser table sets args.run to run_sweep or run_postselect."""
    scenario = _load(args)
    buf = io.StringIO()
    write_csv(args.run(scenario, workers=args.workers), buf)
    _emit(args, scenario, buf.getvalue())
    return 0


def _cmd_effective(args) -> int:
    scenario = _load(args)
    report = run_effective(scenario)
    _emit(args, scenario, json.dumps(report, indent=2) + "\n")
    return 0


def _cmd_validate(args) -> int:
    scenario = _load(args)
    if args.seed is not None:
        if scenario.mc is None:
            raise ConfigError("--seed needs a scenario with an mc.* block")
        scenario = dataclasses.replace(scenario, mc=McSpec(samples=scenario.mc.samples, seed=args.seed))
    report = run_validate(scenario)
    _emit(args, scenario, json.dumps(report, indent=2) + "\n")
    return 0 if report["passed"] else 4


def _cmd_rate(args) -> int:
    rate = rate_estimate(args.p, args.tx_hz)
    _to_stdout(format_value(rate) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvsat",
        description="Entanglement delivery over satellite beam-wander fading links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name: str, help_text: str, func, **defaults):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func, **defaults)
        cmd.add_argument("scenario", help="path to a scenario file")
        cmd.add_argument("--out", default=None, help="output file (default: scenario output or stdout)")
        cmd.add_argument("--quad-nodes", type=int, default=None, help="override quadrature nodes per panel")
        cmd.add_argument("--quad-subdiv", type=int, default=None, help="override quadrature subdivisions")
        return cmd

    for name, help_text, run in (
        ("sweep", "entanglement of every scheme over the scenario grid (CSV)", run_sweep),
        ("postselect", "post-selected entanglement vs success probability (CSV)", run_postselect),
    ):
        scenario_command(name, help_text, _cmd_rows, run=run).add_argument(
            "--workers", type=int, default=1,
            help="worker processes: this one and a forked child per extra worker "
                 "(at most one per sigma_b column and per usable CPU)")
    scenario_command("effective", "effective-channel summary and scheme ordering (JSON)", _cmd_effective)
    scenario_command("validate", "numerical self-consistency audit (JSON)", _cmd_validate).add_argument(
        "--seed", type=int, default=None, help="override the Monte Carlo seed of the mc.* block")

    rate = sub.add_parser("rate", help="delivered pair rate from success probability")
    rate.add_argument("--p", type=float, required=True, help="post-selection success probability")
    rate.add_argument("--tx-hz", type=float, required=True, help="source emission rate in Hz")
    rate.set_defaults(func=_cmd_rate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry of ``cvsat`` and ``python -m cvsat.cli``: exit with main()'s code.

    Every exit, argparse's and the typed errors' included, freezes the tracked
    objects first, so the interpreter's final collections skip them; the
    atexit handlers, the stdio flush and the exit status still run.  main()
    leaves the collector alone for in-process callers.
    """
    import gc
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
