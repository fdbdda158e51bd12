"""Scenario parsing, CSV formatting, and end-to-end command-line behavior."""

import ast
import collections
import csv
import dataclasses
import functools
import gc
import io
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cvsat
from cvsat import cli, effective, fading, numerics, postselect, schemes
from cvsat.cli import (
    CSV_COLUMNS,
    _pool_size,
    _postselect_column,
    _sweep_column,
    format_value,
    main,
    parse_scenario,
    rate_estimate,
    run_effective,
    run_postselect,
    run_sweep,
    run_validate,
    write_csv,
)
from cvsat.errors import ConfigError, DomainError
from cvsat.fading import FadingChannel
from cvsat.gaussian import Squeezing, StandardFormCM, TwoModeCM
from cvsat.numerics import QuadratureSpec
from cvsat.effective import EffectiveParams
from cvsat.postselect import ClassicalPsConfig, PostSelectionResult, QuantumPsConfig
from cvsat.schemes import KINDS, SchemeConfig

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

BASE = """\
schemes = direct, satellite, swap
r.min = 0.5
r.max = 1.5
r.steps = 2
sigma_b.min = 0.4
sigma_b.max = 0.8
sigma_b.steps = 2
beta = 0.5
beta_over_w = 0.5
k1 = 0.5
k2 = 0.64
"""


def scn(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def base_without(line_prefix: str) -> str:
    return "".join(
        line + "\n" for line in BASE.splitlines() if not line.startswith(line_prefix)
    )


class TestParseScenario:
    def test_happy_path(self, tmp_path):
        s = parse_scenario(scn(tmp_path, BASE + "chi = 0.02\nquad.nodes = 48\nquad.subdiv = 4\n"))
        assert s.schemes == ("direct", "satellite", "swap")
        assert s.r_grid == (0.5, 1.5)
        assert s.sigma_b_grid == (0.4, 0.8)
        assert s.beta == 0.5
        assert s.w == 1.0  # beta / beta_over_w
        assert (s.k1, s.k2, s.chi) == (0.5, 0.64, 0.02)
        assert (s.quad.nodes_1d, s.quad.subdivisions) == (48, 4)
        assert s.mc is None and s.postselect is None and s.output is None

    def test_defaults(self, tmp_path):
        s = parse_scenario(scn(tmp_path, BASE))
        assert (s.quad.nodes_1d, s.quad.subdivisions) == (64, 8)
        assert s.chi == 0.0

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# full-line comment\n\n" + BASE.replace("k1 = 0.5", "k1 = 0.5  # pointing")
        s = parse_scenario(scn(tmp_path, text))
        assert s.k1 == 0.5

    def test_explicit_w(self, tmp_path):
        text = base_without("beta_over_w") + "w = 1.25\n"
        assert parse_scenario(scn(tmp_path, text)).w == 1.25

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read scenario file"):
            parse_scenario(tmp_path / "absent.scn")

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_scenario(scn(tmp_path, BASE + "just words\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key 'k1'"):
            parse_scenario(scn(tmp_path, BASE + "k1 = 0.3\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown scenario key\(s\): turbulence"):
            parse_scenario(scn(tmp_path, BASE + "turbulence = 7\n"))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required key 'k1'"):
            parse_scenario(scn(tmp_path, base_without("k1")))

    def test_unknown_scheme(self, tmp_path):
        text = BASE.replace("direct, satellite, swap", "direct, laser")
        with pytest.raises(ConfigError, match="unknown scheme 'laser'"):
            parse_scenario(scn(tmp_path, text))

    def test_repeated_scheme(self, tmp_path):
        text = BASE.replace("direct, satellite, swap", "direct, direct")
        with pytest.raises(ConfigError, match="lists a scheme twice"):
            parse_scenario(scn(tmp_path, text))

    def test_both_width_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="exactly one of 'w' or 'beta_over_w'"):
            parse_scenario(scn(tmp_path, BASE + "w = 1.0\n"))

    def test_neither_width_key(self, tmp_path):
        with pytest.raises(ConfigError, match="exactly one of 'w' or 'beta_over_w'"):
            parse_scenario(scn(tmp_path, base_without("beta_over_w")))

    @pytest.mark.parametrize("text, key", [
        (BASE + "chi = inf\n", "chi"),
        (BASE.replace("beta = 0.5", "beta = inf"), "beta"),
        (base_without("beta_over_w") + "w = inf\n", "w"),
        (BASE.replace("beta_over_w = 0.5", "beta_over_w = -inf"), "beta_over_w"),
        (BASE.replace("sigma_b.max = 0.8", "sigma_b.max = inf"), "sigma_b.max"),
        (BASE.replace("k1 = 0.5", "k1 = nan"), "k1"),
    ], ids=["chi", "beta", "w", "beta_over_w", "sigma_b.max", "k1"])
    def test_non_finite_value(self, tmp_path, text, key):
        with pytest.raises(ConfigError, match=f"scenario key {key!r}: must be a finite number"):
            parse_scenario(scn(tmp_path, text))

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario key 'k2'"):
            parse_scenario(scn(tmp_path, BASE.replace("k2 = 0.64", "k2 = soft")))

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("k1 = 0.5", "k1 = 1.5", "k1"),
            ("k2 = 0.64", "k2 = -1", "k2"),
            ("beta = 0.5", "beta = 0", "beta"),
            ("sigma_b.min = 0.4", "sigma_b.min = -0.1", "sigma_b.min"),
            ("r.min = 0.5", "r.min = -2", "r.min"),
            ("r.max = 1.5", "r.max = 3.5", "r.max"),
            ("r.max = 1.5", "r.max = 400", "r.max"),
        ],
    )
    def test_out_of_range(self, tmp_path, old, new, key):
        with pytest.raises(ConfigError, match=f"scenario key {key!r} is out of range"):
            parse_scenario(scn(tmp_path, BASE.replace(old, new)))

    def test_negative_chi_out_of_range(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario key 'chi' is out of range"):
            parse_scenario(scn(tmp_path, BASE + "chi = -0.1\n"))

    def test_zero_steps(self, tmp_path):
        with pytest.raises(ConfigError, match="r.steps must be >= 1"):
            parse_scenario(scn(tmp_path, BASE.replace("r.steps = 2", "r.steps = 0")))

    def test_descending_grid(self, tmp_path):
        with pytest.raises(ConfigError, match="r.max must be >= r.min"):
            parse_scenario(scn(tmp_path, BASE.replace("r.max = 1.5", "r.max = 0.2")))

    def test_degenerate_grid_with_steps(self, tmp_path):
        with pytest.raises(ConfigError, match="must exceed"):
            parse_scenario(scn(tmp_path, BASE.replace("r.max = 1.5", "r.max = 0.5")))

    @pytest.mark.parametrize("axis", ["r", "sigma_b"])
    def test_max_without_steps(self, tmp_path, axis):
        # one row at min would silently drop max
        text = BASE.replace(f"{axis}.steps = 2\n", "")
        with pytest.raises(ConfigError, match=f"{axis}.max must equal {axis}.min unless"):
            parse_scenario(scn(tmp_path, text))

    def test_singleton_grid(self, tmp_path):
        text = BASE.replace("r.max = 1.5\nr.steps = 2\n", "")
        assert parse_scenario(scn(tmp_path, text)).r_grid == (0.5,)

    def test_mc_block(self, tmp_path):
        s = parse_scenario(scn(tmp_path, BASE + "mc.samples = 20000\nmc.seed = 7\n"))
        assert (s.mc.samples, s.mc.seed) == (20000, 7)
        s = parse_scenario(scn(tmp_path, BASE + "mc.samples = 20000\n", name="d.scn"))
        assert s.mc.seed == 1

    def test_mc_seed_alone(self, tmp_path):
        with pytest.raises(ConfigError, match="'mc.seed' without 'mc.samples'"):
            parse_scenario(scn(tmp_path, BASE + "mc.seed = 7\n"))

    def test_classical_postselect_block(self, tmp_path):
        text = BASE + (
            "postselect.type = classical\n"
            "postselect.threshold_min = 0.0\n"
            "postselect.threshold_max = 0.4\n"
            "postselect.threshold_steps = 5\n"
        )
        ps = parse_scenario(scn(tmp_path, text)).postselect
        assert all(type(cfg) is ClassicalPsConfig for cfg in ps)
        assert [cfg.zeta_th for cfg in ps] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    def test_quantum_postselect_block(self, tmp_path):
        text = BASE + (
            "postselect.type = quantum\npostselect.tap_t = 0.93\n"
            "postselect.threshold_min = -1.0\npostselect.threshold_max = 1.0\n"
            "postselect.threshold_steps = 3\n"
        )
        ps = parse_scenario(scn(tmp_path, text)).postselect
        assert ps == tuple(QuantumPsConfig(tap_t=0.93, q_th=q) for q in (-1.0, 0.0, 1.0))

    def test_quantum_requires_tap(self, tmp_path):
        text = BASE + "postselect.type = quantum\npostselect.threshold_min = 1.0\n"
        with pytest.raises(ConfigError, match="requires 'postselect.tap_t'"):
            parse_scenario(scn(tmp_path, text))

    def test_classical_rejects_tap(self, tmp_path):
        text = BASE + (
            "postselect.type = classical\npostselect.threshold_min = 0.1\n"
            "postselect.tap_t = 0.9\n"
        )
        with pytest.raises(ConfigError, match="only applies to quantum"):
            parse_scenario(scn(tmp_path, text))

    def test_bad_postselect_type(self, tmp_path):
        text = BASE + "postselect.type = heralded\npostselect.threshold_min = 0.1\n"
        with pytest.raises(ConfigError, match="must be classical or quantum"):
            parse_scenario(scn(tmp_path, text))

    def test_output_key(self, tmp_path):
        s = parse_scenario(scn(tmp_path, BASE + "output = rows.csv\n"))
        assert s.output == "rows.csv"


class TestFormatValue:
    def test_none_is_empty(self):
        assert format_value(None) == ""

    def test_nan(self):
        assert format_value(float("nan")) == "nan"

    def test_strings_pass_through(self):
        assert format_value("direct") == "direct"

    def test_plain_numbers(self):
        assert format_value(0.25) == "0.25"
        assert format_value(1.0) == "1"
        assert format_value(0.0) == "0"
        assert format_value(10000.0) == "10000"

    def test_twelve_significant_digits(self):
        assert format_value(2.0 / math.log(2.0)) == "2.88539008178"

    def test_scientific_below_threshold(self):
        assert format_value(1e-5) == "1.00000000000e-05"
        assert format_value(-3.2e-7) == "-3.20000000000e-07"
        # the threshold itself stays in positional notation
        assert format_value(1e-4) == "0.0001"


class TestWriteCsv:
    def test_header_is_pinned(self):
        assert ",".join(CSV_COLUMNS) == (
            "scheme,sigma_b,r,chi,e_ln,p_success,"
            "eff_r,eff_eta_a,eff_eta_b,mean_loss_up_db,mean_loss_down_db"
        )

    def test_rows_follow_column_order(self):
        row = {col: None for col in CSV_COLUMNS}
        row.update(scheme="direct", sigma_b=0.5, r=1.0, chi=0.0, e_ln=0.25, p_success=1.0)
        buf = io.StringIO()
        write_csv([row], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == "direct,0.5,1,0,0.25,1,,,,,"


class TestRunSweep:
    def test_lossless_point_mass_direct(self, tmp_path):
        # sigma_b = 0 pins the beam on axis; beta/W = 4 makes the aperture
        # swallow the spot, so the channel is the identity and the swept
        # entanglement must be the pure-state value 2r/ln2.
        text = (
            "schemes = direct\nr.min = 1.0\nsigma_b.min = 0.0\n"
            "beta = 0.5\nbeta_over_w = 4\nk1 = 0.5\nk2 = 0.64\n"
        )
        rows = run_sweep(parse_scenario(scn(tmp_path, text)))
        assert len(rows) == 1
        row = rows[0]
        assert row["scheme"] == "direct"
        assert row["e_ln"] == pytest.approx(2.0 / math.log(2.0), abs=1e-9)
        assert row["p_success"] == 1.0
        assert row["eff_r"] == pytest.approx(1.0, abs=1e-9)
        assert row["eff_eta_a"] == pytest.approx(1.0, abs=1e-9)
        assert row["eff_eta_b"] == pytest.approx(1.0, abs=1e-9)
        assert abs(row["mean_loss_up_db"]) < 1e-10
        assert abs(row["mean_loss_down_db"]) < 1e-10

    def test_rows_are_sorted_by_scheme_then_grid(self, tmp_path):
        text = (
            "schemes = swap, direct\nr.min = 0.5\nr.max = 1.0\nr.steps = 2\n"
            "sigma_b.min = 0.3\nbeta = 0.5\nbeta_over_w = 1\nk1 = 0.5\nk2 = 0.64\n"
            "quad.nodes = 32\nquad.subdiv = 4\n"
        )
        rows = run_sweep(parse_scenario(scn(tmp_path, text)))
        key = [(row["scheme"], row["sigma_b"], row["r"]) for row in rows]
        assert key == [("direct", 0.3, 0.5), ("direct", 0.3, 1.0),
                       ("swap", 0.3, 0.5), ("swap", 0.3, 1.0)]

    def test_separable_point_leaves_effective_cells_empty(self, tmp_path):
        # deep fading plus excess noise kills the weakly squeezed state, so
        # the effective-channel reduction does not exist and the cells stay
        # blank; loss alone would leave a sliver of entanglement at any eta
        text = (
            "schemes = direct\nr.min = 0.1\nsigma_b.min = 2.5\nchi = 1.0\n"
            "beta = 0.5\nbeta_over_w = 0.4\nk1 = 0.5\nk2 = 0.64\n"
            "quad.nodes = 32\nquad.subdiv = 8\n"
        )
        rows = run_sweep(parse_scenario(scn(tmp_path, text)))
        assert rows[0]["e_ln"] == 0.0
        assert rows[0]["eff_r"] is None
        assert format_value(rows[0]["eff_r"]) == ""


class TestRateEstimate:
    def test_scales_source_rate(self):
        assert rate_estimate(1e-4, 1e8) == pytest.approx(1e4)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(DomainError, match="p_success"):
            rate_estimate(p, 1e8)

    @pytest.mark.parametrize("tx", [0.0, -1e6, float("inf")])
    def test_rejects_bad_rate(self, tx):
        with pytest.raises(DomainError, match="tx_rate_hz"):
            rate_estimate(1e-4, tx)


def run_python(*args):
    # The child imports the same cvsat as this process, installed or not.
    src = str(Path(cvsat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*argv):
    return run_python("-m", "cvsat.cli", *argv)


SMALL = """\
schemes = direct, satellite
r.min = 0.5
r.max = 1.5
r.steps = 2
sigma_b.min = 0.4
sigma_b.max = 0.8
sigma_b.steps = 2
beta = 0.5
beta_over_w = 0.5
k1 = 0.5
k2 = 0.64
quad.nodes = 32
quad.subdiv = 4
"""


class TestCommandLine:
    def test_sweep_output_is_deterministic(self, tmp_path):
        path = scn(tmp_path, SMALL)
        outs = []
        for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
            out = tmp_path / name
            res = run_cli("sweep", path, "--out", str(out), "--workers", workers)
            assert res.returncode == 0, res.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("command, text", [
        ("sweep", SMALL.replace("schemes = direct, satellite", "schemes = direct, satellite, swap")
                       .replace("r.steps = 2", "r.steps = 3")),
        # one column: the pool is clamped to one process
        ("sweep", SMALL.replace("schemes = direct, satellite", "schemes = swap")
                       .replace("r.steps = 2", "r.steps = 3")
                       .replace("sigma_b.max = 0.8\nsigma_b.steps = 2\n", "")),
        ("postselect", SMALL.replace("schemes = direct, satellite", "schemes = direct")
         + "postselect.type = quantum\npostselect.tap_t = 0.93\n"
           "postselect.threshold_min = 0.0\npostselect.threshold_max = 2.0\n"
           "postselect.threshold_steps = 3\n"),
        ("postselect", SMALL.replace("schemes = direct, satellite", "schemes = direct")
         + "postselect.type = classical\npostselect.threshold_min = 0.0\n"
           "postselect.threshold_max = 0.1\npostselect.threshold_steps = 3\n"),
    ], ids=["three-schemes", "one-column", "quantum", "classical"])
    def test_two_workers_write_the_bytes_of_one(self, tmp_path, command, text):
        path = scn(tmp_path, text)
        outs = []
        for workers in ("1", "2"):
            res = run_cli(command, path, "--workers", workers)
            assert res.returncode == 0, res.stderr
            outs.append(res.stdout)
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) > 3

    def test_sweep_csv_shape(self, tmp_path):
        res = run_cli("sweep", scn(tmp_path, SMALL))
        assert res.returncode == 0, res.stderr
        rows = list(csv.reader(io.StringIO(res.stdout)))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + 2 * 2 * 2
        assert all(len(row) == len(CSV_COLUMNS) for row in rows[1:])
        assert {row[0] for row in rows[1:]} == {"direct", "satellite"}

    def test_scenario_output_key_writes_file(self, tmp_path):
        target = tmp_path / "from_key.csv"
        text = SMALL.replace("r.steps = 2", "r.steps = 2") + f"output = {target}\n"
        res = run_cli("sweep", scn(tmp_path, text))
        assert res.returncode == 0, res.stderr
        assert res.stdout == ""
        assert target.read_text().startswith("scheme,")

    def test_postselect_classical_tradeoff(self, tmp_path):
        text = (
            "schemes = direct\nr.min = 1.0\nsigma_b.min = 0.5\n"
            "beta = 0.5\nbeta_over_w = 1\nk1 = 0.5\nk2 = 0.64\n"
            "quad.nodes = 32\nquad.subdiv = 4\n"
            "postselect.type = classical\n"
            "postselect.threshold_min = 0.0\npostselect.threshold_max = 0.3\n"
            "postselect.threshold_steps = 3\n"
        )
        res = run_cli("postselect", scn(tmp_path, text))
        assert res.returncode == 0, res.stderr
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        assert len(rows) == 3
        p = [float(row["p_success"]) for row in rows]
        assert p[0] > p[1] > p[2]
        e = [float(row["e_ln"]) for row in rows]
        assert e[0] <= e[1] <= e[2]

    def test_postselect_workers_output_is_deterministic(self, tmp_path):
        # each of the two sigma_b columns is one task, so each worker takes one
        text = (
            "schemes = direct\nr.min = 1.0\nr.max = 2.0\nr.steps = 3\n"
            "sigma_b.min = 0.5\nsigma_b.max = 1.0\nsigma_b.steps = 2\n"
            "beta = 0.5\nbeta_over_w = 1\nk1 = 0.5\nk2 = 0.64\n"
            "quad.nodes = 32\nquad.subdiv = 4\n"
            "postselect.type = classical\n"
            "postselect.threshold_min = 0.0\npostselect.threshold_max = 0.3\n"
            "postselect.threshold_steps = 4\n"
        )
        path = scn(tmp_path, text)
        outs = []
        for workers in ("1", "2"):
            res = run_cli("postselect", path, "--workers", workers)
            assert res.returncode == 0, res.stderr
            outs.append(res.stdout)
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 1 + 2 * 3 * 4

    def test_effective_json_report(self, tmp_path):
        text = (
            "schemes = direct, satellite, swap\nr.min = 1.0\nsigma_b.min = 0.4\n"
            "beta = 0.5\nbeta_over_w = 1\nk1 = 0.5\nk2 = 0.64\n"
            "quad.nodes = 32\nquad.subdiv = 4\n"
        )
        res = run_cli("effective", scn(tmp_path, text))
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["k1"] == 0.5
        point = report["points"][0]
        for kind in ("direct", "satellite", "swap"):
            summary = point[kind]
            assert set(summary) == {"r_e", "eta_a", "eta_b", "eta_product"}
        assert point["swap_le_direct"] is True
        assert point["satellite_ge_direct"] is True
        assert point["swap_signed_eta_a"] <= point["swap"]["eta_a"] + 1e-12
        assert 0.0 <= point["swap_separable_mass"] <= 1.0
        assert point["direct"]["eta_a"] == pytest.approx(1.0)

    def test_effective_refuses_excess_noise(self, tmp_path, capsys):
        # the reduction has no chi: a chi > 0 report would be the chi = 0 one
        text = ("schemes = direct, swap\nr.min = 1.0\nsigma_b.min = 0.4\n"
                "beta = 0.5\nbeta_over_w = 1\nk1 = 0.5\nk2 = 0.64\n"
                "quad.nodes = 32\nquad.subdiv = 4\n")
        assert main(["effective", scn(tmp_path, text + "chi = 0.05\n")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: scenario key 'chi' = 0.05")
        reports = []
        for chi in ("", "chi = 0\n"):
            assert main(["effective", scn(tmp_path, text + chi)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["chi"] == 0.0

    def test_effective_json_numbers_are_floats(self, tmp_path):
        # a product over the direct scheme's empty A path must print 1.0, never 1
        res = run_cli("effective", scn(tmp_path, BASE + "quad.nodes = 32\nquad.subdiv = 4\n"))
        assert res.returncode == 0, res.stderr

        def numbers(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [leaf for child in node for leaf in numbers(child)]
            return [] if node is None or isinstance(node, (bool, str)) else [node]

        leaves = numbers(json.loads(res.stdout))
        assert len(leaves) > 4 * 12
        assert {type(leaf) for leaf in leaves} == {float}
        assert '"eta_a": 1.0,' in res.stdout

    def test_validate_passes_on_sane_scenario(self, tmp_path):
        # k1 = 0 makes the downlink a point mass; sigma_b = 0 makes both links one.
        for link in ("sigma_b.min = 0.5\nk1 = 0.5", "sigma_b.min = 0.5\nk1 = 0", "sigma_b.min = 0\nk1 = 0.5"):
            text = (
                f"schemes = direct\nr.min = 1.0\n{link}\n"
                "beta = 0.5\nbeta_over_w = 1\nk2 = 0.64\n"
                "quad.nodes = 48\nquad.subdiv = 6\nmc.samples = 20000\nmc.seed = 3\n"
            )
            res = run_cli("validate", scn(tmp_path, text))
            assert res.returncode == 0, (link, res.stderr)
            report = json.loads(res.stdout)
            assert report["passed"] is True, link
            assert all(check["passed"] for check in report["checks"])

    def test_validate_failure_exits_4(self, tmp_path):
        # classical threshold above the maximum transmittance product is
        # impossible to satisfy; validate must flag it rather than raise
        text = (
            "schemes = direct\nr.min = 1.0\nsigma_b.min = 0.5\n"
            "beta = 0.5\nbeta_over_w = 1\nk1 = 0.5\nk2 = 0.64\n"
            "quad.nodes = 32\nquad.subdiv = 4\n"
            "postselect.type = classical\npostselect.threshold_min = 5.0\n"
        )
        res = run_cli("validate", scn(tmp_path, text))
        assert res.returncode == 4
        report = json.loads(res.stdout)
        assert report["passed"] is False
        failed = [check for check in report["checks"] if not check["passed"]]
        assert failed and failed[0]["name"].startswith("postselect/")

    def test_validate_prints_round_off_gaps_as_a_bound(self):
        # at the shipped rule every subdivision-doubling gap is summation
        # round-off, which must not reach the report; a coarse rule's is printed
        scenario = parse_scenario(SCENARIOS / "lowloss_bw1.0.scn")
        report = run_validate(scenario)
        gaps = [c["detail"] for c in report["checks"] if c["name"].startswith("convergence/")]
        assert len(gaps) == 27
        assert all(gap.endswith("| < 1e-12") for gap in gaps)
        assert report["passed"] is True
        coarse = run_validate(dataclasses.replace(scenario, quad=QuadratureSpec(16, 2)))
        assert any("| = " in c["detail"] for c in coarse["checks"])

    def test_rate_command(self):
        res = run_cli("rate", "--p", "1e-4", "--tx-hz", "1e8")
        assert res.returncode == 0
        assert res.stdout == "10000\n"

    def test_missing_scenario_file_exits_2(self, tmp_path):
        res = run_cli("sweep", str(tmp_path / "absent.scn"))
        assert res.returncode == 2
        assert "configuration error" in res.stderr

    def test_non_utf8_scenario_file_exits_2(self, tmp_path):
        path = tmp_path / "latin1.scn"
        path.write_bytes(SMALL.encode() + b"# caf\xe9 \xff\n")
        res = run_cli("sweep", str(path))
        assert res.returncode == 2
        assert "configuration error" in res.stderr
        assert str(path) in res.stderr
        assert "Traceback" not in res.stderr

    def test_sweep_hands_postselect_scenario_to_postselect(self, tmp_path):
        path = str(SCENARIOS / "postselect_midloss_classical.scn")
        outs = []
        for command in ("sweep", "postselect"):
            out = tmp_path / f"{command}.csv"
            res = run_cli(command, path, "--out", str(out))
            assert res.returncode == 0, res.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 1 + 15

    def test_postselect_without_block_exits_2(self, tmp_path):
        res = run_cli("postselect", scn(tmp_path, SMALL))
        assert res.returncode == 2
        assert "no postselect.* section" in res.stderr

    def test_bad_config_exits_2(self, tmp_path):
        res = run_cli("sweep", scn(tmp_path, SMALL.replace("k1 = 0.5", "k1 = 1.5")))
        assert res.returncode == 2
        assert "out of range" in res.stderr

    def test_domain_error_exits_2(self):
        res = run_cli("rate", "--p", "1.5", "--tx-hz", "1e8")
        assert res.returncode == 2
        assert "domain error" in res.stderr

    def test_squeezing_above_limit_exits_2(self, tmp_path):
        # r = 400 overflows cosh(2r); it must be refused before any row runs
        text = SMALL.replace("r.min = 0.5\nr.max = 1.5\nr.steps = 2\n", "r.min = 400\n")
        res = run_cli("sweep", scn(tmp_path, text))
        assert res.returncode == 2, res.stderr
        assert "configuration error" in res.stderr
        assert "'r.max' is out of range: 400.0 (must be <= 3)" in res.stderr

    @pytest.mark.parametrize("command", ["validate", "postselect", "effective"])
    @pytest.mark.parametrize("block", [
        "postselect.type = quantum\npostselect.tap_t = 1.5\npostselect.threshold_min = 1.0\n",
        "postselect.type = classical\npostselect.threshold_min = -0.1\n",
    ], ids=["tap_t", "negative_threshold"])
    def test_invalid_postselect_values_exit_2(self, tmp_path, capsys, command, block):
        text = SMALL.replace("schemes = direct, satellite", "schemes = direct") + block
        assert main([command, scn(tmp_path, text)]) == 2
        assert "domain error" in capsys.readouterr().err

    def test_numerical_error_exits_3(self, tmp_path):
        # a quantum threshold far beyond the tap distribution selects nothing
        text = (
            "schemes = direct\nr.min = 1.0\nsigma_b.min = 0.5\n"
            "beta = 0.5\nbeta_over_w = 1\nk1 = 0.5\nk2 = 0.64\n"
            "quad.nodes = 32\nquad.subdiv = 4\n"
            "postselect.type = quantum\npostselect.tap_t = 0.93\n"
            "postselect.threshold_min = 60\n"
        )
        res = run_cli("postselect", scn(tmp_path, text))
        assert res.returncode == 3
        assert "numerical error" in res.stderr

    @pytest.mark.parametrize("beta_over_w", ["13.5", "14", "1e+300"])
    def test_bessel_overflow_exits_3_naming_beta_over_w(self, tmp_path, capsys, beta_over_w):
        # I0(4 (beta/w)^2) overflows above beta/w = 13.32; the error must say so,
        # not blame a small aperture or non-finite CM entries, and at 1e+300,
        # where (beta/w)**2 overflows a double, it must not crash
        text = SMALL.replace("beta_over_w = 0.5", f"beta_over_w = {beta_over_w}")
        assert main(["sweep", scn(tmp_path, text)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ")
        assert f"beta/w = {beta_over_w} overflows" in err

    @pytest.mark.parametrize("flags", [(), ("-W", "error::RuntimeWarning")], ids=["default", "warnings-as-errors"])
    def test_exact_swap_pole_exits_3_cleanly(self, tmp_path, flags):
        # at beta/W = 5 eta0 rounds to 1 and the far tail of eta to 0, so an
        # off-pole node pair sits on s = 1 exactly; the sum must not divide there
        text = ("schemes = swap\nsigma_b.min = 0.5\nsigma_b.max = 1.0\nsigma_b.steps = 2\n"
                "r.min = 0.5\nr.max = 1.0\nr.steps = 2\n"
                "beta = 1.0\nbeta_over_w = 5\nk1 = 0.5\nk2 = 0.64\n")
        res = run_python(*flags, "-m", "cvsat.cli", "effective", scn(tmp_path, text))
        assert res.returncode == 3
        assert res.stderr.splitlines() == [
            "numerical error: an off-pole node pair sits on the swapped-state boundary s = 1"]

    @pytest.mark.parametrize("flags", [(), ("-W", "error::RuntimeWarning")], ids=["default", "warnings-as-errors"])
    def test_exact_pole_on_a_pole_row_exits_3_cleanly(self, tmp_path, flags):
        # at beta/W = 4 a node of a pole row's split rule sits on s = 1 exactly;
        # the subtracted sum must not divide there
        text = ("schemes = swap\nsigma_b.min = 0.2\nsigma_b.max = 0.5\nsigma_b.steps = 2\n"
                "r.min = 0.5\nr.max = 1.0\nr.steps = 2\n"
                "beta = 1.0\nbeta_over_w = 4\nk1 = 0.5\nk2 = 0.64\n")
        res = run_python(*flags, "-m", "cvsat.cli", "effective", scn(tmp_path, text))
        assert res.returncode == 3
        assert res.stderr.splitlines() == [
            "numerical error: a pole-row node sits on the swapped-state boundary s = 1"]

    def test_non_finite_value_exits_2_naming_key(self, tmp_path):
        # refused while parsing, before an inf grid end reaches np.linspace, which warns
        res = run_cli("sweep", scn(tmp_path, SMALL.replace("sigma_b.max = 0.8", "sigma_b.max = inf")))
        assert res.returncode == 2
        assert res.stderr.startswith("configuration error: scenario key 'sigma_b.max': must be a finite")
        assert "Warning" not in res.stderr

    def test_under_resolved_quadrature_exits_3(self):
        # an 8-node single-panel rule cannot resolve the narrow downlink
        # (sigma_b = 0.032); the weight-sum check reports it as numerical
        scenario = SCENARIOS / "lowloss_bw1.0.scn"
        res = run_cli("sweep", str(scenario), "--quad-nodes", "8", "--quad-subdiv", "1")
        assert res.returncode == 3
        assert "numerical error" in res.stderr
        assert "under-resolved" in res.stderr

    @pytest.mark.parametrize("argv", [
        ("effective", "--workers", "2"),
        ("effective", "--seed", "5"),
        ("validate", "--workers", "2"),
        ("sweep", "--seed", "5"),
    ])
    def test_flag_a_command_ignores_is_rejected(self, tmp_path, argv):
        command, *flags = argv
        res = run_cli(command, scn(tmp_path, SMALL), *flags)
        assert res.returncode == 2
        assert "unrecognized arguments" in res.stderr

    def test_seed_without_mc_block_exits_2(self, tmp_path):
        res = run_cli("validate", scn(tmp_path, SMALL), "--seed", "5")
        assert res.returncode == 2
        assert "configuration error" in res.stderr and "mc.*" in res.stderr

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, tmp_path, workers):
        res = run_cli("sweep", scn(tmp_path, SMALL), "--workers", workers)
        assert res.returncode == 2
        assert "configuration error" in res.stderr and "--workers" in res.stderr

    def test_unwritable_output_exits_2(self, tmp_path):
        res = run_cli(
            "sweep", scn(tmp_path, SMALL),
            "--out", str(tmp_path / "no_such_dir" / "rows.csv"),
        )
        assert res.returncode == 2
        assert "i/o error" in res.stderr

    def test_quad_overrides_accepted(self, tmp_path):
        text = (
            "schemes = direct\nr.min = 1.0\nsigma_b.min = 0.4\n"
            "beta = 0.5\nbeta_over_w = 1\nk1 = 0.5\nk2 = 0.64\n"
        )
        res = run_cli(
            "sweep", scn(tmp_path, text), "--quad-nodes", "32", "--quad-subdiv", "4"
        )
        assert res.returncode == 0, res.stderr


class TestSizeLimits:
    """Requests that would allocate without bound exit 2 before allocating."""

    @pytest.fixture(autouse=True)
    def refuse_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("an oversized request reached an allocating call")

        linspace = np.linspace

        def small_linspace(start, stop, num=50, **kwargs):
            if num > 1024:
                refuse()
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr("cvsat.numerics._leggauss", refuse)
        monkeypatch.setattr("cvsat.cli.sample", refuse)
        monkeypatch.setattr("cvsat.cli.mc_expectation", refuse)
        monkeypatch.setattr(np, "linspace", small_linspace)

    @pytest.mark.parametrize("command,text,flags,error,message", [
        ("sweep", SMALL, ("--quad-nodes", "100000"), "domain error", "nodes_1d must lie in"),
        ("sweep", SMALL, ("--quad-subdiv", "1000000000"), "domain error", "nodes per axis"),
        ("sweep", SMALL.replace("sigma_b.min = 0.4", "sigma_b.min = 1e6")
                       .replace("sigma_b.max = 0.8", "sigma_b.max = 2e6"), (), "domain error",
         "sigma_b=1e+06"),
        ("validate", SMALL + "mc.samples = 100000000\n", (), "domain error", "samples must lie in"),
        ("sweep", SMALL.replace("r.steps = 2", "r.steps = 1000000000"), (), "configuration error",
         "4000000000 rows"),
        # every axis alone is small; their product (2 x 2000 x 2000) is not
        ("sweep", SMALL.replace("r.steps = 2", "r.steps = 2000")
                       .replace("sigma_b.steps = 2", "sigma_b.steps = 2000"), (), "configuration error",
         "8000000 rows"),
    ])
    def test_exits_2_before_allocating(self, tmp_path, capsys, command, text, flags, error, message):
        assert main([command, scn(tmp_path, text), *flags]) == 2
        err = capsys.readouterr().err
        assert error in err and message in err


class TestPoolSize:
    def test_clamped_to_tasks_and_cpus(self, monkeypatch):
        monkeypatch.setattr("cvsat.cli.os.sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert _pool_size(1, 100) == 1
        assert _pool_size(2, 100) == 2
        assert _pool_size(10**6, 100) == 4
        assert _pool_size(8, 3) == 3

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.delattr("cvsat.cli.os.sched_getaffinity", raising=False)
        monkeypatch.setattr("cvsat.cli.os.cpu_count", lambda: None)
        assert _pool_size(16, 100) == 1

    def test_counts_the_cpus_of_the_affinity_mask(self, monkeypatch):
        # a host's CPU count overstates a process pinned to fewer of them
        monkeypatch.setattr("cvsat.cli.os.sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr("cvsat.cli.os.cpu_count", lambda: 64)
        assert _pool_size(8, 100) == 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one(self, workers):
        with pytest.raises(ConfigError, match="--workers"):
            _pool_size(workers, 10)


def _in_child(x: int, parent: int) -> tuple[int, bool]:
    return x * x, os.getpid() != parent


def _killed_in_child(parent: int) -> int:
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return 0


def _fails_in_parent(parent: int) -> int:
    if os.getpid() == parent:
        raise DomainError("the parent's share failed")
    time.sleep(60.0)
    return 0


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the fork map needs os.fork")
class TestForkMap:
    """_map_tasks: this process computes tasks[0::size], forked child k tasks[k::size]."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr("cvsat.cli.os.sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

    def test_results_come_back_in_task_order(self):
        parent = os.getpid()
        got = cli._map_tasks(_in_child, [(x, parent) for x in range(10)], 3)
        assert got == [(x * x, x % 3 != 0) for x in range(10)]
        assert_no_child_left()

    def test_killed_child_raises_child_process_error(self):
        parent = os.getpid()
        with pytest.raises(ChildProcessError, match=rf"worker process \d+ ended without a result "
                                                    rf"\(wait status {int(signal.SIGKILL)}\)"):
            cli._map_tasks(_killed_in_child, [(parent,)] * 2, 2)
        assert_no_child_left()

    def test_error_in_own_share_kills_and_reaps_the_children(self):
        parent = os.getpid()
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="the parent's share failed"):
            cli._map_tasks(_fails_in_parent, [(parent,)] * 3, 3)
        assert time.perf_counter() - t0 < 30.0
        assert_no_child_left()

    @pytest.mark.parametrize("command, text, code, line", [
        # 64 x 256 nodes fit one panel group, sigma_b = 0.4; sigma_b = 1.4 needs three
        ("sweep", "schemes = direct\nr.min = 1.0\nsigma_b.min = 0.4\nsigma_b.max = 1.4\n"
                  "sigma_b.steps = 2\nbeta = 0.5\nbeta_over_w = 1\nk1 = 0.5\nk2 = 0.64\n"
                  "quad.nodes = 64\nquad.subdiv = 256\n", 2,
         "domain error: sigma_b=1.4 with the 64x256 rule needs 49152 nodes per axis, "
         "above the limit 32768"),
        # the lower transmittance of sigma_b = 1.4 empties the selection that sigma_b = 0.2 keeps
        ("postselect", "schemes = direct\nr.min = 1.0\nsigma_b.min = 0.2\nsigma_b.max = 1.4\n"
                       "sigma_b.steps = 2\nbeta = 0.5\nbeta_over_w = 1\nk1 = 0.5\nk2 = 0.64\n"
                       "quad.nodes = 32\nquad.subdiv = 4\npostselect.type = quantum\n"
                       "postselect.tap_t = 0.5\npostselect.threshold_min = 9.5\n", 3,
         "numerical error: selection region is numerically empty: P_s="),
    ], ids=["domain", "numerical"])
    def test_child_error_exits_as_one_worker_does(self, tmp_path, capsys, command, text, code, line):
        path = scn(tmp_path, text)
        scenario = parse_scenario(path)
        column = _sweep_column if command == "sweep" else _postselect_column
        column(scenario, scenario.sigma_b_grid[0])  # the parent's share computes; the child's fails
        errs = []
        for workers in ("1", "2"):
            assert main([command, path, "--workers", workers]) == code
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and errs[0].startswith(line) and errs[0].count("\n") == 1
        assert_no_child_left()


def test_import_leaves_the_process_pool_unloaded(tmp_path):
    # cvsat loads neither module, not even for a --workers 2 run, which leaves no child behind
    res = run_python("-c", "import sys, cvsat.cli; print(sorted({'concurrent.futures.process', "
                           "'multiprocessing'} & set(sys.modules)))")
    assert (res.returncode, res.stdout) == (0, "[]\n")
    path, out = scn(tmp_path, SMALL), tmp_path / "rows.csv"
    res = run_python("-c", "import os, sys\n"
                           "os.sched_getaffinity = lambda pid: {0, 1}\n"
                           "from cvsat.cli import main\n"
                           f"assert main(['sweep', {path!r}, '--workers', '2', '--out', {str(out)!r}]) == 0\n"
                           "try:\n    os.waitpid(-1, os.WNOHANG)\nexcept ChildProcessError:\n    pass\n"
                           "else:\n    sys.exit('a child outlived the run')\n"
                           "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    assert (res.returncode, res.stdout, res.stderr) == (0, "[]\n", "")
    assert out.read_text().startswith("scheme,")


class TestMainInProcess:
    def test_main_returns_exit_code(self, tmp_path, capsys):
        assert main(["rate", "--p", "0.5", "--tx-hz", "100"]) == 0
        assert capsys.readouterr().out == "50\n"
        assert main(["rate", "--p", "2.0", "--tx-hz", "100"]) == 2

    def test_main_leaves_the_collector_alone(self, tmp_path, capsys):
        before = gc.isenabled(), gc.get_freeze_count()
        assert main(["sweep", scn(tmp_path, SMALL), "--out", str(tmp_path / "rows.csv")]) == 0
        assert main(["rate", "--p", "2.0", "--tx-hz", "100"]) == 2
        assert (gc.isenabled(), gc.get_freeze_count()) == before


# Runs the CLI's __main__ block as `python -m cvsat.cli` does and reports, from an atexit hook
# registered before it, how many objects the collector holds frozen on the way out.
FREEZE_PROBE = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count(), file=sys.stderr))
sys.argv = ["cvsat", *sys.argv[1:]]
runpy.run_module("cvsat.cli", run_name="__main__")
"""


class TestProcessExit:
    @pytest.mark.parametrize("argv, code", [
        (["rate", "--p", "0.5", "--tx-hz", "10"], 0),
        (["rate", "--p", "2.0", "--tx-hz", "10"], 2),
        (["rate", "--p", "0.5"], 2),
    ])
    def test_every_exit_skips_the_final_collections(self, argv, code):
        res = run_python("-c", FREEZE_PROBE, *argv)
        assert res.returncode == code
        frozen = res.stderr.splitlines()[-1].split()
        assert frozen[0] == "frozen" and int(frozen[1]) > 0

    def test_console_script_is_the_main_block(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(cli.__file__).resolve().parents[2]
        with open(root / "pyproject.toml", "rb") as stream:
            module, func = tomllib.load(stream)["project"]["scripts"]["cvsat"].split(":")
        block, = [node for node in ast.parse(Path(cli.__file__).read_text()).body
                  if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert module == "cvsat.cli"
        assert ast.unparse(block.body) == f"{func}()"

    @pytest.mark.parametrize("target", ["full", "closed-pipe"])
    @pytest.mark.parametrize("report", ["rate", "one-row", "large"])
    def test_failed_stdout_write_is_an_io_error(self, tmp_path, report, target):
        # Block-buffered stdout, as without PYTHONUNBUFFERED: a small report fails only in a flush.
        grid = {"one-row": "r.min = 1\n" + COLUMN.replace("sigma_b.max = 0.8\nsigma_b.steps = 2\n", ""),
                "large": "r.min = 0.1\nr.max = 2\nr.steps = 200\n" + COLUMN}  # 400 rows, 45 KB
        argv = (["rate", "--p", "0.5", "--tx-hz", "10"] if report == "rate" else
                ["sweep", scn(tmp_path, "schemes = direct\n" + grid[report])])
        src = str(Path(cvsat.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        if target == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            stdout = os.open("/dev/full", os.O_WRONLY)
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
        try:
            res = subprocess.run([sys.executable, "-m", "cvsat.cli", *argv], stdout=stdout,
                                 stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(stdout)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("i/o error: ") and res.stderr.count("\n") == 1, res.stderr


COLUMN = """\
sigma_b.min = 0.4
sigma_b.max = 0.8
sigma_b.steps = 2
beta = 0.5
beta_over_w = 0.5
k1 = 0.5
k2 = 0.64
quad.nodes = 16
quad.subdiv = 2
"""

CLASSICAL = ("postselect.type = classical\npostselect.threshold_min = 0.0\n"
             "postselect.threshold_max = 0.1\npostselect.threshold_steps = 3\n")
QUANTUM = ("postselect.type = quantum\npostselect.tap_t = 0.9\npostselect.threshold_min = 0.0\n"
           "postselect.threshold_max = 2.0\npostselect.threshold_steps = 3\n")


def column_scenario(tmp_path, r_steps, schemes="direct", block=""):
    r_axis = "r.min = 0.5\n" + (f"r.max = 1.5\nr.steps = {r_steps}\n" if r_steps > 1 else "")
    text = f"schemes = {schemes}\n" + r_axis + COLUMN + block
    return parse_scenario(scn(tmp_path, text, f"column-{r_steps}.scn"))


class TestObjectsPerRow:
    """Every row is read from arrays: no CM, config, squeezing, result or effective-parameter object is
    built per row, neither for a sweep nor for a classical or quantum selection."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = collections.Counter()
        for cls in (TwoModeCM, StandardFormCM, SchemeConfig, Squeezing, PostSelectionResult,
                    EffectiveParams):
            def counted(obj, *args, _init=cls.__init__, **kwargs):
                built[type(obj).__name__] += 1
                _init(obj, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        return built

    @pytest.mark.parametrize("kind", KINDS)
    def test_sweep_column(self, tmp_path, builds, kind):
        scenario = column_scenario(tmp_path, 3, kind)
        builds.clear()
        (rows,) = _sweep_column(scenario, 0.4)
        assert len(rows) == 3
        assert all(row["eff_r"] is not None for row in rows)
        assert builds == {}

    @pytest.mark.parametrize("block", [CLASSICAL, QUANTUM, QUANTUM.replace("tap_t = 0.9", "tap_t = 1")],
                             ids=["classical", "quantum", "quantum-unit-tap"])
    def test_postselect_column(self, tmp_path, builds, block):
        scenario = column_scenario(tmp_path, 3, block=block)
        builds.clear()
        rows = _postselect_column(scenario, 0.4)
        assert len(rows) == 3 * 3
        # a unit tap keeps the standard-form family, so its rows read eff_*; a 0.9 tap's do not
        assert all((row["eff_r"] is None) == ("tap_t = 0.9" in block) for row in rows)
        assert builds == {}


class TestQuantumEffectiveChannel:
    """A quantum CM is in the a I, b I, diag(c, -c) family only at tap_t = 1, where the tap takes
    nothing, so no other quantum row prints eff_*, however close its q and p diagonals come."""

    def test_small_squeezing_prints_no_effective_channel(self, tmp_path):
        # at r = 1e-8 the diagonals differ by far less than 1e-9; a tolerance test printed eff_eta_a = 0.579
        text = ("schemes = direct\nr.min = 1e-8\nsigma_b.min = 0.5\nbeta = 1.0\nbeta_over_w = 1\n"
                "k1 = 0.5\nk2 = 0.64\npostselect.type = quantum\npostselect.tap_t = 0.9\n"
                "postselect.threshold_min = 1\n")
        out = tmp_path / "out.csv"
        assert main(["postselect", scn(tmp_path, text), "--out", str(out)]) == 0
        (row,) = csv.DictReader(io.StringIO(out.read_text()))
        assert float(row["e_ln"]) > 0.0
        assert (row["eff_r"], row["eff_eta_a"], row["eff_eta_b"]) == ("", "", "")


class TestSmallSqueezing:
    """sweep keeps the digits of a small squeezing: rows are built from v - 1 = 2 sinh(r)^2, not from v."""

    @pytest.mark.parametrize("r", [1e-8, 1e-4])
    @pytest.mark.parametrize("sigma_b", [0.0, 0.5], ids=["point-mass", "fading"])
    def test_sweep_exits_0(self, tmp_path, r, sigma_b):
        text = (f"schemes = direct, satellite, swap\nr.min = {r}\nsigma_b.min = {sigma_b}\n"
                "beta = 1.0\nbeta_over_w = 1\nk1 = 0.5\nk2 = 0.64\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", scn(tmp_path, text), "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [row["scheme"] for row in rows] == ["direct", "satellite", "swap"]
        assert all(float(row["e_ln"]) > 0.0 and row["eff_r"] != "" for row in rows)
        if sigma_b == 0.0:
            # a point-mass direct link is a pure loss on mode B, so its effective squeezing is r itself
            assert float(rows[0]["eff_r"]) == r


class TestColumnWork:
    """The r-independent work of a sigma_b column is done once, whatever r.steps.

    Counted on a grid of 2 sigma_b, with 1 and 5 r: channels built, uncut
    node tables, node tables cut at a threshold, pair sums, root rules (swap
    and quantum), classical selection sums and downlink antiderivative tables.  A
    column builds one uncut table per distinct link, which its link rule
    shares between the mean losses, the schemes and the sums.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = collections.Counter()

        def counting(name, fn, counts_call=lambda *args: True):
            def wrapper(*args, **kwargs):
                if counts_call(*args, **kwargs):
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(FadingChannel, "__post_init__",
                            counting("channels", FadingChannel.__post_init__))
        tables = counting("uncut tables", fading.transmittance_nodes,
                          lambda ch, quad, eta_min=0.0: eta_min == 0.0)
        tables = counting("cut tables", tables, lambda ch, quad, eta_min=0.0: eta_min > 0.0)
        pairs = counting("pair sums", numerics.pair_sums)
        for module in (fading, schemes, effective, postselect):
            monkeypatch.setattr(module, "transmittance_nodes", tables)
        for module in (schemes, effective):
            monkeypatch.setattr(module, "pair_sums", pairs)
        monkeypatch.setattr(postselect, "_selection_sums",
                            counting("selection sums", postselect._selection_sums))
        for name, label in (("antiderivatives", "antiderivative tables"), ("root", "root rules")):
            prop = functools.cached_property(counting(label, getattr(fading.LinkRule, name).func))
            prop.__set_name__(fading.LinkRule, name)
            monkeypatch.setattr(fading.LinkRule, name, prop)
        return counts

    def work(self, counts, tmp_path, run, **scenario_keys):
        per_r_steps = []
        for r_steps in (1, 5):
            scenario = column_scenario(tmp_path, r_steps, **scenario_keys)
            counts.clear()
            run(scenario)
            per_r_steps.append(dict(counts))
        assert per_r_steps[0] == per_r_steps[1]
        return per_r_steps[1]

    def test_sweep(self, counts, tmp_path):
        work = self.work(counts, tmp_path, run_sweep, schemes="direct, satellite, swap")
        # 2 columns, one per sigma_b: one expand_links (4 channels) each and
        # one table for each of the four links, shared by the schemes that use
        # it and read by the mean losses and the ensembles; the swap reduces
        # its two tables to root rules and sums them in one pair sum
        assert work == {"channels": 2 * 4, "uncut tables": 2 * 4, "root rules": 2 * 2, "pair sums": 2}

    def test_validate(self, counts, tmp_path, monkeypatch):
        expansions = collections.Counter()
        expand = cli.expand_links

        def counted(geom, beta, w):
            expansions[geom.sigma_b] += 1
            return expand(geom, beta, w)

        monkeypatch.setattr(cli, "expand_links", counted)
        text = BASE.replace("r.steps = 2", "r.steps = 5").replace("sigma_b.steps = 2", "sigma_b.steps = 3")
        assert run_validate(parse_scenario(scn(tmp_path, text)))["passed"]
        # the 3 sigma_b probes, each expanded once per quadrature rule and
        # shared by the three schemes and their three r probes; the swap sums
        # all r probes of a column in one pair sum per rule
        assert sorted(expansions.values()) == [2] * 3
        assert counts == {"channels": 3 * 2 * 4, "uncut tables": 3 * 2 * 4, "root rules": 3 * 2 * 2,
                          "pair sums": 3 * 2}

    def test_effective(self, counts, tmp_path):
        work = self.work(counts, tmp_path, run_effective, schemes="direct, satellite, swap")
        # 2 columns: one expand_links each; one table for each of the four
        # links, shared by the schemes that use it and by the swap's eta
        # integrals and pole sums; the swap transmittivities and separable
        # mass in three sums (the clipped rectangle and the two blocks beside
        # it), the kernel on the two swap links' root rules, and the
        # principal value off and on the pole
        assert work == {"channels": 2 * 4, "uncut tables": 2 * 4, "root rules": 2 * 2,
                        "pair sums": 2 * 6}

    def test_classical_postselect(self, counts, tmp_path):
        work = self.work(counts, tmp_path, run_postselect, block=CLASSICAL)
        assert work["channels"] == 2 * 4
        # the two link tables, read by the mean losses and, at threshold 0, the selection sums
        assert work["uncut tables"] == 2 * 2
        # one 1D sum per threshold, over the uplink's table cut at the
        # threshold, with the downlink's antiderivatives built once per column
        assert work["selection sums"] == 2 * 3
        assert work["antiderivative tables"] == 2 * 1
        # one uplink table cut at each positive threshold, 0.05 and 0.1
        assert work["cut tables"] == 2 * 2
        assert "pair sums" not in work
        assert "root rules" not in work

    def test_quantum_postselect(self, counts, tmp_path):
        work = self.work(counts, tmp_path, run_postselect, block=QUANTUM)
        assert work["channels"] == 2 * 4
        # the two link tables, read by the mean losses and the root rules
        assert work["uncut tables"] == 2 * 2
        assert work["root rules"] == 2 * 2
        assert "selection sums" not in work and "cut tables" not in work

    def test_swap_pair_sum_does_not_grow_with_wander(self, monkeypatch, tmp_path):
        # one column at sigma_b = 0.7 and one at 22, whose 64x8 tables hold
        # 512 and 11,264 nodes: each pair sum runs over the two root rules
        points = []

        def counted(outer, inner, integrand):
            points.append(outer[0].size * inner[0].size)
            return numerics.pair_sums(outer, inner, integrand)

        monkeypatch.setattr(schemes, "pair_sums", counted)
        text = ("schemes = swap\nsigma_b.min = 0.7\nsigma_b.max = 22\nsigma_b.steps = 2\n"
                "r.min = 0.5\nr.max = 2\nr.steps = 3\nbeta = 1\nbeta_over_w = 1\nk1 = 0.5\nk2 = 1\n")
        assert len(run_sweep(parse_scenario(scn(tmp_path, text)))) == 2 * 3
        assert points == [fading._ROOT_NODES ** 2] * 2


class TestWithoutScipy:
    """cvsat runs on numpy alone; scipy serves the tests only, as an oracle."""

    def test_import_loads_no_scipy(self):
        res = run_python("-c", "import sys, cvsat, cvsat.cli; "
                               "print([key for key in sys.modules if key.startswith('scipy')])")
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        sweep = scn(tmp_path, SMALL.replace("schemes = direct, satellite",
                                            "schemes = direct, satellite, swap"), "sweep.scn")
        quantum = scn(tmp_path, (
            "schemes = direct\nr.min = 1.0\nsigma_b.min = 0.5\n"
            "beta = 0.5\nbeta_over_w = 1\nk1 = 0.5\nk2 = 0.64\n"
            "quad.nodes = 32\nquad.subdiv = 4\n"
            "postselect.type = quantum\npostselect.tap_t = 0.93\n"
            "postselect.threshold_min = 0.0\npostselect.threshold_max = 2.0\n"
            "postselect.threshold_steps = 3\n"
        ), "quantum.scn")
        runs = [["sweep", sweep, "--out", str(tmp_path / "sweep.csv")],
                ["postselect", quantum, "--out", str(tmp_path / "quantum.csv")],
                ["effective", sweep, "--out", str(tmp_path / "effective.json")]]
        # None in sys.modules makes every import of scipy raise ImportError
        res = run_python("-c", "import sys; sys.modules['scipy'] = None; "
                               "from cvsat.cli import main; "
                               f"print([main(argv) for argv in {runs!r}])")
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[0, 0, 0]\n"
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 3 * 2 * 2
        assert len((tmp_path / "quantum.csv").read_text().splitlines()) == 1 + 3
        assert len(json.loads((tmp_path / "effective.json").read_text())["points"]) == 2 * 2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
    def test_pair_sum_blocks_reuse_heap_memory(self):
        # A block's output arrays are 128 KiB each, glibc's initial mmap
        # threshold; numerics raises it at import, so these 20 tensor sums
        # reuse heap pages (0 faults) instead of faulting in fresh mmaps for
        # every block (about 21,000 faults without the raise).
        res = run_python("-c", """
import resource, sys
sys.modules["scipy"] = None
import numpy as np
from cvsat.numerics import pair_sums

x = np.linspace(0.0, 1.0, 512)
w = np.full(512, 1.0 / 512)


def integrand(a, b):
    p = a * b
    return p, p * p, np.sqrt(p), np.exp(-p), a + b


def tensor_sum():
    return pair_sums((x, w), (x, w), integrand)


tensor_sum()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    tensor_sum()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")
        assert res.returncode == 0, res.stderr
        assert int(res.stdout) < 1000
