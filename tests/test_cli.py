"""Config parsing, dispatch, exit codes, and on-disk output contracts."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import borrowoc
from borrowoc import ConfigError, parse_config
from borrowoc import cli
from borrowoc.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERICS, EXIT_OK,
                          ScenarioConfig, dispatch, main)
from borrowoc.oc_twoarm import (oc_random_external_two_arm,
                                oc_random_external_two_arm_mc, power_profile)
from borrowoc.statmath import NonConvergenceError

ONE_ARM = {
    "design": "one-arm", "method": "fixed-pp", "delta": 0.5,
    "n": 25, "nE": 20, "sigma": 1.0, "theta0": 0.0, "theta1": 0.5,
    "alpha": 0.025,
}
TWO_ARM = {
    "design": "two-arm", "method": "fixed-pp", "delta": 0.5,
    "nc": 15, "nt": 15, "nE": 10, "sigma": 1.0, "theta1": 1.0,
    "alpha": 0.025,
}


def one_arm(**over):
    d = dict(ONE_ARM)
    d.update(over)
    return d


def two_arm(**over):
    d = dict(TWO_ARM)
    d.update(over)
    return d


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


class TestParseConfig:
    def test_accepts_text_and_dict(self):
        from_text = parse_config(json.dumps(one_arm(seed=1)))
        from_dict = parse_config(one_arm(seed=1))
        assert from_text == from_dict
        assert from_text.design == "one-arm"
        assert from_text.delta == 0.5

    def test_defaults(self):
        cfg = parse_config({"n": 25, "nE": 20, "sigma": 1.0, "theta0": 0.0,
                            "theta1": 0.5, "alpha": 0.025})
        assert cfg.design == "one-arm"
        assert cfg.method == "none"
        assert isinstance(cfg.seed, int)      # randomized but recorded

    def test_rejects_invalid_json_and_non_objects(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")
        with pytest.raises(ConfigError, match="flat JSON object"):
            parse_config("[1, 2]")

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="'effect_size'"):
            parse_config(one_arm(effect_size=0.5))

    def test_missing_required_key_is_named(self):
        doc = one_arm()
        del doc["sigma"]
        with pytest.raises(ConfigError, match="'sigma'"):
            parse_config(doc)

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="'n'"):
            parse_config(one_arm(n=True))

    def test_delta_exactly_with_fixed_pp(self):
        doc = one_arm()
        del doc["delta"]
        with pytest.raises(ConfigError, match="'delta'"):
            parse_config(doc)
        with pytest.raises(ConfigError, match="'delta'"):
            parse_config(one_arm(method="eb-pp"))
        with pytest.raises(ConfigError, match="'delta'"):
            parse_config(one_arm(delta=1.5))

    def test_one_arm_forbids_two_arm_counts(self):
        with pytest.raises(ConfigError, match="'nc'"):
            parse_config(one_arm(nc=15))

    def test_two_arm_forbids_one_arm_keys(self):
        with pytest.raises(ConfigError, match="'n'"):
            parse_config(two_arm(n=25))
        with pytest.raises(ConfigError, match="'theta0'"):
            parse_config(two_arm(theta0=0.0))

    def test_one_arm_grid_and_thetaE_are_exclusive(self):
        with pytest.raises(ConfigError, match="mutually"):
            parse_config(one_arm(thetaE=0.0,
                                 grid={"start": 0, "stop": 1, "step": 0.5}))

    def test_grid_validation(self):
        for bad in ([0, 1, 0.5],
                    {"start": 0, "stop": 1},
                    {"start": 0, "stop": 1, "step": 0.5, "pad": 1},
                    {"start": 0, "stop": 1, "step": 0},
                    {"start": 1, "stop": 0, "step": 0.5},
                    {"start": 0, "stop": 1, "step": True}):
            with pytest.raises(ConfigError):
                parse_config(one_arm(grid=bad))

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="'seed'"):
            parse_config(one_arm(seed=-1))
        with pytest.raises(ConfigError, match="'seed'"):
            parse_config(one_arm(seed=2**64))

    def test_unknown_method_and_design(self):
        with pytest.raises(ConfigError, match="'method'"):
            parse_config(one_arm(method="cautious"))
        with pytest.raises(ConfigError, match="'design'"):
            parse_config(one_arm(design="three-arm"))


class TestGridPoints:
    def test_expansion_includes_endpoint(self):
        cfg = parse_config(one_arm(grid={"start": 0.0, "stop": 1.0,
                                         "step": 0.25}))
        assert cfg.grid_points() == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0))

    def test_quarter_steps_do_not_drop_the_endpoint(self):
        cfg = parse_config(one_arm(grid={"start": -3.0, "stop": 3.0,
                                         "step": 0.25}))
        pts = cfg.grid_points()
        assert len(pts) == 25
        assert pts[-1] == pytest.approx(3.0, abs=1e-12)

    def test_missing_grid_is_an_error(self):
        cfg = parse_config(one_arm())
        with pytest.raises(ConfigError, match="'grid'"):
            cfg.grid_points()


class TestConfigHash:
    def test_seed_is_excluded(self):
        a = parse_config(one_arm(seed=1))
        b = parse_config(one_arm(seed=99))
        assert cli._config_sha256(a) == cli._config_sha256(b)

    def test_everything_else_is_included(self):
        a = parse_config(one_arm(seed=1))
        b = parse_config(one_arm(seed=1, sigma=1.5))
        assert cli._config_sha256(a) != cli._config_sha256(b)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["one-arm-fixed", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_IO
        assert "I/O error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{broken", encoding="utf-8")
        rc = main(["one-arm-fixed", "--config", str(p),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        path = write_config(tmp_path, one_arm(bogus=1))
        rc = main(["one-arm-fixed", "--config", path,
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "'bogus'" in capsys.readouterr().err

    def test_subcommand_design_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, two_arm(thetaE=0.0))
        rc = main(["one-arm-fixed", "--config", path,
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    def test_missing_thetaE_for_replicate_study(self, tmp_path, capsys):
        path = write_config(tmp_path, one_arm())
        rc = main(["one-arm-fixed", "--config", path,
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "'thetaE'" in capsys.readouterr().err

    def test_missing_grid_for_sweep(self, tmp_path, capsys):
        path = write_config(tmp_path, one_arm())
        rc = main(["one-arm-grid", "--config", path,
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "'grid'" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, doc", [
        ("one-arm-grid", one_arm(grid={"start": 0.0, "stop": 0.5,
                                       "step": 0.5})),
        ("region", one_arm(grid={"start": 0.0, "stop": 0.5, "step": 0.5})),
        ("two-arm-profile", two_arm()),
    ])
    def test_mc_audit_rejected_where_it_has_no_route(self, tmp_path, capsys,
                                                     subcommand, doc):
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = main([subcommand, "--config", path, "--out", str(out),
                   "--mc-audit"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert subcommand in err and "--mc-audit" in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["0", "inf"])
    def test_unusable_tolerance(self, tmp_path, capsys, tol):
        doc = two_arm(method="eb-pp", thetaE=0.1,
                      grid={"start": 0.0, "stop": 0.7, "step": 0.7})
        del doc["delta"]
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["two-arm-random", "--config", path, "--out", str(out),
                   "--tol", tol])
        assert rc == EXIT_CONFIG
        assert "tol" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_failure_maps_to_exit_3(self, tmp_path, capsys,
                                            monkeypatch):
        def blow_up(*args, **kwargs):
            raise NonConvergenceError("budget exhausted")

        monkeypatch.setattr(cli, "run_grid", blow_up)
        cfg = parse_config(one_arm(grid={"start": 0, "stop": 1, "step": 0.5}))
        rc = dispatch("one-arm-grid", cfg, tmp_path / "out")
        assert rc == EXIT_NUMERICS
        assert "numeric error" in capsys.readouterr().err

    def test_unwritable_output_maps_to_exit_4(self, tmp_path, capsys):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory", encoding="utf-8")
        cfg = parse_config(one_arm(grid={"start": 0, "stop": 1, "step": 0.5}))
        rc = dispatch("one-arm-grid", cfg, target)
        assert rc == EXIT_IO


class TestOutputs:
    def test_grid_outputs_and_deterministic_provenance(self, tmp_path):
        path = write_config(tmp_path, one_arm(
            grid={"start": -0.5, "stop": 0.5, "step": 0.5}))
        out = tmp_path / "out"
        assert main(["one-arm-grid", "--config", path,
                     "--out", str(out)]) == EXIT_OK

        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0].startswith("# scenario=")
        assert "seed=none" in lines[0]
        assert "nsim=3" in lines[0]
        assert lines[1] == ("replicate,dE_mean,t1e_borrow,power_borrow,"
                            "power_calibrated,power_diff")
        assert len(lines) == 2 + 3
        # numeric fields round-trip exactly through repr
        row = lines[2].split(",")
        assert float(row[1]) == -0.5

        summary = json.loads((out / "summary.json").read_text())
        assert list(summary)[0] == "provenance"
        assert summary["provenance"]["seed"] is None
        assert set(summary["summary"]) == {
            "mean_t1e", "mean_power_diff", "t1e_min", "t1e_max", "t1e_median",
            "power_diff_min", "power_diff_max", "power_diff_median"}

    def test_replicate_study_reruns_byte_identically(self, tmp_path):
        path = write_config(tmp_path, one_arm(thetaE=0.0, seed=42, nsim=5))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["one-arm-fixed", "--config", path,
                     "--out", str(out1)]) == EXIT_OK
        assert main(["one-arm-fixed", "--config", path,
                     "--out", str(out2)]) == EXIT_OK
        assert (out1 / "records.csv").read_bytes() == \
            (out2 / "records.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == \
            (out2 / "summary.json").read_bytes()

    def test_seed_override_changes_draws_but_not_hash(self, tmp_path):
        path = write_config(tmp_path, one_arm(thetaE=0.0, seed=42, nsim=5))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["one-arm-fixed", "--config", path, "--out", str(out1)])
        main(["one-arm-fixed", "--config", path, "--out", str(out2),
              "--seed", "43"])
        rec1 = (out1 / "records.csv").read_text().splitlines()
        rec2 = (out2 / "records.csv").read_text().splitlines()
        assert rec1[2:] != rec2[2:]
        sha = lambda line: line.rsplit("config_sha256=", 1)[1]
        assert sha(rec1[0]) == sha(rec2[0])
        assert "seed=43" in rec2[0]

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        assert cli._build_parser() is cli._build_parser()
        path = write_config(tmp_path, one_arm(thetaE=0.0, seed=42, nsim=2))
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["one-arm-fixed", "--config", path, "--out", str(first),
                     "--seed", "5"]) == EXIT_OK
        assert main(["one-arm-fixed", "--config", path,
                     "--out", str(second)]) == EXIT_OK
        for out, seed in ((first, 5), (second, 42)):
            summary = json.loads((out / "summary.json").read_text())
            assert summary["provenance"]["seed"] == seed
            assert f"seed={seed}," in (out / "records.csv").read_text()

    def test_nsim_override_controls_row_count(self, tmp_path):
        path = write_config(tmp_path, one_arm(thetaE=0.0, seed=1, nsim=5))
        out = tmp_path / "out"
        main(["one-arm-fixed", "--config", path, "--out", str(out),
              "--nsim", "3"])
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 2 + 3

    def test_two_arm_profile_summary(self, tmp_path):
        path = write_config(tmp_path, two_arm(
            grid={"start": -1.0, "stop": 1.0, "step": 1.0}))
        out = tmp_path / "out"
        assert main(["two-arm-profile", "--config", path,
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[1] == "offset,t1e,power_borrow,power_calibrated,power_diff"
        assert len(lines) == 2 + 3
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["profile"]) == {"alphaB_max", "argmax_offset",
                                           "power_calibrated"}
        # fixed weights saturate past the grid's upper end
        assert summary["profile"]["alphaB_max"] > 0.999999

    def test_two_arm_random_exact_is_seedless(self, tmp_path):
        path = write_config(tmp_path, two_arm(
            thetaE=0.0, grid={"start": -1.0, "stop": 1.0, "step": 1.0}))
        out = tmp_path / "out"
        assert main(["two-arm-random", "--config", path,
                     "--out", str(out)]) == EXIT_OK
        first = (out / "profile.csv").read_text().splitlines()[0]
        assert "seed=none" in first

    def test_two_arm_random_mc_audit_records_seed(self, tmp_path):
        path = write_config(tmp_path, two_arm(
            thetaE=0.0, seed=7, nsim=50,
            grid={"start": -1.0, "stop": 1.0, "step": 1.0}))
        out = tmp_path / "out"
        assert main(["two-arm-random", "--config", path, "--out", str(out),
                     "--mc-audit"]) == EXIT_OK
        first = (out / "profile.csv").read_text().splitlines()[0]
        assert "seed=7" in first
        assert "nsim=50" in first

    @pytest.mark.parametrize("subcommand, flags", [
        ("two-arm-profile", []), ("two-arm-random", []),
        ("two-arm-random", ["--mc-audit"])])
    def test_profile_csv_cells_are_exact_repr(self, tmp_path, subcommand,
                                              flags):
        doc = two_arm(seed=7, nsim=50,
                      grid={"start": -3.0, "stop": 0.5, "step": 0.5})
        if subcommand == "two-arm-random":
            doc["thetaE"] = 0.25
        out = tmp_path / "out"
        assert main([subcommand, "--config", write_config(tmp_path, doc),
                     "--out", str(out), *flags]) == EXIT_OK
        cfg = parse_config(doc)
        scen, method = cfg.scenario(), cfg.borrowing_method()
        offsets = cfg.grid_points()
        if subcommand == "two-arm-profile":
            prof = power_profile(scen, 0.0, method, offsets)
        elif flags:
            prof = oc_random_external_two_arm_mc(scen, 0.25, method, offsets,
                                                 50, 7)
        else:
            prof = oc_random_external_two_arm(scen, 0.25, method, offsets)
        lines = (out / "profile.csv").read_text().splitlines()
        summary = json.loads((out / "summary.json").read_text())
        assert lines[0] == cli._provenance_line(summary["provenance"])
        assert lines[1] == "offset,t1e,power_borrow,power_calibrated,power_diff"
        rows = [line.split(",") for line in lines[2:]]
        want = list(zip(prof.grid, prof.t1e, prof.power_borrow,
                        [prof.power_calibrated] * len(prof.grid),
                        prof.power_diff))
        assert len(rows) == len(want) == 8
        for row, values in zip(rows, want):
            assert row == [repr(v) for v in values]
            assert [float(cell).hex() for cell in row] == [
                v.hex() for v in values]
        assert rows[0][0] == "-3.0"         # integral offsets keep their ".0"

    def test_region_table(self, tmp_path):
        path = write_config(tmp_path, one_arm(
            grid={"start": -0.2, "stop": 0.2, "step": 0.2}))
        out = tmp_path / "out"
        assert main(["region", "--config", path, "--out", str(out)]) == EXIT_OK
        lines = (out / "region.csv").read_text().splitlines()
        assert lines[1] == "dE_mean,interval_index,lo,hi"
        assert len(lines) == 2 + 3          # one interval per grid point here
        summary = json.loads((out / "summary.json").read_text())
        assert [r["interval_count"] for r in summary["regions"]] == [1, 1, 1]
        assert not any(r["flagged"] for r in summary["regions"])

    def test_region_refuses_far_external_means(self, tmp_path, capsys):
        # Empirical Bayes boundaries lose their digits 1e6 se from theta0
        doc = one_arm(method="eb-pp",
                      grid={"start": 0.0, "stop": 1e10, "step": 5e9})
        del doc["delta"]
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["region", "--config", path, "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "standard errors from theta0" in err
        # the table is one batch call; it names the first far grid value
        assert "external mean 5000000000.0 lies" in err
        assert not out.exists()             # refused before the directory

    def test_region_requires_one_arm(self, tmp_path, capsys):
        path = write_config(tmp_path, two_arm(
            grid={"start": 0.0, "stop": 1.0, "step": 0.5}))
        rc = main(["region", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_mc_audit_replicate_study(self, tmp_path):
        path = write_config(tmp_path, one_arm(thetaE=0.0, seed=3, nsim=2))
        out = tmp_path / "out"
        assert main(["one-arm-fixed", "--config", path, "--out", str(out),
                     "--mc-audit"]) == EXIT_OK
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 2 + 2


class TestScenarioConfigBridge:
    def test_scenario_objects_round_trip(self):
        cfg1 = parse_config(one_arm(seed=0))
        scen1 = cfg1.scenario()
        assert (scen1.n, scen1.nE, scen1.sigma) == (25, 20, 1.0)
        assert scen1.c == 0.975

        cfg2 = parse_config(two_arm(seed=0))
        scen2 = cfg2.scenario()
        assert (scen2.nc, scen2.nt, scen2.nE) == (15, 15, 10)

    def test_borrowing_method_bridge(self):
        assert parse_config(one_arm(seed=0)).borrowing_method().delta == 0.5
        eb = one_arm(method="eb-pp")
        del eb["delta"]
        assert parse_config(eb).borrowing_method().kind == "eb-pp"

    def test_invalid_scenario_values_surface_as_config_exit(self, tmp_path,
                                                            capsys):
        # scenario-level validation (alternative below the null) is caught
        # by dispatch and mapped to the configuration exit code
        path = write_config(tmp_path, one_arm(theta1=-0.5, thetaE=0.0))
        rc = main(["one-arm-fixed", "--config", path,
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG


# The dispatch rules, written out independently of cli.py: the design each
# subcommand requires (None: either), whether it needs thetaE, whether
# --mc-audit has a route, and whether it reads the grid.
RULES = {
    "one-arm-fixed": ("one-arm", True, True, False),
    "one-arm-grid": ("one-arm", False, False, True),
    "one-arm-random": ("one-arm", True, True, False),
    "two-arm-profile": ("two-arm", False, False, False),
    "two-arm-random": ("two-arm", True, True, False),
    "algorithm1": (None, True, True, False),
    "algorithm2": (None, True, True, False),
    "region": ("one-arm", False, False, True),
}
SMALL_GRID = {"start": 0.0, "stop": 0.5, "step": 0.5}


def matrix_config(design, with_thetaE):
    doc = one_arm() if design == "one-arm" else two_arm()
    doc.update(seed=5, nsim=3)
    if with_thetaE:
        doc["thetaE"] = 0.0
    if design == "two-arm" or not with_thetaE:
        # one-arm grid and thetaE are mutually exclusive
        doc["grid"] = SMALL_GRID
    return doc


def expected_outcome(subcommand, design, with_thetaE, mc_audit):
    """Exit status and the words the error message must contain."""
    need_design, need_thetaE, audit_route, need_grid = RULES[subcommand]
    if mc_audit and not audit_route:
        return EXIT_CONFIG, (subcommand, "--mc-audit")
    if need_design not in (None, design):
        return EXIT_CONFIG, (need_design,)
    if need_thetaE and not with_thetaE:
        return EXIT_CONFIG, ("'thetaE'",)
    if need_grid and with_thetaE:
        return EXIT_CONFIG, ("'grid'",)
    return EXIT_OK, ()


class TestDecisionMatrix:
    @pytest.mark.parametrize("mc_audit", [False, True])
    @pytest.mark.parametrize("with_thetaE", [True, False])
    @pytest.mark.parametrize("design", ["one-arm", "two-arm"])
    @pytest.mark.parametrize("subcommand", list(RULES))
    def test_exit_code_and_named_cause(self, tmp_path, capsys, subcommand,
                                       design, with_thetaE, mc_audit):
        path = write_config(tmp_path, matrix_config(design, with_thetaE))
        out = tmp_path / "out"
        argv = [subcommand, "--config", path, "--out", str(out)]
        rc = main(argv + ["--mc-audit"] if mc_audit else argv)
        code, words = expected_outcome(subcommand, design, with_thetaE,
                                       mc_audit)
        assert rc == code
        err = capsys.readouterr().err
        for word in words:
            # a design name must stand alone, not inside a subcommand name
            assert re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", err)
        if code != EXIT_OK:
            assert not out.exists()

    def test_subcommand_names_agree(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert tuple(sub.choices) == cli.SUBCOMMANDS == tuple(RULES)
        assert tuple(cli._SUBCOMMAND_RULES) == cli.SUBCOMMANDS


# each subcommand's table (records.csv where not named), its header line
# and the keys of summary.json, in order
TABLE_OF = {"two-arm-profile": "profile.csv", "two-arm-random": "profile.csv",
            "region": "region.csv"}
TABLES = {
    "records.csv": ("replicate,dE_mean,t1e_borrow,power_borrow,"
                    "power_calibrated,power_diff",
                    ["provenance", "summary", "scenario"]),
    "profile.csv": ("offset,t1e,power_borrow,power_calibrated,power_diff",
                    ["provenance", "profile"]),
    "region.csv": ("dE_mean,interval_index,lo,hi", ["provenance", "regions"]),
}
OUTPUT_CASES = [(subcommand, design, flags)
                for subcommand, (need, _, audit, _) in RULES.items()
                for design in ((need,) if need else ("one-arm", "two-arm"))
                for flags in ([[], ["--mc-audit"]] if audit else [[]])]


@pytest.mark.parametrize("subcommand, design, flags", OUTPUT_CASES,
                         ids=[f"{s}-{d}{'-audit' if f else ''}"
                              for s, d, f in OUTPUT_CASES])
def test_every_subcommand_writes_one_table_and_summary(tmp_path, subcommand,
                                                       design, flags):
    path = write_config(tmp_path, matrix_config(design, RULES[subcommand][1]))
    out = tmp_path / "out"
    assert main([subcommand, "--config", path, "--out", str(out),
                 *flags]) == EXIT_OK
    table = TABLE_OF.get(subcommand, "records.csv")
    header, keys = TABLES[table]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [table, "summary.json"])
    lines = (out / table).read_text(encoding="utf-8").splitlines()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert lines[0] == cli._provenance_line(summary["provenance"])
    assert lines[1] == header
    assert list(summary) == keys


def _without(doc, key):
    doc = dict(doc)
    del doc[key]
    return doc


def _eb(doc):
    return _without(dict(doc, method="eb-pp"), "delta")


SINGLE_FAULTS = [
    # required keys
    *[(_without(ONE_ARM, k), k) for k in ("n", "nE", "sigma", "theta0",
                                          "theta1", "alpha", "delta")],
    *[(_without(TWO_ARM, k), k) for k in ("nc", "nt", "nE", "sigma",
                                          "theta1", "alpha")],
    # forbidden keys
    (one_arm(nc=15), "nc"), (one_arm(nt=15), "nt"),
    (two_arm(n=25), "n"), (two_arm(theta0=0.0), "theta0"),
    (dict(_eb(ONE_ARM), delta=0.5), "delta"),
    (one_arm(method="none"), "delta"),
    # typed keys
    (one_arm(design=1), "design"), (one_arm(method=0), "method"),
    (one_arm(delta="half"), "delta"), (one_arm(delta=2.0), "delta"),
    (one_arm(sigma=True), "sigma"), (one_arm(sigma=math.inf), "sigma"),
    (one_arm(alpha="0.025"), "alpha"), (one_arm(theta1=None), "theta1"),
    (one_arm(theta0=[0.0]), "theta0"), (one_arm(sigmaE="1"), "sigmaE"),
    (one_arm(c=math.nan), "c"), (one_arm(thetaE="0"), "thetaE"),
    (one_arm(n=2.5), "n"), (one_arm(n=0), "n"), (one_arm(nE=-1), "nE"),
    (one_arm(nsim=0), "nsim"), (one_arm(nsim=1.0), "nsim"),
    (two_arm(nc=0), "nc"), (two_arm(nt="15"), "nt"),
    (one_arm(seed=1.5), "seed"), (one_arm(seed=-1), "seed"),
    (one_arm(grid=[0, 1, 0.5]), "grid"),
    (one_arm(grid={"start": 0, "stop": 1}), "step"),
    (one_arm(grid={"start": "0", "stop": 1, "step": 0.5}), "start"),
    (one_arm(grid={"start": 0, "stop": math.inf, "step": 0.5}), "stop"),
    (one_arm(grid={"start": 0, "stop": 1, "step": 0}), "step"),
    (one_arm(grid={"start": 0, "stop": 1, "step": 0.5, "pad": 1}), "pad"),
    (one_arm(effect=0.5), "effect"),
    # values only the scenario's own rules refuse
    (one_arm(sigma=0.0), "sigma"), (one_arm(sigmaE=-1.0), "sigmaE"),
    (one_arm(alpha=1.5), "alpha"), (one_arm(c=1.0), "c"),
    (one_arm(theta1=0.0), "theta1"), (two_arm(theta1=-1.0), "theta1"),
    # thresholds below 1/2, given as c or as c = 1 - alpha
    (one_arm(c=0.3), "c"), (one_arm(alpha=0.7), "alpha"),
]


@pytest.mark.parametrize("doc, key", SINGLE_FAULTS,
                         ids=[f"{i}-{k}" for i, (_, k) in
                              enumerate(SINGLE_FAULTS)])
def test_single_fault_names_its_key(tmp_path, capsys, doc, key):
    path = write_config(tmp_path, doc)
    rc = main(["algorithm1", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    with pytest.raises(ConfigError, match=f"'{key}'"):
        parse_config(doc)


@pytest.mark.parametrize("doc, message", [
    (one_arm(n=2.5), "config key 'n' must be an integer, got 2.5"),
    (one_arm(seed="7"), "config key 'seed' must be an integer, got '7'"),
    (one_arm(method=0), "config key 'method' must be a string, got 0"),
    (one_arm(alpha="0.025"),
     "config key 'alpha' must be a number, got '0.025'"),
    (one_arm(n=0), "config key 'n' must be a positive integer, got 0"),
], ids=["count-as-float", "seed-as-text", "method-as-number",
        "number-as-text", "count-out-of-range"])
def test_config_fault_message(doc, message):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == message


def test_cli_import_loads_no_scipy_module_but_special(tmp_path):
    """Loading the CLI costs scipy.special only: scipy.optimize is imported
    by find_root when called, and nothing loads scipy.stats or the like."""
    code = ("import sys, borrowoc.cli; "
            "print('\\n'.join(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(borrowoc.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            cwd=tmp_path, capture_output=True, text=True,
                            check=True).stdout.split()
    assert "scipy.special" in loaded
    extra = [m for m in loaded if m != "scipy" and not (
        m.split(".")[1] in ("special", "version") or m.split(".")[1][0] == "_")]
    assert extra == []


def test_python_m_borrowoc_runs_the_command_line(tmp_path):
    """``python -m borrowoc`` is the command line, with no warning about
    how the package was loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(borrowoc.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-W", "always", "-m", "borrowoc",
                          "--help"], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert run.returncode == 0
    assert run.stdout.startswith("usage: borrowoc")
    assert "RuntimeWarning" not in run.stderr
