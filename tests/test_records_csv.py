"""records.csv written from the report's columns, checked byte for byte
against a row-by-row rendering of the same records, and reports checked
against summaries recomputed from their records."""

import dataclasses
import json
import math
import tempfile
import types

import numpy as np
import pytest

from borrowoc import ReplicateRecord, run_grid, summarize
from borrowoc import cli
from borrowoc.runner import COLUMNS, ReplicateColumns
from borrowoc.statmath import _BLOCK_ROWS

import oracles

ONE_ARM = {"design": "one-arm", "n": 25, "nE": 20, "sigma": 1.0,
           "theta0": 0.0, "theta1": 0.5, "alpha": 0.025}
RUN = {"thetaE": 0.2, "seed": 11}
TWO_ARM = {"design": "two-arm", "nc": 15, "nt": 15, "nE": 10, "sigma": 1.0,
           "theta1": 1.0, "alpha": 0.025, "thetaE": 0.3, "seed": 11}
FIXED_PP = {"method": "fixed-pp", "delta": 0.5}
EB = {"method": "eb-pp"}
GRID = {"grid": {"start": -1.0, "stop": 2.0, "step": 0.01}}

# (subcommand, config, extra flags); the first case crosses a chunk seam
CASES = {
    "random-none-seam": ("one-arm-random",
                         {**ONE_ARM, **RUN, "method": "none",
                          "nsim": _BLOCK_ROWS + 1}, ()),
    "random-fixedpp": ("one-arm-random", {**ONE_ARM, **RUN, **FIXED_PP,
                                          "nsim": 3000}, ()),
    "random-eb": ("one-arm-random", {**ONE_ARM, **RUN, **EB, "nsim": 1500},
                  ()),
    "random-audit": ("one-arm-random", {**ONE_ARM, **RUN, **FIXED_PP,
                                        "nsim": 2000}, ("--mc-audit",)),
    "fixed-eb": ("one-arm-fixed", {**ONE_ARM, **RUN, **EB, "nsim": 200}, ()),
    "fixed-eb-audit": ("one-arm-fixed", {**ONE_ARM, **RUN, **EB, "nsim": 4},
                       ("--mc-audit",)),
    "grid-eb": ("one-arm-grid", {**ONE_ARM, **EB, **GRID}, ()),
    "alg1-two-arm": ("algorithm1", {**TWO_ARM, **EB, "nsim": 3}, ()),
    "alg2-two-arm": ("algorithm2", {**TWO_ARM, **FIXED_PP, "nsim": 500}, ()),
}


def rowwise_csv(prov, report) -> str:
    """records.csv rendered one record at a time: the reference format."""
    lines = [cli._provenance_line(prov),
             "replicate,dE_mean,t1e_borrow,power_borrow,power_calibrated,"
             "power_diff"]
    for r in report.records:
        lines.append(f"{r.replicate},{repr(float(r.dE_mean))},"
                     f"{repr(float(r.t1e_borrow))},"
                     f"{repr(float(r.power_borrow))},"
                     f"{repr(float(r.power_calibrated))},"
                     f"{repr(float(r.power_diff))}")
    return "\n".join(lines) + "\n"


def provenance(report) -> dict:
    return {"scenario": report.scenario, "method": report.scenario["method"],
            "seed": report.seed, "nsim": report.nsim,
            "config_sha256": "0" * 64, "version": "0"}


def write_records(out_dir, prov, report):
    """records.csv of ``report`` (beside a bare summary.json) through the
    CLI's writer."""
    cli._write_outputs(out_dir, prov, "records.csv", COLUMNS,
                       [getattr(report.records, name) for name in COLUMNS])


def keep(run, reports):
    """``run``, appending each report it returns to ``reports``."""
    def wrapped(*args, **kwargs):
        reports.append(run(*args, **kwargs))
        return reports[-1]
    return wrapped


def check_report(report):
    cols = report.records
    for i, r in enumerate(report.records):
        assert r == ReplicateRecord(*(getattr(cols, name)[i].item()
                                      for name in COLUMNS))
        assert cols[i] == r
    again = summarize(tuple(report.records), report.seed, report.nsim,
                      report.scenario)
    for field in dataclasses.fields(report):
        if field.name != "records":
            assert repr(getattr(report, field.name)) \
                == repr(getattr(again, field.name)), field.name
    assert again.records == cols


@pytest.mark.parametrize("case", CASES)
def test_records_csv_equals_rowwise_format(case, tmp_path, monkeypatch):
    subcommand, config, flags = CASES[case]
    reports, written = [], []
    for name in ("run_algorithm1", "run_algorithm2", "run_grid"):
        monkeypatch.setattr(cli, name, keep(getattr(cli, name), reports))
    write = cli._write_outputs

    def capture(out_dir, prov, *table, **parts):
        written.append((prov, reports[-1]))
        write(out_dir, prov, *table, **parts)

    monkeypatch.setattr(cli, "_write_outputs", capture)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([subcommand, "--config", str(cfg_path), "--out", str(out),
                     *flags]) == cli.EXIT_OK
    (prov, report), = written
    text = (out / "records.csv").read_bytes().decode("utf-8")
    assert text == rowwise_csv(prov, report)
    assert len(report.records) == report.nsim
    check_report(report)


def test_constant_columns_are_bit_identical_runs():
    # formatting a column once is only right when every entry has the
    # same bits: 0.0 and -0.0 compare equal but print differently
    def rows(*cols):
        return cli._csv_rows([np.array(c) for c in cols]).decode()

    assert rows([0.25, 0.25, 0.25]) == "0.25\n" * 3
    assert rows([0.0, -0.0]) == "0.0\n-0.0\n"
    assert rows([-0.0, -0.0]) == "-0.0\n-0.0\n"
    assert rows([math.nan] * 2) == "nan\nnan\n"
    assert rows([7, 7]) == "7\n7\n"
    assert rows([7, 8], [0.0, -0.0], [math.nan] * 2) \
        == "7,0.0,nan\n8,-0.0,nan\n"


def test_two_arm_grid_records_csv(tmp_path):
    report = run_grid(oracles.TWO_ARM, (-1.0, 0.0, 0.5, 1.0),
                      oracles.FIXED_HALF)
    prov = provenance(report)
    path = tmp_path / "records.csv"
    write_records(tmp_path, prov, report)
    assert path.read_text(encoding="utf-8") == rowwise_csv(prov, report)
    check_report(report)


def test_block_mixing_kernel_and_repr_rows(tmp_path):
    # one block in which exponent-notation t1e, exact 0.0/1.0, -0.0 and
    # nan sit beside rows of fixed-notation text
    rng = np.random.default_rng(3)
    n = _BLOCK_ROWS
    t1e = rng.uniform(0.0, 0.05, n)
    t1e[::7] = 10.0 ** -rng.integers(5, 300, len(t1e[::7]))
    t1e[3::11] = 0.0
    power = rng.uniform(size=n)
    power[::5] = 1.0
    power[1::13] = -0.0
    calibrated = rng.uniform(size=n)
    calibrated[2::17] = math.nan
    cols = ReplicateColumns(np.arange(n), rng.normal(size=n), t1e, power,
                            calibrated, power - calibrated)
    report = summarize(cols, None, n, {"method": "none"})
    prov = provenance(report)
    path = tmp_path / "records.csv"
    write_records(tmp_path, prov, report)
    assert path.read_text(encoding="utf-8") == rowwise_csv(prov, report)


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    report = run_grid(cli.parse_config({**ONE_ARM, **EB}).scenario(),
                      (0.0, 0.1), oracles.EB)

    def boom(cols):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_csv_rows", boom)
    with pytest.raises(OSError, match="disk full"):
        write_records(tmp_path, provenance(report), report)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fault", ["summary-text", "summary-file"])
def test_failed_summary_write_keeps_the_earlier_pair(tmp_path, monkeypatch,
                                                      fault):
    # the summary fails, as text or as a file made after the table's: no
    # output may replace the previous run's pair, and no temp file may stay
    def run(doc):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        return cli.main(["one-arm-grid", "--config", str(cfg_path),
                         "--out", str(out)])

    def contents():
        return {p.name: p.read_bytes() for p in out.iterdir()}

    out = tmp_path / "out"
    assert run({**ONE_ARM, **EB, **GRID}) == cli.EXIT_OK
    before = contents()
    assert sorted(before) == ["records.csv", "summary.json"]
    if fault == "summary-text":
        dumps = json.dumps

        def failing_dumps(obj, **kwargs):
            if "indent" in kwargs:
                raise OSError("disk full")
            return dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", failing_dumps)
    else:
        made = []

        def mkstemp(**kwargs):
            made.append(kwargs)
            if len(made) == 2:
                raise OSError("disk full")
            return tempfile.mkstemp(**kwargs)

        monkeypatch.setattr(cli, "tempfile",
                            types.SimpleNamespace(mkstemp=mkstemp))
    assert run({**ONE_ARM, **FIXED_PP, **GRID}) == cli.EXIT_IO
    assert contents() == before
    if fault == "summary-file":
        assert len(made) == 2               # the table's temp file was made
