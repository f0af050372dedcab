"""Output checks for benchmark commands.

Two kinds of check, both counted against the run's failed commands:

* invariants that hold for any workload seed -- probabilities in [0, 1],
  summaries recomputable from the records, fixed-weight ``power_diff`` = 0,
  Monte Carlo means within 4 standard errors of their exact counterparts,
  ``alphaB_max`` at least every profile level, well-formed region tables;
* at the default seed, agreement with reference values frozen from the
  seed commit (``reference/<workload>.json``) to 1e-9 in every numeric
  output.  Tables longer than ``FULL_ROWS`` rows are frozen as every k-th
  row plus each column's sum, which keeps the reference files small.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

REF_TOL = 1e-9
SUM_TOL = 1e-12
Z_MAX = 4.0
FULL_ROWS = 1000
SAMPLE_ROWS = 200
PROB_COLUMNS = ("t1e_borrow", "power_borrow", "power_calibrated", "t1e")

TABLE_OF = {"two-arm-profile": "profile.csv", "two-arm-random": "profile.csv",
            "region": "region.csv"}


def table_name(cmd) -> str:
    return TABLE_OF.get(cmd.subcommand, "records.csv")


def read_table(path: Path) -> tuple:
    """(header line, {column: list of floats}) of a provenance-headed CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path.name}: missing provenance line")
    header = lines[1]
    names = header.split(",")
    cols = {name: [] for name in names}
    for line in lines[2:]:
        for name, cell in zip(names, line.split(",")):
            cols[name].append(float(cell))
    return header, cols


def _numeric_leaves(doc, prefix: str = "") -> dict:
    if isinstance(doc, dict):
        out = {}
        for key, val in doc.items():
            out.update(_numeric_leaves(val, f"{prefix}{key}."))
        return out
    if isinstance(doc, list):
        out = {}
        for i, val in enumerate(doc):
            out.update(_numeric_leaves(val, f"{prefix}{i}."))
        return out
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return {prefix[:-1]: float(doc)}
    return {}


def _close(a: float, b: float, tol: float) -> bool:
    return a == b or abs(a - b) <= tol


# ---------------------------------------------------------------------------
# frozen references


def snapshot(cmd, out_dir: Path) -> dict:
    """Reference record of one command's outputs (see module docstring)."""
    header, cols = read_table(out_dir / table_name(cmd))
    rows = len(next(iter(cols.values())))
    every = 1 if rows <= FULL_ROWS else math.ceil(rows / SAMPLE_ROWS)
    table = {"header": header, "rows": rows, "every": every,
             "columns": {name: vals[::every] for name, vals in cols.items()}}
    if every > 1:
        table["sums"] = {name: math.fsum(vals) for name, vals in cols.items()}
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    return {"table": table, "summary": _numeric_leaves(summary)}


def compare_reference(ref: dict, cmd, out_dir: Path) -> list:
    problems = []
    header, cols = read_table(out_dir / table_name(cmd))
    table = ref["table"]
    if header != table["header"]:
        return [f"table header {header!r} != reference {table['header']!r}"]
    rows = len(next(iter(cols.values())))
    if rows != table["rows"]:
        return [f"{rows} table rows != reference {table['rows']}"]
    every = table["every"]
    for name, want in table["columns"].items():
        got = cols[name][::every]
        bad = [i * every for i, (a, b) in enumerate(zip(got, want))
               if not _close(a, b, REF_TOL)]
        if bad:
            i = bad[0]
            problems.append(f"{name}[{i}] = {cols[name][i]!r} differs from "
                            f"reference {want[i // every]!r} "
                            f"({len(bad)} sampled rows differ)")
    for name, want in table.get("sums", {}).items():
        got = math.fsum(cols[name])
        if not _close(got, want, rows * REF_TOL):
            problems.append(f"sum of {name} = {got!r} differs from reference "
                            f"{want!r} by more than {rows} x {REF_TOL}")
    summary = _numeric_leaves(
        json.loads((out_dir / "summary.json").read_text(encoding="utf-8")))
    for key, want in ref["summary"].items():
        if key not in summary:
            problems.append(f"summary.json lacks {key}")
        elif not _close(summary[key], want, REF_TOL):
            problems.append(f"summary.json {key} = {summary[key]!r} differs "
                            f"from reference {want!r}")
    return problems


# ---------------------------------------------------------------------------
# seed-independent invariants


def _check_probabilities(cols: dict) -> list:
    problems = []
    for name in PROB_COLUMNS:
        bad = [v for v in cols.get(name, ()) if not 0.0 <= v <= 1.0]
        if bad:
            problems.append(f"{len(bad)} {name} values outside [0, 1], "
                            f"e.g. {bad[0]!r}")
    return problems


def _check_records(cmd, cols: dict, summary: dict) -> list:
    problems = _check_probabilities(cols)
    n = len(cols["replicate"])
    if n != summary["provenance"]["nsim"]:
        problems.append(f"{n} records for nsim={summary['provenance']['nsim']}")
    if cols["replicate"] != [float(j) for j in range(n)]:
        problems.append("replicate column is not 0..n-1")
    t1e, diff = cols["t1e_borrow"], cols["power_diff"]
    recomputed = {
        "mean_t1e": math.fsum(t1e) / n,
        "mean_power_diff": math.fsum(diff) / n,
        "t1e_min": min(t1e), "t1e_max": max(t1e),
        "t1e_median": statistics.median(t1e),
        "power_diff_min": min(diff), "power_diff_max": max(diff),
        "power_diff_median": statistics.median(diff)}
    for key, val in recomputed.items():
        got = summary["summary"][key]
        if not _close(got, val, SUM_TOL):
            problems.append(f"summary {key} = {got!r} but the records give "
                            f"{val!r}")
    if cmd.config["method"] == "fixed-pp" \
            and cmd.subcommand in ("one-arm-grid", "one-arm-fixed"):
        worst = max(abs(v) for v in diff)
        if worst > REF_TOL:
            problems.append(f"fixed-weight power_diff reaches {worst!r}")
    if cmd.subcommand == "one-arm-random" \
            and cmd.config["method"] in ("fixed-pp", "none"):
        problems += _check_closed_form_random(cmd, cols)
    return problems


def _check_closed_form_random(cmd, cols: dict) -> list:
    """Monte Carlo means against the closed-form random-external OC."""
    from borrowoc import ScenarioOneArm, oc_random_external_fixed_pp

    cfg = cmd.config
    scen = ScenarioOneArm(n=cfg["n"], nE=cfg["nE"], sigma=cfg["sigma"],
                          theta0=cfg["theta0"], theta1=cfg["theta1"],
                          alpha=cfg["alpha"])
    exact = oc_random_external_fixed_pp(scen, cfg["thetaE"],
                                        cfg.get("delta", 0.0))
    problems = []
    for name, want in (("t1e_borrow", exact.t1e_borrow),
                       ("power_borrow", exact.power_borrow)):
        vals = cols[name]
        mean = math.fsum(vals) / len(vals)
        se = statistics.stdev(vals) / math.sqrt(len(vals))
        if abs(mean - want) > Z_MAX * se + SUM_TOL:
            problems.append(f"mean {name} {mean!r} is more than {Z_MAX} SE "
                            f"({se:.3g}) from the closed form {want!r}")
    return problems


def _check_profile(cols: dict, summary: dict) -> list:
    problems = _check_probabilities(cols)
    prof = summary["profile"]
    amax = prof["alphaB_max"]
    if not 0.0 <= amax <= 1.0:
        problems.append(f"alphaB_max {amax!r} outside [0, 1]")
    if amax < max(cols["t1e"]):
        problems.append(f"alphaB_max {amax!r} below a profile t1e "
                        f"{max(cols['t1e'])!r}")
    if any(v != prof["power_calibrated"] for v in cols["power_calibrated"]):
        problems.append("power_calibrated column differs from the summary")
    return problems


def _check_region(cols: dict, summary: dict) -> list:
    problems = []
    pieces = {}
    for de, idx, lo, hi in zip(cols["dE_mean"], cols["interval_index"],
                               cols["lo"], cols["hi"]):
        prev = pieces.setdefault(de, [])
        if idx != len(prev) or not lo < hi or (prev and lo <= prev[-1][1]):
            problems.append(f"malformed interval {idx:g} at dE_mean {de!r}")
        prev.append((lo, hi))
    regions = summary["regions"]
    if len(regions) != summary["provenance"]["nsim"]:
        problems.append(f"{len(regions)} regions for "
                        f"nsim={summary['provenance']['nsim']}")
    for reg in regions:
        got = len(pieces.get(reg["dE_mean"], ()))
        if got != reg["interval_count"]:
            problems.append(f"dE_mean {reg['dE_mean']!r}: {got} rows but "
                            f"interval_count {reg['interval_count']}")
    return problems


def _check_audit_pair(quad: tuple, audit: tuple, nsim: int) -> list:
    """Quadrature vs Monte Carlo profile at shared offsets.  The MC values
    are means of conditional probabilities in [0, 1], whose standard error
    is at most sqrt(m (1 - m) / nsim)."""
    (qcols, _), (acols, _) = quad, audit
    problems = []
    if qcols["offset"] != acols["offset"]:
        return ["quadrature and audit profiles use different offsets"]
    for name in ("t1e", "power_borrow"):
        for x, q, a in zip(qcols["offset"], qcols[name], acols[name]):
            se = math.sqrt(max(q * (1.0 - q), 0.0) / nsim)
            if abs(q - a) > Z_MAX * se + SUM_TOL:
                problems.append(f"{name} at offset {x!r}: quadrature {q!r} "
                                f"vs audit {a!r}, more than {Z_MAX} SE")
    return problems


def check_outputs(cmds, out_dirs, reference: dict | None) -> dict:
    """Problems found per command name (an empty list means it passed)."""
    problems = {}
    loaded = {}
    for cmd in cmds:
        out = Path(out_dirs[cmd.name])
        try:
            _, cols = read_table(out / table_name(cmd))
            summary = json.loads((out / "summary.json").read_text(
                encoding="utf-8"))
            if cmd.subcommand == "region":
                found = _check_region(cols, summary)
            elif table_name(cmd) == "profile.csv":
                found = _check_profile(cols, summary)
            else:
                found = _check_records(cmd, cols, summary)
            loaded[cmd.name] = (cols, summary)
            if reference is not None:
                found += compare_reference(reference[cmd.name], cmd, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        problems[cmd.name] = found
    for audit in cmds:
        if audit.subcommand != "two-arm-random" or "--mc-audit" not in audit.flags:
            continue
        for quad in cmds:
            if (quad.subcommand == "two-arm-random" and not quad.flags
                    and quad.config["method"] == audit.config["method"]
                    and quad.config["thetaE"] == audit.config["thetaE"]
                    and quad.name in loaded and audit.name in loaded):
                problems[audit.name] += _check_audit_pair(
                    loaded[quad.name], loaded[audit.name],
                    audit.config["nsim"])
    return problems
