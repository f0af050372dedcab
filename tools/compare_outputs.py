"""Compare every benchmark command's outputs between a git revision and
this working tree.

    python3 tools/compare_outputs.py REV [--seeds 0 7 13]

Exports REV with ``git archive`` into a temporary directory, then runs
every command of ``bench/workloads.py`` (all workloads, each seed), and
the :data:`EXTRA` commands of the routes no benchmark command takes, on the
exported tree and on this one, each tree in its own subprocess with only
its own ``src`` on the import path.  For each output file it prints
``same`` when the bytes are identical, or else the largest absolute
difference of each numeric CSV column or JSON leaf that moved and the
count of other cells that differ.  Exits 1 when a file is missing on one
side or a non-numeric value differs, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# two-arm Monte Carlo routes that no benchmark command takes: (name,
# subcommand, config over workloads.TWO_ARM, flags).  Each seed runs them
# at thetaE = seed / 20 - 0.3 with the seed as the run's seed; 2,100 draws
# cross a row-block seam.
EXTRA = (
    ("alg2-fixedpp", "algorithm2", {"method": "fixed-pp", "delta": 0.5}, []),
    ("alg2-none", "algorithm2", {"method": "none"}, []),
    ("alg2-eb-audit", "algorithm2", {"method": "eb-pp"}, ["--mc-audit"]),
    ("alg2-fixedpp-audit", "algorithm2",
     {"method": "fixed-pp", "delta": 0.5}, ["--mc-audit"]),
    ("alg2-none-audit", "algorithm2", {"method": "none"}, ["--mc-audit"]),
    ("alg2-eb-one-offset", "algorithm2",
     {"method": "eb-pp", "grid": {"start": 0.5, "stop": 0.5, "step": 1.0}},
     []),
    ("random-fixedpp-audit", "two-arm-random",
     {"method": "fixed-pp", "delta": 0.5}, ["--mc-audit"]),
)
EXTRA_NSIM = 2100

# runs in the child: argv = src dir, bench dir, out dir, EXTRA as JSON,
# EXTRA_NSIM, seeds...
RUNNER = """
import json
import sys
from pathlib import Path
src, bench, out, extra, extra_nsim, *seeds = sys.argv[1:]
sys.path[:0] = [src, bench]
from borrowoc.cli import main
import workloads
for seed in map(int, seeds):
    runs = {name: workloads.generate(name, seed) for name in workloads.WORKLOADS}
    runs["extra"] = [workloads.Command(name, sub, {
        **workloads.TWO_ARM, "thetaE": seed / 20 - 0.3, "seed": seed,
        "nsim": int(extra_nsim), **cfg}, tuple(flags))
        for name, sub, cfg, flags in json.loads(extra)]
    for name, cmds in runs.items():
        where = Path(out) / name / str(seed)
        configs = workloads.write_configs(cmds, Path(out + "-configs")
                                          / name / str(seed))
        for cmd in cmds:
            rc = main(cmd.argv(configs[cmd.name], str(where / cmd.name)))
            if rc != 0:
                sys.exit(f"{name} seed {seed} {cmd.name}: exit code {rc}")
"""


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest`` with ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          rev], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def run_tree(tree: Path, out: Path, seeds) -> None:
    subprocess.run([sys.executable, "-c", RUNNER, str(tree / "src"),
                    str(ROOT / "bench"), str(out), json.dumps(EXTRA),
                    str(EXTRA_NSIM), *map(str, seeds)],
                   check=True, cwd=out.parent)


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _leaves(doc, path=""):
    """(path, value) of every leaf of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def _csv_cells(text):
    """(column name, cell) of every data cell of a CSV text; lines that
    start with '#' are compared as one cell each."""
    lines = text.splitlines()
    notes = [("#", line) for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    header = rows[0] if rows else []
    return notes + [(header[j] if j < len(header) else f"col{j}", cell)
                    for row in rows[1:] for j, cell in enumerate(row)]


def compare(a: bytes, b: bytes, suffix: str):
    """({key: largest numeric difference}, count of other differing cells)
    of two versions of one file."""
    if suffix == ".json":
        cells_a, cells_b = (list(_leaves(json.loads(v))) for v in (a, b))
    else:
        cells_a, cells_b = (_csv_cells(v.decode()) for v in (a, b))
    if len(cells_a) != len(cells_b):
        return {}, max(len(cells_a), len(cells_b))
    moved, other = {}, 0
    for (key, x), (key_b, y) in zip(cells_a, cells_b):
        if key != key_b:
            other += 1
        elif x != y:
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None or not (math.isfinite(fx)
                                                and math.isfinite(fy)):
                other += 1
            else:
                moved[key] = max(moved.get(key, 0.0), abs(fx - fy))
    return moved, other


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 7, 13])
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        old_tree = tmp / "rev"
        export(args.rev, old_tree)
        outs = {}
        for label, tree in (("rev", old_tree), ("work", ROOT)):
            outs[label] = tmp / f"out-{label}"
            outs[label].mkdir()
            run_tree(tree, outs[label], args.seeds)
        return report(outs["rev"], outs["work"])


def report(old: Path, new: Path) -> int:
    names = sorted({p.relative_to(old) for p in old.rglob("*") if p.is_file()}
                   | {p.relative_to(new) for p in new.rglob("*")
                      if p.is_file()})
    bad, same, largest = 0, 0, 0.0
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {'rev' if a.is_file() else 'work'}")
            bad += 1
            continue
        x, y = a.read_bytes(), b.read_bytes()
        if x == y:
            same += 1
            print(f"{name}: same")
            continue
        moved, other = compare(x, y, name.suffix)
        bad += other > 0
        largest = max([largest, *moved.values()])
        parts = [f"{key} {diff:.3g}" for key, diff in sorted(moved.items())]
        if other:
            parts.append(f"{other} other cells differ")
        print(f"{name}: " + "; ".join(parts))
    print(f"{same} of {len(names)} files byte-identical; largest numeric "
          f"difference {largest:.3g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
