"""Freeze the reference outputs that the default-seed runs compare against.

Runs every workload's commands once at the default seed and writes
``reference/<workload>.json`` (see ``checks.snapshot``).  The committed
references come from the seed commit of the benchmark; regenerate them only
when an output is meant to change, and say so where the change is recorded.

    python3 bench/freeze_reference.py [workload ...]
"""

import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from run import BENCH, DEFAULT_SEED, OUT, SRC

sys.path.insert(0, str(SRC))
from borrowoc import cli  # noqa: E402


def freeze(workload: str) -> dict:
    cmds = workloads.generate(workload, DEFAULT_SEED)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        configs = workloads.write_configs(cmds, work / "configs")
        ref = {}
        for cmd in cmds:
            out = work / cmd.name
            rc = cli.main(cmd.argv(configs[cmd.name], str(out)))
            if rc != 0:
                raise SystemExit(f"{workload}/{cmd.name} exited with {rc}")
            ref[cmd.name] = checks.snapshot(cmd, out)
        problems = checks.check_outputs(
            cmds, {c.name: work / c.name for c in cmds}, ref)
    bad = {name: found for name, found in problems.items() if found}
    if bad:
        raise SystemExit(f"{workload}: outputs fail their checks: {bad}")
    return ref


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        path = BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(freeze(name), separators=(",", ":")) + "\n")
        print(f"wrote {path} ({path.stat().st_size} bytes)")
