"""borrowoc benchmark: closed-loop CLI workloads with checked outputs.

    python3 bench/run.py --workload onearm --seed 0 --seconds 50 --trace 0

One client in this process issues a workload's seed-generated list of
``borrowoc.cli.main([...])`` commands one after another, each writing into
a scratch directory under ``bench/out``, and repeats the list for a fixed
number of passes (``--seconds`` divided by the workload's nominal pass
time).  Every command's outputs are checked; a nonzero exit, a failed check
or outputs that differ between passes count as a failed command.  See
``README.md`` for the metric definitions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracing.PER_LAYER``; traced outputs must be byte-identical to untraced
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 0
# seconds one pass takes at the seed commit on a busy 2-core x86_64 host;
# fixes the pass count of a run, so both sides of a comparison take each
# command's fastest of the same number of passes
NOMINAL_PASS_S = {"onearm": 8.3, "twoarm": 5.6}
SETUP_PROBES = 7
RUN_LIMIT_S = 140.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("cmd_p50_s", "s"), ("cmd_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("success_rate", "ratio"))


def git_commit(root: Path) -> str | None:
    """HEAD of the repository at ``root``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pin_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def measure_setup(workload: str, seed: int, scratch: Path) -> list:
    """Seconds each fresh probe process took to import and generate."""
    times = []
    for k in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload,
             str(seed), str(scratch / f"probe{k}")],
            capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def latency_metrics(latencies: dict) -> dict:
    """wall_s, cmd_p50_s and cmd_tail_s from {command: untraced latencies}.

    Every command is deterministic, so only the host makes its passes
    differ, and a command's fastest pass is the one the host disturbed
    least.  Each command counts at that latency: wall_s is their sum,
    cmd_p50_s their median and cmd_tail_s the mean of their slowest
    quarter (rounded up), which averages the host's noise over several
    commands where the single slowest would carry all of it.
    """
    best = sorted(min(lat) for lat in latencies.values())
    slowest = best[-math.ceil(len(best) / 4):]
    return {"wall_s": sum(best), "cmd_p50_s": statistics.median(best),
            "cmd_tail_s": statistics.fmean(slowest)}


def run_pass(main, cmds, configs, pass_dir: Path, tracer=None) -> tuple:
    """Run every command once, traced when a tracer is given.

    Returns ({name: exit code}, {name: seconds}); a command that raises
    gets a non-integer exit code and so counts as failed.
    """
    results, times = {}, {}
    if tracer is not None:
        tracer.install()
    try:
        for cmd in cmds:
            argv = cmd.argv(configs[cmd.name], str(pass_dir / cmd.name))
            t0 = time.perf_counter()
            try:
                rc = main(argv) if tracer is None else tracer.command(main, argv)
            except Exception:
                traceback.print_exc()
                rc = "uncaught exception"
            times[cmd.name] = time.perf_counter() - t0
            results[cmd.name] = rc
    finally:
        if tracer is not None:
            tracer.restore()
    return results, times


def run(args) -> int:
    nproc = pin_threads()
    if not (SRC / "borrowoc" / "__init__.py").is_file():
        print(f"borrowoc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, nproc, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, nproc: int, work: Path) -> int:
    setup_times = measure_setup(args.workload, args.seed, work)

    import numpy
    import scipy
    from borrowoc import cli

    import checks
    import tracing

    cmds = workloads.generate(args.workload, args.seed)
    configs = workloads.write_configs(cmds, work / "configs")
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(
            (BENCH / "reference" / f"{args.workload}.json").read_text())

    passes = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    # a slow host or a slower program may cut the run short of its passes,
    # never to fewer than two, so the run stays near --seconds
    deadline = time.perf_counter() + min(1.1 * args.seconds,
                                         RUN_LIMIT_S - sum(setup_times))
    tracer = tracing.Tracer() if args.trace else None

    walls = {False: [], True: []}
    latencies = {}      # command name -> untraced latencies, one per pass
    layer_passes = []
    first = {}          # command name -> (exit code, output digest) of pass 0
    failed_cmds = {}    # command name -> reasons
    failed_at = set()   # (pass, command name)
    attempted = 0
    last_spans = []
    for k in range(passes):
        traced = tracer is not None and k % 2 == 1
        if k >= 2 and time.perf_counter() + walls[traced][-1] > deadline:
            break
        pass_dir = work / f"pass{k}"
        results, times = run_pass(cli.main, cmds, configs, pass_dir,
                                  tracer if traced else None)
        walls[traced].append(sum(times.values()))
        if traced:
            layer_passes.append(tracing.layer_totals(tracer.spans))
            last_spans = [sp.as_dict() for sp in tracer.spans]
            tracer.clear()
        else:
            for name, dt in times.items():
                latencies.setdefault(name, []).append(dt)

        for cmd in cmds:
            attempted += 1
            rc = results[cmd.name]
            out = pass_dir / cmd.name
            got = (rc, digest(out) if out.is_dir() else None)
            first.setdefault(cmd.name, got)
            reasons = []
            if rc != 0:
                reasons.append(f"exit code {rc}")
            if got != first[cmd.name]:
                reasons.append("outputs differ from pass 0"
                               + (" (traced pass)" if traced else ""))
            if reasons:
                failed_at.add((k, cmd.name))
                failed_cmds.setdefault(cmd.name, []).extend(reasons)
        if k > 0:
            shutil.rmtree(pass_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # outputs are byte-identical across passes (checked above), so checking
    # pass 0 settles every pass; a command failing a check fails each pass
    problems = checks.check_outputs(
        cmds, {c.name: work / "pass0" / c.name for c in cmds}, reference)
    n_passes = len(walls[False]) + len(walls[True])
    for name, found in problems.items():
        if found:
            failed_at.update((k, name) for k in range(n_passes))
            failed_cmds.setdefault(name, []).extend(found)
    failed = len(failed_at)

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": nproc,
           "commit": git_commit(ROOT), "workload": args.workload,
           "seed": args.seed, "trace": args.trace,
           "threads": {var: os.environ[var] for var in THREAD_VARS},
           "passes": n_passes, "commands_per_pass": len(cmds),
           "machine": platform.machine()}
    print("environment " + json.dumps(env, sort_keys=True))
    for name, reasons in failed_cmds.items():
        print(f"FAILED {name}: " + "; ".join(reasons[:5]), file=sys.stderr)

    error_rate = failed / attempted
    print(f"error_rate {error_rate!r} (failed {failed} of {attempted})")
    print(f"pass wall_s: untraced {walls[False]}, traced {walls[True]}")
    print("command latencies " + json.dumps(latencies))
    print(f"setup_s probes: {setup_times}")
    if tracer is None:
        print(f"each command at its fastest of {len(walls[False])} passes; "
              f"cmd_tail_s is the mean of the slowest "
              f"{math.ceil(len(cmds) / 4)} of {len(cmds)} commands")
        metrics = {
            **latency_metrics(latencies),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": 1.0 - error_rate}
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        by_subcommand = {}
        for cmd in cmds:
            by_subcommand.setdefault(cmd.subcommand, []).extend(
                latencies[cmd.name])
        metrics = tracing.per_layer_metrics(layer_passes, walls[False],
                                            walls[True], by_subcommand)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in last_spans))
        print(f"spans of the last traced pass: {spans_path}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
