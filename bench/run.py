"""Benchmark of the liouvol command-line program.

Usage, from the root of a checkout:

    python3 bench/run.py --workload action_batch --seed 1 --seconds 15 --trace 0

One client drives ``liouvol.cli.main(argv)`` in process, as a closed loop
that issues one command at a time, over the workload's seeded inputs in
whole passes until ``--seconds`` have elapsed. ``--trace 0`` reports the
end-to-end metrics: set-up time, time per op and accuracy digits. Their
times are CPU time of all the process's threads (BLAS workers included),
which leaves out the time a shared virtual machine's host gives to other
tenants; the report gives the wall-clock figures beside them.
``--trace 1`` runs each command twice in a row, untraced and then with
every layer wrapped in spans (see spans.py), and reports per-layer
metrics, including the tracing overhead against the untraced runs.

The second-to-last line of standard output is the full report: machine
and library versions, seed, failures by exception type, the time of every
command, and per-command figures (action and grunsky p50/p90, curves per
second, identity and flow seconds, flow step time, accuracy digits), each
with its sample count. The last line is the summary
``{"correct", "attempted", "failed", "metrics"}``. Outputs go to
``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans  # noqa: E402
from workloads import WORKLOADS, Op, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")

# prints the wall clock and the process CPU time once the import is done
_SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import liouvol.cli\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time(),\n"
    "      liouvol.cli.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def measure_setup(samples=SETUP_SAMPLES):
    """Wall and CPU seconds from starting a fresh interpreter until
    ``import liouvol.cli`` has finished, one sample per interpreter."""
    wall, cpu = [], []
    for _ in range(samples):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchError("cannot import liouvol.cli from "
                             f"{SRC}: {proc.stderr.strip()[-400:]}")
        t_done, t_cpu, path = proc.stdout.split(maxsplit=2)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"liouvol was imported from {path.strip()}, "
                             f"not from {SRC}")
        wall.append(float(t_done) - t0)
        cpu.append(float(t_cpu))
    return wall, cpu


def import_cli():
    sys.path.insert(0, str(SRC))
    try:
        import liouvol.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import liouvol.cli from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"liouvol was imported from {cli.__file__}")
    return cli


def machine_info():
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {"name": blas.get("name"),
                        "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        info["blas"] = {"name": "unknown", "version": "unknown"}
    return info


@dataclass
class Done:
    """One finished command. ``cpu`` is the CPU time of all threads of the
    process; unlike ``wall`` it leaves out time the host of a shared
    virtual machine gave to other tenants."""

    op: Op
    wall: float
    cpu: float
    outcome: Outcome


class Record:
    """The finished commands of a run."""

    def __init__(self):
        self.ops = []           # Done
        self.passes = 0

    def passed(self, command=None):
        return [d for d in self.ops if not d.outcome.error
                and command in (None, d.op.command)]


def run_op(cli, workload, op, out_dir, state, tracer=None):
    """Run one command and check its outputs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    mark = {k: len(v) for k, v in tracer.values.items()} if tracer else {}
    crashed = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(op.argv(out_dir))
    except Exception as exc:  # the CLI must map errors to exit codes
        code, crashed = None, exc
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if crashed is not None:
        outcome = Outcome(type(crashed).__name__, wrong=True)
        print(f"{op.command} {op.curve}: uncaught "
              f"{type(crashed).__name__}: {crashed}", file=sys.stderr)
    elif code != 0:
        outcome = Outcome(failure_type(out_dir, code))
    else:
        values = {k: v[mark.get(k, 0):]
                  for k, v in tracer.values.items()} if tracer else {}
        outcome = workload.check(op, out_dir, state, values)
    return Done(op, wall, cpu, outcome)


def run_passes(cli, workload, ops, out_dir, seconds=None, passes=None,
               tracer=None):
    """Whole passes over ``ops``, either until ``seconds`` have elapsed or
    exactly ``passes`` of them. Returns the untraced record and, given a
    tracer, the traced one: each command then runs twice in a row,
    untraced and then with every layer wrapped, so that the tracing
    overhead compares adjacent runs of the same command."""
    rec = Record()
    traced = Record() if tracer else None
    start = time.perf_counter()
    while (rec.passes < passes if passes is not None
           else rec.passes == 0 or time.perf_counter() - start < seconds):
        state, traced_state = {}, {}
        for op in ops:
            rec.ops.append(run_op(cli, workload, op, out_dir, state))
            if tracer:
                patches = spans.Patches(tracer)
                try:
                    traced.ops.append(run_op(cli, workload, op, out_dir,
                                             traced_state, tracer))
                finally:
                    patches.restore()
        rec.passes += 1
    if traced:
        traced.passes = rec.passes
    return rec, traced


def failure_type(out_dir, code):
    """Exception type of a failed command, from its diagnostic.json."""
    diag = out_dir / "diagnostic.json"
    if diag.exists():
        return json.loads(diag.read_text())["error"]
    return "InputError" if code == 1 else f"exit{code}"


def median_entry(values, unit):
    """A median with the number of samples behind it; None without any."""
    if not values:
        return None
    return {"value": statistics.median(values), "unit": unit,
            "samples": len(values)}


def curves_done(rec):
    """Curves of which every command in a pass passed, summed over passes."""
    per_pass = len(rec.ops) // rec.passes
    done = 0
    for i in range(0, len(rec.ops), per_pass):
        chunk = rec.ops[i:i + per_pass]
        failed = {d.op.label for d in chunk if d.outcome.error}
        done += len({d.op.label for d in chunk} - failed)
    return done


def end_to_end(rec, setup_cpu):
    """Summary metrics, the same names on every workload. Times are CPU
    time; an op is a command, except on flow, where it is an accepted flow
    step."""
    passed = rec.passed()
    digits = [d.outcome.digits for d in passed if d.outcome.digits is not None]
    if not digits:
        raise BenchError("no command passed its checks; nothing to measure")
    cpu = sum(d.cpu for d in passed)
    units = sum(d.outcome.units for d in passed)
    return {
        "setup_s": {"value": statistics.median(setup_cpu), "unit": "s"},
        "cpu_ms_per_op": {"value": 1e3 * cpu / units, "unit": "ms"},
        "digits": {"value": statistics.median(digits), "unit": "digits"},
    }


def named_metrics(workload, rec, setup):
    """Per-command figures of the workload, each with the number of
    samples behind it. Timings are wall-clock, over passed commands."""
    passed = rec.passed()
    seconds = [d.wall for d in passed]
    digits = [d.outcome.digits for d in passed
              if d.outcome.digits is not None]
    wall, cpu = setup
    out = {"setup_s": median_entry(cpu, "s"),
           "setup_wall_s": median_entry(wall, "s")}
    if workload.name == "action_batch":
        for cmd in ("action", "grunsky"):
            ms = [1e3 * d.wall for d in rec.passed(cmd)]
            for q in (50, 90):
                out[f"{cmd}_p{q}_ms"] = {
                    "value": float(np.percentile(ms, q)), "unit": "ms",
                    "samples": len(ms)} if ms else None
        done = curves_done(rec)
        out["curves_per_s"] = {"value": done / sum(d.wall for d in rec.ops),
                               "unit": "1/s", "samples": done}
        out["grunsky_digits"] = median_entry(digits, "digits")
    elif workload.name == "identity":
        out["identity_s"] = median_entry(seconds, "s")
        out["identity_digits"] = median_entry(digits, "digits")
    else:
        steps = sum(d.outcome.values["steps"] for d in passed)
        out["flow_s"] = median_entry(seconds, "s")
        out["flow_step_ms"] = {"value": 1e3 * sum(seconds) / steps,
                               "unit": "ms", "samples": steps} \
            if steps else None
    return {k: v for k, v in out.items() if v is not None}


def summarize(records, metrics):
    """The summary line: outputs correct, commands attempted and failed."""
    done = [d for rec in records for d in rec.ops]
    return {
        "correct": not any(d.outcome.wrong for d in done),
        "attempted": len(done),
        "failed": sum(1 for d in done if d.outcome.error),
        "metrics": metrics,
    }


def failure_kinds(records):
    """{error type: {"count", "example"}} over the commands that failed."""
    kinds = {}
    for d in (d for rec in records for d in rec.ops if d.outcome.error):
        kind = kinds.setdefault(d.outcome.error, {
            "count": 0, "example": f"{d.op.command} {d.op.label}"})
        kind["count"] += 1
    return dict(sorted(kinds.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out_root = ROOT / ".bench_out" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        shutil.rmtree(out_root, ignore_errors=True)
        (out_root / "inputs").mkdir(parents=True)
        ops = workload.build(args.seed, out_root / "inputs")
        # set-up time is an end-to-end metric; a traced run reports none
        setup = ([], []) if args.trace else measure_setup()
        cli = import_cli()
        # first-call lazy set-up inside numpy and scipy is not timed
        cli.main(["action", "--curve", "circle", "--out",
                  str(out_root / "warmup")])
        cmd_dir = out_root / "command"
        tracer = spans.Tracer() if args.trace else None
        rec, traced = run_passes(cli, workload, ops, cmd_dir,
                                 seconds=args.seconds, tracer=tracer)
        records = [rec]
        if args.trace:
            records.append(traced)
            tracer.write(out_root / "trace.json")
            base = sum(d.wall for d in rec.ops)
            overhead = 100.0 * (sum(d.wall for d in traced.ops) / base - 1)
            metrics = spans.layer_metrics(tracer, len(traced.ops), overhead)
        else:
            metrics = end_to_end(rec, setup[1])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    report = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info(), "passes": rec.passes,
        "op": workload.unit,
        "named_metrics": named_metrics(workload, rec, setup),
        "failures": failure_kinds(records),
        "metrics": metrics,
        "command_columns": ["command", "curve", "wall_s", "cpu_s", "units",
                            "error"],
        "commands": [[d.op.command, d.op.label, d.wall, d.cpu,
                      d.outcome.units, d.outcome.error] for d in rec.ops],
    }
    text = json.dumps(report)
    (out_root / "report.json").write_text(text + "\n")
    print(text)
    print(json.dumps(summarize(records, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
