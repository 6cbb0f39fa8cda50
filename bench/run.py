"""Run one benchmark workload of adexsim and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs as a closed loop in this process: whole rounds of its
operations, one after another, until S seconds have passed (at least one
round).  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 spans around each adexsim
module give the per-layer metrics instead.  Metric names and units come
from BENCHMARK.json at the root of the checkout.  A record of the run is
printed on the line before and written under bench/out/records/.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402  (set-up time counts from START)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("patterns", "wide", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one more set-up sample in a fresh interpreter
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def attempt(op, tracer=None):
    """Run one operation, then check it; returns (ok, wall s, cpu s).
    Only the call itself is timed."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        result = op.run()
    except Exception:
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        print(f"operation {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return False, wall, cpu
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    if tracer is not None:
        tracer.phase = "check"
    try:
        op.check(result)
    except Exception:
        print(f"operation {op.name} failed its check:\n{traceback.format_exc()}",
              file=sys.stderr)
        return False, wall, cpu
    finally:
        if tracer is not None:
            tracer.phase = "run"
    return True, wall, cpu


def run_rounds(ops, seconds: float, tracer=None):
    """Closed loop over whole rounds; returns per-round wall and CPU times,
    the wall times of each operation, and the operations attempted and
    failed."""
    walls, cpus, per_op = [], [], {op.name: [] for op in ops}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        wall = cpu = 0.0
        for op in ops:
            ok, w, c = attempt(op, tracer)
            attempted += 1
            failed += not ok
            wall += w
            cpu += c
            per_op[op.name].append(w)
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - start >= seconds:
            return walls, cpus, per_op, attempted, failed


def timed_child(cmd, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def setup_samples(workload, args, own: float, env) -> list:
    """Set-up times: the start-up command of the workload, or this
    process's set-up plus the same set-up in fresh interpreters."""
    startup = getattr(workload, "startup_command", None)
    if startup is not None:
        return [timed_child(startup(), env) for _ in range(SETUP_SAMPLES)]
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "arch": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adexsim" / "__init__.py").is_file():
        print(f"error: no adexsim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    out = OUT / args.workload
    ctx = workloads.Context(root=ROOT, seed=args.seed, out=out, traced=bool(args.trace))
    tracer = None
    if args.trace and not args.setup_only:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload.setup(ctx)
    own_setup = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    samples = ([] if args.trace else
               setup_samples(workload, args, own_setup, workloads.child_env(ROOT)))
    if tracer is not None:
        tracer.phase = "run"
    walls, cpus, per_op, attempted, failed = run_rounds(workload.ops(), args.seconds, tracer)

    if args.trace:
        values = tracing.layer_metrics(tracer.spans, len(walls),
                                       patterns=workloads.PATTERNS,
                                       widths=workloads.WIDTHS,
                                       extra={"cli.output_bytes": 0,
                                              **workload.layer_extras(len(walls))})
    else:
        values = {
            "setup_s": statistics.median(samples),
            "run_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mib": peak_rss_mib(children=workload.in_children),
        }
    units = declared_metrics(bool(args.trace))
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {"commit": commit(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **machine(),
              "rounds": len(walls), "attempted": attempted, "failed": failed,
              "round_wall_s": walls, "round_cpu_s": cpus, "op_wall_s": per_op,
              "setup_samples_s": samples, "spans": len(tracer.spans) if tracer else 0,
              "metrics": metrics}
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "records" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
