"""Benchmark of the mfglearn package, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload (see workloads.py).  Set-up (importing numpy
and mfglearn, timed in a fresh interpreter, then building the spec and state
and one warm-up op) is repeated and its median reported.  Ops then run back to back (a closed loop with one
caller) for --seconds; each is timed alone and checked afterwards, outside
the timed region.  With --trace 0 the last line holds the end-to-end metrics
of BENCHMARK.json; with --trace 1 every second op is traced and the last line
holds the per-layer metrics.
The line before it is a JSON record with the run manifest and details.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One process with a single-threaded BLAS pool keeps the load within two
# CPUs and makes timings steadier than a pool that competes for them.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import mfglearn  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

if not os.path.abspath(mfglearn.__file__).startswith(SRC + os.sep):
    raise SystemExit("mfglearn was not imported from %s" % SRC)

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
MAX_MESSAGES = 10
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy, mfglearn; "
                "print(time.perf_counter() - t0)")


def fresh_import_seconds() -> float:
    """Import time of numpy and mfglearn in a new interpreter (this process
    has them imported already); the child is waited for."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def git_commit(root: str):
    """Commit of a git checkout at root, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def manifest(seed: int, workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(ROOT),
        "seed": seed,
        "seed_derivation": "numpy SeedSequence(seed): spawn() for rollout and check rngs, "
                           "generate_state() for the train-state seed",
        "workload_params": workload.params(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, fails):
        self.attempted += 1
        if fails:
            self.failed += 1
            for msg in fails:
                if msg not in self.messages and len(self.messages) < MAX_MESSAGES:
                    self.messages.append(msg)


def run_checked(workload, ctx, tally: Tally, tracer=None):
    """One op and its checks: returns the op's wall time in seconds, or None
    if the op or a check raised."""
    t0 = time.perf_counter()
    try:
        result = tracer.run_op(workload.op, ctx) if tracer else workload.op(ctx)
        elapsed = time.perf_counter() - t0
        fails = workload.check(ctx, result)
    except Exception as err:  # a failed op is counted, not fatal
        tally.record(["op raised %s: %s" % (type(err).__name__, err)])
        return None
    tally.record(fails)
    return elapsed


def measure(workload, ctx, seconds: float, tally: Tally, tracer=None):
    """Ops back to back for ``seconds``; with a tracer every second op is
    traced, so traced and untraced ops see the same machine conditions.
    Returns (untraced op times, traced op times)."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline:
        use_tracer = tracer is not None and n % 2 == 1
        n += 1
        elapsed = run_checked(workload, ctx, tally, tracer if use_tracer else None)
        if elapsed is not None:
            (traced if use_tracer else untraced).append(elapsed)
    return untraced, traced


def run(name: str, seed: int, seconds: float, trace: bool, workloads=WORKLOADS, spans_path=None):
    """Run one workload; returns (metrics, details, tally)."""
    workload = workloads[name]
    details = {"manifest": manifest(seed, workload), "workload": name}
    tally = Tally()
    reps = []
    for _ in range(SETUP_REPS):
        import_s = fresh_import_seconds()
        t0 = time.perf_counter()
        ctx = workload.setup(seed)
        elapsed = run_checked(workload, ctx, tally)  # warm-up op
        if elapsed is not None:
            reps.append(import_s + time.perf_counter() - t0)
    if not reps:
        raise SystemExit("no warm-up op completed: %s" % tally.messages)
    run_fails = workload.run_checks(ctx)
    tracer = Tracer() if trace else None
    times, traced = measure(workload, ctx, seconds, tally, tracer)
    if not times or (trace and not traced):
        raise SystemExit("no op completed: %s" % tally.messages)
    p50 = float(np.median(times)) * 1e3
    if trace:
        metrics = tracer.summary()
        metrics["trace.op_ms_p50"] = float(np.median(traced)) * 1e3
        metrics["trace.untraced_op_ms_p50"] = p50
        metrics["trace.overhead_ms"] = metrics["trace.op_ms_p50"] - p50
        if spans_path:
            tracer.write(spans_path)
            details["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        tail = float(np.percentile(times, workload.tail_pct)) * 1e3
        metrics = {
            "ops_per_s": len(times) / sum(times),
            "op_ms_p50": p50,
            "op_ms_tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": float(np.median(reps)),
        }
        details["tail"] = {"percentile": workload.tail_pct, "samples": len(times),
                           "beyond": int(sum(t * 1e3 > tail for t in times))}
        details["setup"] = {"first_import_s": IMPORT_S, "reps_s": reps}
        if workload.agent_steps():
            details["agent_steps_per_s"] = workload.agent_steps() * metrics["ops_per_s"]
    if run_fails:
        tally.failed = tally.attempted  # every op used the gradients that failed
        tally.messages = run_fails + tally.messages
    details.update(ops_attempted=tally.attempted, ops_failed=tally.failed,
                   failures=tally.messages[:MAX_MESSAGES])
    return metrics, details, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    spans_path = None
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))
    metrics, details, tally = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                  spans_path=spans_path)
    print(json.dumps(details))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
