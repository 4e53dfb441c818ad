"""riskfields benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload map_solve --seed 1 --seconds 20 --trace 0

The next op starts when the previous one has returned and been checked.
Ops run until their summed durations reach --seconds; the checks and the
reference kernel that every op time is divided by (reference.py) run
outside the timed region.  The last line of stdout is the result JSON; the
line before it is a record of the run (input digest, checks, run context
and the figures that are not metrics of every workload).  --trace 1 wraps
riskfields' public functions and reports per-layer metrics instead of the
end-to-end ones; its spans go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("map_solve", "flux_sweep", "rollout", "dynamic_replay")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the benchmark's tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (times setup_s)")
    return ap.parse_args(argv)


def check_tree():
    """The program and the shipped scenarios must be in this checkout."""
    for need in (ROOT / "src" / "riskfields" / "__init__.py",
                 ROOT / "scenarios" / "moving_block.yaml"):
        if not need.is_file():
            sys.exit(f"perfbench: {need.relative_to(ROOT)} is missing; run "
                     "from the root of a riskfields checkout")
    sys.path.insert(0, str(ROOT / "src"))


# -- run context -------------------------------------------------------------

def cpu_ticks():
    """(iowait, steal) jiffies summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            f = fh.readline().split()
        return int(f[5]), int(f[8])
    except (OSError, IndexError, ValueError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git tree."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = git / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context(ticks0, ticks1):
    import numpy
    import scipy
    import yaml
    ctx = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "thread_caps": {k: os.environ[k] for k in THREAD_CAPS},
        "git_commit": git_commit(),
    }
    if ticks0 and ticks1:
        ctx["iowait_ticks"] = ticks1[0] - ticks0[0]
        ctx["steal_ticks"] = ticks1[1] - ticks0[1]
    return ctx


# -- set-up ------------------------------------------------------------------

def time_setups(args):
    """Median wall time from spawning a fresh interpreter to the end of the
    workload's set-up, over SETUP_REPEATS processes run one after another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
           "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.stdout.read()
            code = p.wait()
        if code != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up of {args.workload} failed "
                     f"(exit {code})")
        times.append(t1 - t0)
    return statistics.median(times), times


# -- the timed loop ----------------------------------------------------------

def tail(ms):
    """Highest percentile with at least ten samples beyond it, when that is
    at or above the median; None for shorter runs."""
    n = len(ms)
    if n < 20:
        return None
    k = n - 11
    return {"value": sorted(ms)[k], "percentile": 100.0 * (k + 1) / n,
            "samples": n}


def relative_costs(passed, refs):
    """Op time over the reference-kernel time around it, per passed op.

    refs[k] was measured just before op k and refs[k + 1] just after it;
    the denominator is their mean.  The host changes speed within seconds,
    so the two nearest measurements follow it best.
    """
    out = ([], [])
    for k, dt_ms, traced in passed:
        out[traced].append(dt_ms / (0.5 * (refs[k] + refs[k + 1])))
    return out


def run_loop(args, wl, tracer):
    """Runs and checks ops until their durations sum to args.seconds and
    the workload's current round of inputs is complete.

    The workload's reference kernels are timed before the first op and
    after every op, outside the timed region.  With a tracer, every other
    round is traced; the untraced rounds give the baseline for
    trace.overhead.
    """
    import reference     # loads numpy, so only once the thread caps are set
    round_len = getattr(wl, "round_len", 1)
    kernels = wl.reference
    used, failures = [], []
    ms = ([], [])         # op durations of passed ops: (untraced, traced)
    passed = []           # (op index, duration in ms, traced) of passed ops
    for name in kernels:
        reference.KERNELS[name]()   # warm-up, untimed
    refs = [reference.measure_ms(kernels)]
    seen_masks = set()
    timed = 0.0
    steps = builds = repeated = 0
    k = 0
    while timed < args.seconds or k % round_len:
        x = next(wl.inputs)
        used.append(x)
        traced = tracer is not None and (k // round_len) % 2 == 1
        if traced:
            tracer.begin(k)
        error = None
        t0 = time.perf_counter()
        try:
            out = wl.run(x)
        except Exception as e:  # a raised error is a failed op
            error = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        rec = tracer.end(dt) if traced else None
        refs.append(reference.measure_ms(kernels))
        timed += dt
        k += 1
        if error is None:
            try:
                checked = wl.check(x, out)
                problems = checked.problems
            except Exception as e:
                problems = [f"check raised {type(e).__name__}: {e}"]
        else:
            problems = [error]
        if problems:
            failures.append({"op": k - 1, "problems": problems})
            print(f"perfbench: op {k - 1} failed: {'; '.join(problems)}",
                  file=sys.stderr)
            if rec is not None:
                tracer.ops.pop()
            continue
        ms[traced].append(1e3 * dt)
        passed.append((k - 1, 1e3 * dt, traced))
        n_steps = sum(t.n - 1 for t in checked.trajectories)
        steps += n_steps
        for b in checked.builds:
            key = b.grid.state.tobytes()
            builds += 1
            repeated += key in seen_masks
            seen_masks.add(key)
        if rec is not None:
            rec["steps"] = n_steps
            rec["steps_double"] = sum(t.n - 1 for t in checked.trajectories
                                      if t.ydot is not None)
            rec["ghost"] = int(sum((t.h <= 0.0).sum()
                                   for t in checked.trajectories))
    return {
        "attempted": k, "failures": failures, "ms": ms, "timed": timed,
        "rel": relative_costs(passed, refs), "ref_ms": refs,
        "steps": steps, "used": used, "builds": builds,
        "repeated_geometry": repeated,
    }


def main(argv=None):
    args = parse_args(argv)
    for k in THREAD_CAPS:
        os.environ[k] = "1"
    check_tree()
    sys.path.insert(0, str(HERE))
    # numpy and riskfields load only now, after the thread caps are set and
    # src/ is on the path.
    if args.setup_only:
        import workloads
        workloads.WORKLOADS[args.workload](ROOT, args.seed, args.size)
        print("ready", flush=True)
        return 0

    setup_s = setup_runs = None
    if not args.trace:
        setup_s, setup_runs = time_setups(args)
    ticks0 = cpu_ticks()
    import inputs
    import workloads
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.size)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        res = run_loop(args, wl, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    disk_err, problems = workloads.measure_disk_oracle(args.seed, args.size)
    res["attempted"] += 1   # the disk documents count as one op
    if problems:
        res["failures"].append({"op": "disk_oracle", "problems": problems})
    ticks1 = cpu_ticks()

    ok_ms = res["ms"][0] + res["ms"][1]
    ok_rel = res["rel"][0] + res["rel"][1]
    n_fail = len(res["failures"])
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "inputs_sha256": inputs.digest({
            "setup": wl.setup_inputs, "ops": res["used"],
            "disk": inputs.disk_docs(args.seed, args.size)}),
        "inputs_used": len(res["used"]),
        "fail_ratio": n_fail / res["attempted"],
        "failures": res["failures"][:20],
        "op_ms": [round(v, 3) for v in ok_ms],
        "op_ms_tail": tail(ok_ms),
        "op_ms_p50": statistics.median(ok_ms) if ok_ms else None,
        "ops_per_s": len(ok_ms) / res["timed"],
        "op_rel": [round(v, 3) for v in ok_rel],
        "op_rel_tail": tail(ok_rel),
        "ref_ms": [round(v, 3) for v in res["ref_ms"]],
        "steps_per_s": res["steps"] / res["timed"] if res["steps"] else None,
        "disk_oracle_err": disk_err,
        "builds_checked": res["builds"],
        "repeated_geometry_share": (res["repeated_geometry"] / res["builds"]
                                    if res["builds"] else None),
        "setup_runs_s": setup_runs,
        "context": run_context(ticks0, ticks1),
    }
    if args.trace:
        untraced, traced = res["rel"]
        overhead = (statistics.median(traced) / statistics.median(untraced)
                    - 1.0 if traced and untraced else 0.0)
        per_layer = tracing.layer_metrics(tracer, overhead)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in per_layer.items()}
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed})
        record["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_rel_p50": {"value": statistics.median(ok_rel) if ok_rel
                           else None, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "disk_oracle_err": {"value": disk_err, "unit": "m2"},
        }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": n_fail == 0, "attempted": res["attempted"],
                      "failed": n_fail, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
