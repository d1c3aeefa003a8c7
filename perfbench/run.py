"""Benchmark of the twomode decision procedure.

    python3 perfbench/run.py --workload {decide,normal_forms,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` (it need not be installed).  Inputs and their reference answers
are built from the seed before anything is timed.  With ``--trace 0`` the
run prints the end-to-end metrics; with ``--trace 1`` it prints the
per-layer metrics of a separate traced run.  Human-readable lines come
first, and the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

See perfbench/README.md for the workloads, the metrics and what each
per-layer metric is expected to move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS pools start threads on import; one thread keeps a run single-process,
# single-core, for this process and every process it starts.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import calibrate  # noqa: E402  (numpy is imported only after the variables are set)
import inputs  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def call_worker(request: dict, timeout: float) -> dict:
    """Run worker.py on the request; on timeout kill it and every process
    it started (its own session), and wait for them."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(request), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{err[-4000:]}")
    return json.loads(out)


def environment(seed: int) -> dict:
    import numpy
    return {"host": platform.node(), "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed,
            **{var: os.environ[var] for var in THREAD_VARS}}


def report_failures(failures: list, attempted: int) -> None:
    by_kind: dict[str, int] = {}
    for _, kind, _ in failures:
        by_kind[kind] = by_kind.get(kind, 0) + 1
    print(f"failed_frac: {len(failures) / attempted:.6f} frac "
          f"({len(failures)} of {attempted} ops; by kind {by_kind or '{}'})")
    for index, kind, reason in sorted(set(map(tuple, failures)))[:8]:
        print(f"  failed: pool[{index}] {kind}: {reason}")


def report_defects(res: dict) -> None:
    """Print the failures of the untimed extremes probe (ROADMAP item 2)."""
    if not res["probe_ops"]:
        return
    defects = res["defects"]
    print(f"known defects: {len(defects)} of {res['probe_ops']} extremes ops fail "
          "(ROADMAP item 2; checked once, untimed, not in `failed`)")
    for index, kind, reason in defects[:8]:
        print(f"  defect: extremes[{index}] {kind}: {reason}")


def run_end_to_end(workload: str, pool: list, probe: list,
                   seconds: int) -> tuple[dict, int, list]:
    setups = [call_worker({"mode": "setup", "workload": workload}, 120)
              for _ in range(SETUP_REPEATS)]
    scaled_setups = [s["setup_s"] * calibrate.REFERENCE_NS / s["kernel_ns"] for s in setups]
    res = call_worker({"mode": "measure", "workload": workload, "seconds": seconds,
                       "pool": pool, "probe": probe}, seconds + 120)
    metrics = {
        "setup_s": (median(scaled_setups), "s"),
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "latency_p50_us": (res["latency_p50_us"], "us"),
        "latency_tail_us": (res["latency_tail_us"], "us"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    raw = res["raw"]
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters; raw "
                   + ", ".join(f"{s['setup_s']:.4f}" for s in setups)
                   + "; kernel us " + ", ".join(f"{s['kernel_ns'] / 1e3:.0f}" for s in setups),
        "ops_per_s": f"median over {res['batches']} batches of ops per second spent in ops; "
                     f"raw {raw['ops_per_s']:.6g}",
        "latency_p50_us": f"n={res['samples']}; raw {raw['latency_p50_us']:.6g}",
        "latency_tail_us": f"p{res['tail_percentile']:g}, n={res['samples']}, "
                           f"{res['tail_beyond']} beyond; raw {raw['latency_tail_us']:.6g}; "
                           f"p99 {res['latency_p99_us']:.6g}",
        "peak_rss_mb": "children of the client" if workload == "cli" else "worker process",
    }
    print(f"calibration {res['calibration']}: median {res['kernel_us']:.1f} us over "
          f"{res['kernel_samples']} calls; op times below are scaled to "
          f"{res['reference_us']:g} us (see calibrate.py)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit} ({notes[name]})")
    report_defects(res)
    return metrics, res["attempted"], res["failures"]


def run_traced(workload: str, pool: list, probe: list,
               seconds: int) -> tuple[dict, int, list, list]:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace_out = out_dir / f"trace-{workload}.npz"
    res = call_worker({"mode": "trace", "workload": workload, "seconds": seconds, "pool": pool,
                       "probe": probe, "trace_out": str(trace_out)}, seconds + 150)
    print(f"traced passes: {res['traced_passes']}, spans: {res['spans']} (written to "
          f"{trace_out.relative_to(ROOT)})")
    print(f"classify_global probe counts: {res['probe_counts']} "
          f"(at the parent commit: {res['seed_probe_counts']})")
    for problem in res["problems"]:
        print(f"tracer self-check failed: {problem}")
    metrics = {name: (value, unit_of(name)) for name, value in sorted(res["metrics"].items())}
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    report_defects(res)
    return metrics, res["attempted"], res["failures"], res["problems"]


def unit_of(name: str) -> str:
    if "calls_per_op" in name:
        return "count"
    if name.endswith("_frac") or name.endswith("raised_per_op"):
        return "frac"
    return "us"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twomode" / "__init__.py").is_file():
        print(f"error: no twomode package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    print("env: " + json.dumps(environment(args.seed)))
    pool = inputs.POOLS[args.workload](args.seed)
    probe = inputs.extremes_pool(args.seed) if args.workload == "decide" else []
    print(f"workload: {args.workload}, pool of {len(pool)} ops, {args.seconds} s, "
          f"trace {args.trace}")
    if args.trace:
        metrics, attempted, failures, problems = run_traced(args.workload, pool, probe,
                                                            args.seconds)
    else:
        metrics, attempted, failures = run_end_to_end(args.workload, pool, probe, args.seconds)
        problems = []
    report_failures(failures, attempted)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
