"""One workload run in a fresh interpreter; driven by ``run.py``.

Reads a JSON request on stdin and writes a JSON result on stdout.  Modes:

- ``setup``: time ``import twomode`` (or ``twomode.cli``) plus one warm-up
  call to each entry point the workload uses.  Only the standard library is
  imported before the clock starts, so numpy's import is counted.
- ``measure``: closed loop, one op at a time, over the seeded pool for the
  given seconds; per-op latency, per-batch throughput, failures, peak RSS.
- ``trace``: an untraced pass, then traced passes with the wrappers of
  ``tracing.py`` installed; per-layer metrics and the tracer's self-checks.

Both ``measure`` and ``trace`` then run the ops of the request's ``probe``
(the `decide` extremes slice) once each, untimed and untraced, and return
their failures as ``defects``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import time
import warnings
from statistics import median

# Two-mode standard form with distinct symplectic eigenvalues, positive
# definite, so every entry point accepts it.
_WARMUP_V = [[2.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, -0.5],
             [1.0, 0.0, 3.0, 0.0], [0.0, -0.5, 0.0, 3.0]]
_WARMUP_CLI = (["classify", "--format", "machine"], ["williamson", "--format", "machine"],
               ["standard-form", "--format", "machine"], ["invariants", "--format", "machine"])
_WARMUP_SWEEP = ["sweep", "--family", "simon_vx", "--from", "0.4", "--to", "0.6", "--step", "0.1"]

# The tail percentile is fixed per workload, so that it means the same on
# every commit.  It is the highest percentile that leaves at least 10
# samples beyond it in a 20 s run and whose spread between runs (IQR over
# median, 10 seeds) stayed below a third of its bound on the 2-core shared
# host.  There p99.9 spread by 50-100%, p99 by 12-25%, and p90 on `decide`
# by 6-9%; `cli` makes ~80 ops in 20 s.
TAIL_PERCENTILE = {"decide": 75.0, "normal_forms": 90.0, "cli": 75.0}

# Ops between calibrations: about 15 ms of ops per 0.8 ms kernel call, and
# one 13 ms interpreter start per ~250 ms `cli` pipeline.
_CAL_EVERY = {"decide": 20, "normal_forms": 40, "cli": 1}


class Raised:
    """An op that raised; compared and reported by exception type."""

    def __init__(self, exc: BaseException):
        self.name = type(exc).__name__
        self.text = str(exc)[:200]

    def __eq__(self, other):
        return isinstance(other, Raised) and other.name == self.name


def run_main(main, argv: list[str], stdin_text: str) -> tuple[int, str]:
    """Call twomode.cli.main in-process with stdin and stdout swapped."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def setup(workload: str) -> dict:
    t0 = time.perf_counter()
    if workload == "cli":
        import twomode.cli as cli
        code, doc = run_main(cli.main, ["gen", "--family", "simon_vx", "--param", "x=0.6"], "")
        codes = [code] + [run_main(cli.main, argv, doc)[0] for argv in _WARMUP_CLI]
        codes.append(run_main(cli.main, _WARMUP_SWEEP, "")[0])
        if any(codes):
            raise RuntimeError(f"warm-up CLI calls exited with {codes}")
    else:
        import twomode
        if workload == "decide":
            twomode.heisenberg_oracle(_WARMUP_V)
            twomode.classify_global(_WARMUP_V)
            twomode.classify_local(_WARMUP_V)
        else:
            twomode.reduce_to_standard_form(_WARMUP_V)
            twomode.williamson_decompose(_WARMUP_V)
    elapsed = time.perf_counter() - t0
    import calibrate
    calibrate.time_kernel()  # first call after import runs on cold caches
    return {"setup_s": elapsed, "kernel_ns": median([calibrate.time_kernel() for _ in range(9)])}


# --- ops ----------------------------------------------------------------------

def bind_ops(workload: str, in_process: bool):
    """(run, check, fingerprint) for the workload, bound to the functions
    the modules hold now, so binding after ``tracing.install`` traces them."""
    import checks

    if workload == "decide":
        from twomode import physicality, separability
        oracle, glob, loc = (physicality.heisenberg_oracle, separability.classify_global,
                             separability.classify_local)

        def run(op):
            v = op["_v"]
            ok, min_eig = oracle(v)
            return ok, min_eig, glob(v).tag.value, loc(v).tag.value

        return run, checks.decide, lambda out: out

    if workload == "normal_forms":
        from twomode import standard_form, williamson
        reduce_, decompose = standard_form.reduce_to_standard_form, williamson.williamson_decompose

        def run(op):
            if op["kind"] == "standard_form":
                return reduce_(op["_v"])
            return decompose(op["_v"])

        def check(out, op):
            if op["kind"] == "standard_form":
                return checks.standard_form(op["_v"], out.a, out.b, out.c_plus, out.c_minus,
                                            out.s_local, op)
            return checks.williamson(op["_v"], out.normal_form, out.transform, out.spectrum, op)

        def fingerprint(out):
            if isinstance(out, Raised):
                return out
            if hasattr(out, "s_local"):
                return (out.a, out.b, out.c_plus, out.c_minus, out.s_local.tobytes())
            return (out.spectrum.tobytes(), out.transform.tobytes(), out.degenerate)

        return run, check, fingerprint

    if in_process:
        from twomode import cli
        main = cli.main

        def run(op):
            if op["kind"] == "sweep":
                code, out = run_main(main, op["args"], "")
                return (code,), out
            code_gen, doc = run_main(main, op["gen"], "")
            code, out = run_main(main, op["args"], doc)
            return (code_gen, code), out
    else:
        cmd = [sys.executable, "-m", "twomode.cli"]

        def run(op):
            if op["kind"] == "sweep":
                proc = subprocess.run(cmd + op["args"], capture_output=True, text=True,
                                      timeout=60)
                return (proc.returncode,), proc.stdout
            gen = subprocess.Popen(cmd + op["gen"], stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL)
            sub = subprocess.Popen(cmd + op["args"], stdin=gen.stdout, stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, text=True)
            gen.stdout.close()
            try:
                out, _ = sub.communicate(timeout=60)
                gen.wait(timeout=60)
            finally:
                for proc in (gen, sub):
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
            return (gen.returncode, sub.returncode), out

    def check(out, op):
        codes, text = out
        if any(codes):
            return f"exit codes {codes}"
        if op["kind"] == "sweep":
            return checks.sweep(text)
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            return "output is not JSON"
        if op["kind"] == "classify":
            return None if record["tag"] in op["tags"] else f"tag {record['tag']}"
        if op["kind"] == "williamson":
            return checks.williamson(op["_v"], record["normal_form"], record["transform"],
                                     record["spectrum"], op)
        if op["kind"] == "standard-form":
            return checks.standard_form(op["_v"], record["a"], record["b"], record["c_plus"],
                                        record["c_minus"], record["s_local"], op)
        return checks.invariants(record, op)

    return run, check, lambda out: out


def prepare(pool: list[dict]) -> list[dict]:
    import numpy as np
    for op in pool:
        if "v" in op:
            op["_v"] = np.array(op["v"], dtype=float)
    return pool


def probe_defects(run, check, probe: list[dict]) -> list:
    """Failures of one untimed pass over the probe ops."""
    pool = prepare(probe)
    outs = []
    for op in pool:
        try:
            outs.append(run(op))
        except Exception as exc:
            outs.append(Raised(exc))
    defects = []
    verify(outs, pool, 0, check, defects)
    return defects


def verify(outs, pool, start: int, check, failures: list) -> None:
    """Check outputs of ops start, start+1, ... and record failures."""
    for k, out in enumerate(outs):
        i = (start + k) % len(pool)
        op = pool[i]
        if isinstance(out, Raised):
            reason = f"raised {out.name}: {out.text}"
        else:
            try:
                reason = check(out, op)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                reason = f"malformed output: {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((i, op["kind"], reason))


# --- measure ------------------------------------------------------------------

def percentile(sorted_ns, q: float) -> float:
    """Nearest-rank percentile of sorted ns values, in microseconds."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_ns)))
    return float(sorted_ns[rank - 1]) / 1e3


def closed_loop(run, pool, seconds: float, check, failures, cal_every: int, calibration):
    """Run ops back to back, one at a time, for `seconds` of wall time.

    After every `cal_every` ops `calibration()` runs once, and after each
    pass over the pool the outputs are checked; both happen outside the
    timed ops.  Returns (op latencies in ns, calibration times in ns).
    """
    from time import perf_counter_ns
    lat, outs, kernel_ns = [], [], []
    deadline = perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while True:
        op = pool[i % len(pool)]
        t0 = perf_counter_ns()
        try:
            out = run(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = Raised(exc)
        t1 = perf_counter_ns()
        lat.append(t1 - t0)
        outs.append(out)
        i += 1
        if i % cal_every == 0:
            kernel_ns.append(calibration())
        done = perf_counter_ns() >= deadline and kernel_ns
        if len(outs) == len(pool) or done:
            verify(outs, pool, i - len(outs), check, failures)
            outs = []
        if done:
            return lat, kernel_ns


def local_scale(n_ops: int, kernel_ns: list[int], cal_every: int, reference: int):
    """Per-op factor reference / calibration time, the calibration time
    being the median of the five calibrations nearest the op."""
    import numpy as np
    k = np.asarray(kernel_ns, dtype=float)
    near = np.array([np.median(k[max(0, j - 2):j + 3]) for j in range(len(k))])
    segment = np.minimum(np.arange(n_ops) // cal_every, len(k) - 1)
    return reference / near[segment]


def summarize(lat_ns, batch: int, tail: float) -> dict:
    """Throughput (median over batches of ops per second spent in ops), p50
    and tail latency in microseconds."""
    import numpy as np
    lat = np.asarray(lat_ns, dtype=float)
    full = len(lat) // batch * batch
    if full:
        rates = batch * 1e9 / lat[:full].reshape(-1, batch).sum(axis=1)
    else:
        rates = [len(lat) * 1e9 / lat.sum()]
    ordered = np.sort(lat)
    return {"ops_per_s": float(np.median(rates)), "batches": len(rates),
            "latency_p50_us": percentile(ordered, 50.0),
            "latency_tail_us": percentile(ordered, tail),
            "latency_p99_us": percentile(ordered, 99.0),
            "tail_beyond": len(lat) - math.ceil(tail / 100.0 * len(lat)), "samples": len(lat)}


def measure(req: dict) -> dict:
    import calibrate

    workload, seconds = req["workload"], req["seconds"]
    pool = prepare(req["pool"])
    warnings.simplefilter("ignore")  # DegeneracyWarning is expected on some inputs
    run, check, _ = bind_ops(workload, in_process=False)
    cli = workload == "cli"
    cal_every = _CAL_EVERY[workload]
    calibration, reference = ((calibrate.time_process_start, calibrate.PROCESS_REFERENCE_NS)
                              if cli else (calibrate.time_kernel, calibrate.REFERENCE_NS))
    closed_loop(run, pool, 0.0 if cli else 0.5, check, [], cal_every, calibration)  # warm-up
    failures = []
    lat, kernel_ns = closed_loop(run, pool, seconds, check, failures, cal_every, calibration)
    defects = probe_defects(run, check, req["probe"])
    tail = TAIL_PERCENTILE[workload]
    raw = summarize(lat, len(pool), tail)
    scaled = summarize(lat * local_scale(len(lat), kernel_ns, cal_every, reference), len(pool),
                       tail)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return {
        "attempted": len(lat),
        "failures": failures,
        "defects": defects,
        "probe_ops": len(req["probe"]),
        "raw": raw,
        **scaled,
        "tail_percentile": tail,
        "calibration": calibration.__name__,
        "reference_us": reference / 1e3,
        "kernel_us": median(kernel_ns) / 1e3,
        "kernel_samples": len(kernel_ns),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


# --- trace --------------------------------------------------------------------

# classify_global on one positive definite physical input, counted by hand
# at the parent commit of the benchmark.
SEED_PROBE_COUNTS = {"symplectic.as_matrix": 16, "invariants.two_mode_invariants": 5,
                     "invariants.symplectic_spectrum_2mode": 3, "linalg.det": 5,
                     "linalg.eigvalsh": 4}


_PROBE_OP = 2**31 - 1


def _interpreter_us(argv_tail: list[str], repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv_tail], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return median(times) * 1e6


def passes(run, pool, seconds: float, min_passes: int, tracer=None):
    """Whole passes over the pool until `seconds` and `min_passes` are met.

    Returns (outputs of every pass, wall ns per pass)."""
    from time import perf_counter_ns
    all_outs, walls = [], []
    op_id = 0
    deadline = time.perf_counter() + seconds
    while len(walls) < min_passes or time.perf_counter() < deadline:
        outs = []
        t0 = perf_counter_ns()
        for op in pool:
            if tracer is not None:
                tracer.op_id = op_id
            try:
                outs.append(run(op))
            except Exception as exc:
                outs.append(Raised(exc))
            op_id += 1
        if tracer is not None:
            tracer.op_id = -1
        walls.append(perf_counter_ns() - t0)
        all_outs.append(outs)
    return all_outs, walls


def traced(req: dict) -> dict:
    import numpy as np

    import inputs
    import tracing

    workload, seconds = req["workload"], req["seconds"]
    pool = prepare(req["pool"])
    warnings.simplefilter("ignore")
    metrics = {"cli.interpreter_start_us": 0.0, "cli.import_us": 0.0}
    if workload == "cli":
        bare = _interpreter_us(["-c", "pass"])
        metrics["cli.interpreter_start_us"] = bare
        metrics["cli.import_us"] = _interpreter_us(["-c", "import twomode.cli"]) - bare
    run, check, fingerprint = bind_ops(workload, in_process=True)
    passes(run, pool, 0.0, 1)  # warm-up
    plain_outs, plain_walls = passes(run, pool, seconds / 3.0, 1)

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        run, _, _ = bind_ops(workload, in_process=True)
        traced_outs, traced_walls = passes(run, pool, seconds * 2.0 / 3.0, 2, tracer)
        probe_v = inputs.random_physical(np.random.default_rng(0))[0]
        import twomode.separability as sep
        tracer.op_id = _PROBE_OP
        sep.classify_global(probe_v)
        tracer.op_id = -1
        probe_names = list(SEED_PROBE_COUNTS)
        by_profile = tracing.count_by_profile(tracer, sep.classify_global, probe_names, probe_v)
    finally:
        uninstall()
    run, _, _ = bind_ops(workload, in_process=True)
    defects = probe_defects(run, check, req["probe"])

    problems = []
    failures = []
    for outs in plain_outs[:1] + traced_outs:
        verify(outs, pool, 0, check, failures)
    reference_prints = [fingerprint(o) for o in plain_outs[0]]
    for outs in traced_outs:
        if [fingerprint(o) for o in outs] != reference_prints:
            problems.append("traced outputs differ from untraced outputs")
            break

    n = len(pool)
    keys = [_op_key(op) for op in pool]
    spans = tracing.Spans(tracer)
    per_pass = [spans.totals(k * n, n, keys)["calls"] for k in range(len(traced_outs))]
    if any(p != per_pass[0] for p in per_pass):
        problems.append("call counts differ between traced passes")
    probe = spans.totals(_PROBE_OP, 1, ["probe"])["calls"]
    probe_counts = {k: probe[k] for k in probe_names}
    if probe_counts != by_profile:
        problems.append(f"wrapper counts {probe_counts} != profiler counts {by_profile}")

    total = spans.totals(0, n * len(traced_outs), keys)
    ops = n * len(traced_outs)
    metrics.update(layer_metrics(total, ops, traced_outs))
    metrics["trace.overhead_frac"] = (median(traced_walls) / median(plain_walls)) - 1.0
    metrics["known_defects.extremes_failed_frac"] = (len(defects) / len(req["probe"])
                                                     if req["probe"] else 0.0)
    tracer.save(req["trace_out"])
    return {"attempted": n * (1 + len(traced_outs)), "failures": failures,
            "defects": defects, "probe_ops": len(req["probe"]), "problems": problems,
            "metrics": metrics, "probe_counts": probe_counts,
            "seed_probe_counts": SEED_PROBE_COUNTS, "traced_passes": len(traced_outs),
            "spans": len(tracer.start)}


def _op_key(op: dict) -> str:
    if "modes" in op:
        return f"n{op['modes']}"
    return op["kind"]


def layer_metrics(t: dict, ops: int, traced_outs) -> dict:
    """The per-layer metrics of BENCHMARK.json from the span totals of
    `ops` traced ops."""
    calls, ns, self_ns = t["calls"], t["ns"], t["self_ns"]

    def per_op(name):
        return calls[name] / ops

    def us_per_call(name):
        return ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    m = {
        "symplectic.as_matrix.calls_per_op": per_op("symplectic.as_matrix"),
        "symplectic.require_symmetric.calls_per_op": per_op("symplectic.require_symmetric"),
        "symplectic.blocks.calls_per_op": per_op("symplectic.blocks"),
        "symplectic.tolerance.calls_per_op": (calls["symplectic.Tolerance.threshold"]
                                              + calls["symplectic.Tolerance.band"]) / ops,
        "invariants.two_mode_invariants.calls_per_op": per_op("invariants.two_mode_invariants"),
        "invariants.two_mode_invariants.us_per_call": us_per_call("invariants.two_mode_invariants"),
        "invariants.symplectic_spectrum_2mode.calls_per_op":
            per_op("invariants.symplectic_spectrum_2mode"),
        "invariants.symplectic_spectrum_general.us_per_call":
            us_per_call("invariants.symplectic_spectrum_general"),
        "physicality.heisenberg_oracle.us_per_call": us_per_call("physicality.heisenberg_oracle"),
        "physicality.check_global.us_per_call": us_per_call("physicality.check_global"),
        "physicality.check_local.us_per_call": us_per_call("physicality.check_local"),
        "separability.classify_global.us_per_call": us_per_call("separability.classify_global"),
        "separability.classify_local.us_per_call": us_per_call("separability.classify_local"),
        "separability.raised_per_op": (t["raised"]["separability.classify_global"]
                                       + t["raised"]["separability.classify_local"]) / ops,
        "standard_form.reduce_to_standard_form.us_per_call":
            us_per_call("standard_form.reduce_to_standard_form"),
        "linalg.calls_per_op": sum(c for k, c in calls.items() if k.startswith("linalg.")) / ops,
        "linalg.us_per_op": self_ns["linalg"] / ops / 1e3,
        "families.us_per_matrix": (t["top_ns"]["families"] / t["top_calls"]["families"] / 1e3
                                   if t["top_calls"]["families"] else 0.0),
    }
    for layer in ("symplectic", "invariants", "physicality", "separability", "standard_form",
                  "williamson"):
        m[f"{layer}.self_us_per_op"] = self_ns[layer] / ops / 1e3
    will = t["by_op"].get("williamson.williamson_decompose", {})
    for k in range(1, 5):
        count, total = will.get(f"n{k}", (0, 0.0))
        m[f"williamson.williamson_decompose.us_per_call.n{k}"] = (total / count / 1e3
                                                                  if count else 0.0)
    decomposed = [o for outs in traced_outs for o in outs if hasattr(o, "degenerate")]
    m["williamson.degenerate_frac"] = (sum(o.degenerate for o in decomposed) / len(decomposed)
                                       if decomposed else 0.0)
    mains = t["by_op"].get("cli.main", {})
    pipe = [v for k, v in mains.items() if k != "sweep"]
    m["cli.main_us_per_call"] = (sum(v[1] for v in pipe) / sum(v[0] for v in pipe) / 1e3
                                 if pipe else 0.0)
    sweep = mains.get("sweep", (0, 0.0))
    m["cli.sweep_main_us"] = sweep[1] / sweep[0] / 1e3 if sweep[0] else 0.0
    return m


def main() -> int:
    req = json.load(sys.stdin)
    if req["mode"] == "setup":
        result = setup(req["workload"])
    elif req["mode"] == "measure":
        result = measure(req)
    else:
        result = traced(req)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
