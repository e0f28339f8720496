"""gencusp benchmark runner.

    python3 perfbench/run.py --workload {cli,forward,inverse,battery}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it list every metric with its unit, the environment and the
failure gate. --trace 0 measures the end-to-end metrics; --trace 1 is a
separate run that reports the per-layer metrics from spans. The exit code is
0 when every output passed its gate (failures within the recorded baseline),
1 when a gate failed, 2 when the program cannot be found or run.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads: one client on a 2-core
# machine, and the CLI children inherit the same setting.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from speed import Speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# span name -> statistics reported for it
SPAN_STATS = {
    "linalg.expm": ("calls", "self_s"),
    "linalg.newton_to_elementary": ("calls",),
    "cusp_groups.build_marked_cusp": ("calls", "self_s"),
    "cusp_groups.rho": ("calls", "self_s"),
    "cusp_groups.orbit_point": ("calls", "self_s"),
    "invariants.weights_of": ("calls", "total_s", "self_s"),
    "invariants.complete_invariant": ("calls", "total_s", "self_s"),
    "invariants.weight_data": ("calls", "total_s", "self_s"),
    "invariants.are_conjugate": ("calls", "total_s", "self_s"),
    "invariants.eta_distance": ("calls", "total_s", "self_s"),
    "invariants.recover_psi_from_invariant": ("calls", "total_s", "self_s"),
    "invariants.realize_weight_data": ("calls", "total_s", "self_s"),
    "shape.shape_invariant_closed": ("calls", "total_s"),
    "shape.shape_invariant_fit": ("calls", "total_s"),
    "shape.fit_height_jet": ("calls", "total_s"),
    "shape.height_at": ("calls", "total_s"),
    "shape.cubic_from_weights": ("calls", "total_s"),
    "shape.sphere_local_maxima": ("calls", "total_s"),
    "shape.recover_cusp_from_shape": ("calls", "total_s"),
    "dim3.coords_from_shape": ("total_s",),
    "dim3.export_mesh_csv": ("total_s",),
    "dim3.export_mesh_obj": ("total_s",),
}
# Per-layer metrics that only the workloads left out of BENCHMARK.json reach
# (metric name prefix -> workloads): the jet fit, its orbit points and the
# checks of `battery`, the maxima ratio of `inverse`, and the inverse maps'
# failure counts. Other workloads do not report them.
ONLY_ON = {
    "verify.": ("battery",),
    "cusp_groups.orbit_point.": ("battery",),
    "shape.shape_invariant_fit.": ("battery",),
    "shape.fit_height_jet.": ("battery",),
    "shape.height_at": ("battery",),
    "shape.maxima_found_ratio": ("inverse",),
    "invariants.realize_weight_data.failures": ("inverse", "battery"),
    "shape.recover_cusp_from_shape.failures": ("inverse", "battery"),
}
CLI_KINDS = ("build", "invariants", "conjugate", "recover_psi", "recover_weights",
             "recover_shape", "mesh")


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def load_program():
    """Import gencusp from ./src of this checkout and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "gencusp", "__init__.py")):
        fail("no program source at %s" % os.path.join(SRC, "gencusp"))
    sys.path.insert(0, SRC)
    import gencusp

    if not os.path.abspath(gencusp.__file__).startswith(SRC + os.sep):
        fail("gencusp imported from %s, not from %s" % (gencusp.__file__, SRC))


def environment(cpus):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(cpus),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
    }


def tail(values):
    """(value, rank, count): the highest order statistic with TAIL_BEYOND
    samples above it, or the maximum when there are too few samples."""
    s = sorted(values)
    rank = len(s) - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s)
    return s[rank - 1], rank, len(s)


def allowed_failures(rate, attempted, quantile=0.999):
    """Failures a run may show at the recorded failure rate: the
    ``quantile`` point of Binomial(attempted, rate)."""
    if rate <= 0.0:
        return 0
    cdf = 0.0
    for k in range(attempted + 1):
        log_pmf = (math.lgamma(attempted + 1) - math.lgamma(k + 1) - math.lgamma(attempted - k + 1)
                   + k * math.log(rate) + (attempted - k) * math.log1p(-rate))
        cdf += math.exp(log_pmf)
        if cdf >= quantile:
            return k
    return attempted


class Pass:
    """One closed-loop pass: operation latencies and item verdicts."""

    def __init__(self):
        self.latencies = []  # seconds per operation
        self.untraced = []  # traced runs: the same operation with spans off
        self.scaled = []  # latencies scaled to the reference machine speed
        self.attempted = 0
        self.failures = {}  # reason -> count
        self.errors = []
        self.kinds = {}  # CLI command kind -> seconds

    @property
    def ops(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def busy(self):
        return sum(self.latencies)


def _timed_op(wl, i):
    t0 = time.perf_counter()
    try:
        wl.op(i)
    except Exception:  # timed only; the traced call right after is checked
        pass
    return time.perf_counter() - t0


def drive(wl, seconds=None, count=None, tracer=None, speed=None):
    """Run operations 0, 1, ... until ``count`` are done, or until the next
    one would likely end after ``seconds`` (at least one always runs).

    With ``speed``, the reference work is timed in the gap before each
    operation and after the last (and, through ``wl.speed``, inside long
    ones), and each latency is also kept scaled to the reference machine
    speed (see speed.py).

    With a tracer installed each operation runs twice, back to back: first
    with spans off (timed into ``untraced``), then with spans on (timed,
    checked and recorded). Pairing the two calls keeps the machine's speed
    swings out of the overhead estimate."""
    p = Pass()
    if speed is not None:
        speed.begin()
    began = time.perf_counter()
    while count is None or p.ops < count:
        elapsed = time.perf_counter() - began
        if count is None and p.ops and elapsed + elapsed / p.ops > seconds:
            break
        i = p.ops
        wl.prepare(i)
        if tracer is not None:
            tracer.enabled = False
            p.untraced.append(_timed_op(wl, i))
            tracer.enabled = True
            tracer.op_id = i
        if speed is not None:
            speed.gap()
            spent = speed.spent
        t0 = time.perf_counter()
        try:
            result = wl.op(i)
        except Exception:  # any exception is a failed operation, not a crash
            result = None
            p.errors.append("op %d: %s" % (i, traceback.format_exc(limit=-2)))
        dt = time.perf_counter() - t0
        if speed is not None:
            dt -= speed.spent - spent  # reference work run inside the operation
        verdicts = ["exception"]
        if result is not None:
            if tracer is not None:
                tracer.enabled = False  # the gate's own calls are not the program's work
            verdicts = wl.check(i, result)
            if tracer is not None:
                tracer.enabled = True
        p.attempted += len(verdicts)
        for v in verdicts:
            if v is not True:
                p.failures[v] = p.failures.get(v, 0) + 1
        if hasattr(wl, "kind"):
            p.kinds.setdefault(wl.kind(i), []).append(dt)
        p.latencies.append(dt)
    if speed is not None:
        speed.gap()
        p.scaled = speed.scaled(p.latencies)
    return p


def timed_setups(wl, speed):
    """Median set-up time over SETUP_REPEATS set-ups: wall and scaled."""
    wall = []
    speed.begin()
    for _ in range(SETUP_REPEATS):
        speed.gap()
        t0 = time.perf_counter()
        wl.setup()
        wall.append(time.perf_counter() - t0)
    speed.gap()
    return statistics.median(wall), statistics.median(speed.scaled(wall))


def timing_metrics(latencies, setup_s):
    t, rank, count = tail(latencies)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * t,
    }, "order statistic %d of %d operations" % (rank, count)


def end_to_end(name, wl, seconds, setups, speed):
    """End-to-end metrics in reference-machine time (see speed.py); the
    wall-clock figures of the same run go to the notes."""
    wl.speed = speed
    p = drive(wl, seconds=seconds, speed=speed)
    metrics, tail_note = timing_metrics(p.scaled, setups[1])
    wall, _ = timing_metrics(p.latencies, setups[0])
    usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    factors = speed.factors()
    notes = {
        "op_tail_ms": tail_note,
        "wall_clock": {k: round(v, 6) for k, v in wall.items()},
        "speed_factor": "median %.4f, range %.4f..%.4f over %d samples"
                        % (statistics.median(factors), min(factors), max(factors), len(factors)),
    }
    return p, metrics, notes


def import_times(runs=3):
    """`import gencusp` and its `scipy.optimize` share, from -X importtime."""
    found = {"gencusp": [], "scipy.optimize": []}
    env = dict(os.environ, PYTHONPATH=SRC)
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gencusp"],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("import gencusp failed: %s" % proc.stderr[-500:])
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [x.strip() for x in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) * 1e-6
        for mod in found:
            found[mod].append(cumulative.get(mod, 0.0))
    return {mod: statistics.median(v) for mod, v in found.items()}


def per_layer(name, wl, seconds):
    """Traced run: every operation with spans off and then on (see
    ``drive``); per-layer figures come from the calls with spans on. On
    ``cli`` a first pass times the commands as subprocesses, and the traced
    pass runs the same commands in process."""
    from spans import Tracer

    from gencusp import verify

    metrics = {}
    if name == "cli":
        subproc = drive(wl, seconds=seconds / 2)
        for kind in CLI_KINDS:
            metrics["cli.%s.s" % kind] = statistics.median(subproc.kinds.get(kind, [0.0]))
        imports = import_times()
        metrics["cli.import_s"] = imports["gencusp"]
        metrics["cli.import_scipy_optimize_s"] = imports["scipy.optimize"]
        wl.in_process = True
    else:
        for kind in CLI_KINDS:
            metrics["cli.%s.s" % kind] = 0.0
        metrics["cli.import_s"] = metrics["cli.import_scipy_optimize_s"] = 0.0

    tracer = Tracer()
    mesh_bytes = []

    def count_maxima(tr, args, kwargs, result):
        tr.count("maxima_found", len(result.points))

    def count_bytes(tr, args, kwargs, result):
        mesh_bytes.append(os.path.getsize(args[2]))

    tracer.install({"shape.sphere_local_maxima": count_maxima,
                    "dim3.export_mesh_csv": count_bytes,
                    "dim3.export_mesh_obj": count_bytes})
    wl.tracer = tracer
    try:
        if name == "cli":
            traced = drive(wl, count=subproc.ops, tracer=tracer)
        else:
            traced = drive(wl, seconds=seconds, tracer=tracer)
    finally:
        tracer.uninstall()
        wl.tracer = None

    spans = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            metrics["%s.%s" % (span, stat)] = spans.get(span, empty)[stat]

    def ratio(a, b):
        return a / b if b else 0.0

    calls = {span: spans.get(span, empty)["calls"] for span in SPAN_STATS}
    metrics["invariants.realize_weight_data.failures"] = spans.get(
        "invariants.realize_weight_data", empty)["raised"]
    metrics["invariants.lsa_fallback_ratio"] = ratio(
        spans.get("invariants.linear_sum_assignment", empty)["calls"], calls["invariants.eta_distance"])
    metrics["shape.height_at_per_fit"] = ratio(calls["shape.height_at"], calls["shape.fit_height_jet"])
    metrics["shape.recover_cusp_from_shape.failures"] = spans.get(
        "shape.recover_cusp_from_shape", empty)["raised"]
    metrics["shape.maxima_found_ratio"] = ratio(
        tracer.counters.get("maxima_found", 0), tracer.counters.get("maxima_expected", 0))
    metrics["dim3.mesh_bytes"] = sum(mesh_bytes)

    check_s = dict.fromkeys((c["name"] for c in verify.CHECKS), 0.0)
    if name == "battery":
        check_s.update(wl.last_times)
    for check, s in sorted(check_s.items()):
        metrics["verify.%s.s" % check] = s
    metrics["trace.overhead_frac"] = traced.busy / sum(traced.untraced) - 1.0
    for metric in list(metrics):
        for prefix, names in ONLY_ON.items():
            if metric.startswith(prefix) and name not in names:
                del metrics[metric]
    notes = {"ops": traced.ops, "spans": len(tracer.start)}
    return traced, metrics, notes, tracer


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith((".calls", ".failures")):
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("cli", "forward", "inverse", "battery"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: the battery at 2 samples and dims 3")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    load_program()
    # one CPU for the runner and the CLI processes it starts, so that the
    # speed samples and the timed work run on the same CPU
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    sys.path.insert(0, HERE)
    import workloads

    with open(os.path.join(HERE, "baseline.json")) as fh:
        baseline = json.load(fh)
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, tiny=args.tiny)
    speed = Speed(getattr(wl, "reference", "compute"))
    setups = timed_setups(wl, speed)
    out_dir = os.path.join(ROOT, ".bench_out")
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        p, metrics, notes, tracer = per_layer(args.workload, wl, args.seconds)
        tracer.write(os.path.join(out_dir, "spans-%s.npz" % tag))
    else:
        p, metrics, notes = end_to_end(args.workload, wl, args.seconds, setups, speed)

    attempted, failed = p.attempted, p.failed
    rate = baseline["fail_rate"][args.workload]
    allowed = allowed_failures(rate, attempted)
    correct = failed <= allowed
    env = environment(cpus)
    for name, value in metrics.items():
        print("%-48s %.6g %s" % (name, value, unit_of(name)))
    for key, value in notes.items():
        print("note %s: %s" % (key, value))
    if p.failures:
        print("failures: %s" % json.dumps(p.failures, sort_keys=True))
    for err in p.errors[:5]:
        print("error %s" % err.strip().replace("\n", " | "))
    print("gate: %d of %d failed; %d allowed at the recorded rate %g -> %s"
          % (failed, attempted, allowed, rate, "pass" if correct else "FAIL"))
    print("env %s" % json.dumps(env, sort_keys=True))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "result-%s.json" % tag), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "notes": notes, "failures": p.failures,
                   "allowed": allowed,
                   "attempted": attempted, "failed": failed, "metrics": metrics}, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
