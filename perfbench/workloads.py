"""The four workloads. Each is a closed loop with one client: the next
operation starts when the previous one has returned.

A workload has ``setup()`` (inputs and warm-up, timed as set-up),
``prepare(i)`` (untimed input generation for operation i), ``op(i)`` (the
timed call into the program) and ``check(i, result)`` (the untimed
correctness gate: one verdict per item attempted, True when right and
otherwise a short reason). Library
calls go through module attributes so that a traced run's wrappers see
them.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import inputs
from gencusp import cli, cusp_groups, dim3, invariants, linalg, shape, verify

ROUTE_TOL = 1e-5  # cubic-route residual gate (the CLI's own invariants gate)
CONJ_TOL = 1e-6  # recovered cusps must be conjugate to their sources
CHUNK = 64  # inputs generated per batch


def expected_psi(cusp):
    """The marked normal form of a cusp's diagonal-model parameter: fold the
    effective marking's determinant into lambda, as build_marked_cusp does,
    then take the normal form of the canonical build."""
    ref = cusp_groups.build_marked_cusp(cusp.params, cusp.effective_marking)
    return invariants.marked_psi_normal_form(ref.params).psi


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: any exception is a wrong output
    of that item, not a crash of the run."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


class _Cases:
    """Lazily extended list of seeded cases of one stream."""

    def __init__(self, seed, stream, dims, small_share=0.0):
        self.seed, self.stream, self.dims, self.small_share = seed, stream, dims, small_share
        self.items = []

    def ensure(self, i):
        while len(self.items) <= i:
            self.items += inputs.cases(
                self.seed, self.stream, len(self.items), CHUNK, self.dims, self.small_share
            )
        return self.items[i]


class Forward:
    """Cusp -> every invariant, and a conjugacy decision against a conjugate
    copy with another marking. One operation is ``per_n`` cusps of each n in
    3..7: every operation has the same mix of dimensions, and at ~0.15 s it
    is long enough that a short stall of the machine does not set the
    tail."""

    dims = (3, 4, 5, 6, 7)
    per_n = 5

    def __init__(self, seed, root, tiny=False):
        self.seed = seed

    def setup(self):
        self.cases = _Cases(self.seed, inputs.TIMED, self.dims)
        self.cases.ensure(CHUNK - 1)
        warm = [self._run(c) for c in inputs.warmup_cases(self.dims)]
        if not all(self.check(None, warm)):
            raise RuntimeError("forward warm-up produced a wrong result")

    def prepare(self, i):
        self.cases.ensure(len(self.dims) * self.per_n * (i + 1) - 1)

    def op(self, i):
        k = len(self.dims) * self.per_n
        return [_attempt(self._run, c) for c in self.cases.items[k * i:k * (i + 1)]]

    @staticmethod
    def _run(case):
        cusp = case.build()
        invariants.complete_invariant(cusp)
        nu = invariants.weight_data(cusp)
        s = shape.shape_invariant(cusp, "closed")
        resid = s.distance(shape.cubic_from_weights(nu))
        if case.n == 3:
            dim3.coords_from_shape(s)
        return resid, invariants.are_conjugate(cusp, case.remarked())

    def check(self, i, result):
        return [
            type(r).__name__ if isinstance(r, Exception)
            else "cubic routes" if not r[0] <= ROUTE_TOL
            else "not conjugate" if not r[1]
            else True
            for r in result
        ]


class Inverse:
    """Precomputed invariants -> cusp by each of the three inverse maps. One
    operation is one cusp of each n in 3..7, like ``Forward``.

    Half of the type-n cases draw lambda0 log-uniform in [1e-4, 0.3], the
    band where realization and shape recovery are known to fail."""

    dims = (3, 4, 5, 6, 7)
    small_share = 0.5

    def __init__(self, seed, root, tiny=False):
        self.seed = seed
        self.tracer = None

    def _precompute(self, case):
        cusp = case.build()
        return {
            "case": case,
            "cusp": cusp,
            "eta": invariants.complete_invariant(cusp),
            "nu": invariants.weight_data(cusp),
            "shape": shape.shape_invariant(cusp, "closed"),
            "psi": expected_psi(cusp),
        }

    def setup(self):
        self.cases = _Cases(self.seed, inputs.TIMED, self.dims, self.small_share)
        self.inputs = []
        self.prepare(CHUNK // (2 * len(self.dims)))
        for c in inputs.warmup_cases(self.dims):
            self._run(self._precompute(c))

    def prepare(self, i):
        while len(self.inputs) < len(self.dims) * (i + 1):
            self.inputs.append(self._precompute(self.cases.ensure(len(self.inputs))))

    def _group(self, i):
        k = len(self.dims)
        return self.inputs[k * i:k * (i + 1)]

    def op(self, i):
        group = self._group(i)
        if self.tracer is not None and self.tracer.enabled:
            # sphere maxima expected: one per nonzero linear weight
            self.tracer.count("maxima_expected", sum(item["case"].t for item in group))
        return [self._run(item) for item in group]

    @staticmethod
    def _run(item):
        return (
            _attempt(invariants.recover_psi_from_invariant, item["eta"]),
            _attempt(invariants.realize_weight_data, item["nu"]),
            _attempt(shape.recover_cusp_from_shape, item["shape"]),
        )

    def check(self, i, result):
        """Per cusp: True, or the inverse maps whose output is wrong."""
        verdicts = []
        for item, (psi, by_weights, by_shape) in zip(self._group(i), result):
            wrong = []
            if isinstance(psi, Exception) or linalg.maxerr(psi.psi, item["psi"]) > CONJ_TOL:
                wrong.append("psi")
            for key, cusp in (("weights", by_weights), ("shape", by_shape)):
                if isinstance(cusp, Exception) or not invariants.are_conjugate(
                        cusp, item["cusp"], CONJ_TOL):
                    wrong.append(key)
            verdicts.append("+".join(wrong) if wrong else True)
        return verdicts


class Battery:
    """The 36-check verification battery. One operation is one battery; each
    check is one item attempted."""

    def __init__(self, seed, root, tiny=False):
        self.seed = seed
        self.samples_per_check, self.dims = (2, (3,)) if tiny else (50, (3, 4, 5))
        self.speed = None  # set by the runner: machine speed sampled between checks

    def setup(self):
        # warm-up on another seed: same checks, distinct inputs
        self._battery(inputs.WARMUP_SEED, 1, (3,))

    def prepare(self, i):
        pass

    def op(self, i):
        # operation 0 runs the battery of `gencusp verify --seed <seed>`
        report, self.last_times = self._battery(
            self.seed + 1_000_003 * i, self.samples_per_check, self.dims)
        return report, self.last_times

    def _battery(self, seed, samples, dims):
        times = {}

        def timed(name, fn):
            def run(*args):
                if self.speed is not None:
                    self.speed.maybe_sample()
                t0 = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    times[name] = time.perf_counter() - t0

            return run

        originals = [c["fn"] for c in verify.CHECKS]
        try:
            for c in verify.CHECKS:
                c["fn"] = timed(c["name"], c["fn"])
            report = verify.run_battery(seed, samples, dims)
        finally:
            for c, fn in zip(verify.CHECKS, originals):
                c["fn"] = fn
        return report, times

    def check(self, i, result):
        return [True if c["passed"] else "%s (residual %g, threshold %g)"
                % (c["name"], c["max_residual"], c["threshold"]) for c in result[0]["checks"]]


class Cli:
    """`gencusp` subprocesses, one after another, on cusp files with n in
    3..5 that cover every type.

    Per cusp: build, invariants, conjugate (a conjugate and a
    non-conjugate partner), recover psi|weights|shape, and for n = 3 mesh
    (CSV and OBJ)."""

    dims = (3, 4, 5)
    mesh_grid = 100
    reference = "startup"  # machine speed from interpreter start-up (speed.py)

    def __init__(self, seed, root, tiny=False):
        self.seed = seed
        self.root = root
        self.in_process = False
        self.workdir = os.path.join(root, ".bench_out", "cli-work")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def _case(self, j):
        """Case j: n cycles through 3, 4, 5, so every run starts with an n = 3
        file (and its mesh); for each n the types run through 0..n in a
        seeded order."""
        n = self.dims[j % len(self.dims)]
        k = j // len(self.dims)
        order = np.random.default_rng([self.seed, inputs.CLI, n, k // (n + 1)])
        t = int(order.permutation(n + 1)[k % (n + 1)])
        rng = np.random.default_rng([self.seed, inputs.CLI, 0, j])
        p = inputs.blownup_point(rng, n, t)
        case = inputs.Case(j, n, t, False, p, inputs.marking(rng, n - 1), bool(rng.integers(0, 2)))
        q = inputs.blownup_point(rng, n, (t + 1) % (n + 1))  # another type: never conjugate
        other = inputs.Case(j, n, q.type_t, False, q, inputs.marking(rng, n - 1), False)
        return case, other

    def _write(self, name, obj):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def _add_case(self, j):
        case, other = self._case(j)
        src = case.build()
        d = "c%d-" % j
        params = self._write(d + "params.json", inputs.cusp_file(src))
        partner = self._write(d + "partner.json", inputs.cusp_file(case.remarked()))
        stranger = self._write(d + "other.json", inputs.cusp_file(other.build()))
        cusp, inv = (os.path.join(self.workdir, d + f) for f in ("cusp.json", "inv.json"))
        ctx = {"src": src, "psi": expected_psi(src)}
        cmds = [
            ("build", ["build", params, "--out", cusp], ctx),
            ("invariants", ["invariants", cusp, "--out", inv], ctx),
            ("conjugate", ["conjugate", cusp, partner], dict(ctx, expect=True)),
            ("conjugate", ["conjugate", cusp, stranger], dict(ctx, expect=False)),
            ("recover_psi", ["recover", "psi", inv], ctx),
            ("recover_weights", ["recover", "weights", inv], ctx),
            ("recover_shape", ["recover", "shape", inv], ctx),
        ]
        if case.n == 3:
            g = self.mesh_grid
            mesh = [os.path.join(self.workdir, d + f) for f in ("mesh.csv", "mesh.obj")]
            cmds.append(("mesh", ["mesh", cusp, "--grid", "%dx%d" % (g, g),
                                  "--out", mesh[0], "--obj", mesh[1]], dict(ctx, mesh=mesh)))
        self.commands += cmds

    def setup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.commands = []
        self._cases_done = 0
        self.prepare(0)
        # warm-up: one command on a cusp file of its own
        warm = inputs.warmup_cases(self.dims)[0]
        path = self._write("warmup.json", inputs.cusp_file(warm.build()))
        code, _ = self._command(["invariants", path, "--out", path + ".inv"])
        if code != 0:
            raise RuntimeError("cli warm-up failed with exit code %d" % code)

    def prepare(self, i):
        while len(self.commands) <= i:
            self._add_case(self._cases_done)
            self._cases_done += 1

    def _command(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "gencusp.cli"] + argv,
            env=self.env, cwd=self.root, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def op(self, i):
        return self._command(self.commands[i][1])

    def kind(self, i):
        return self.commands[i][0]

    def check(self, i, result):
        return [self._correct(i, result) or self.commands[i][0]]

    def _correct(self, i, result):
        kind, argv, ctx = self.commands[i]
        code, stdout = result
        if code != 0:
            return False
        # a missing file, malformed JSON or a missing key is a wrong output
        try:
            if kind == "mesh":
                return self._mesh_ok(ctx["mesh"])
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            if out is None:
                data = json.loads(stdout)
            else:
                with open(out) as fh:
                    data = json.load(fh)
            if kind == "conjugate":
                return data["conjugate"] is ctx["expect"]
            if kind == "recover_psi":
                return linalg.maxerr(data["psi"], ctx["psi"]) <= CONJ_TOL
            if kind == "invariants":
                return data["cross_check"]["cubic_routes_residual"] <= ROUTE_TOL
            p = cusp_groups.BlownUpWeylPoint(data["n"], data["lambda"], data["kappa"])
            rec = cusp_groups.build_marked_cusp(p, np.array(data["B"]), bool(data["orthonormalized"]))
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            return False
        return bool(invariants.are_conjugate(rec, ctx["src"], CONJ_TOL))

    def _mesh_ok(self, paths):
        g = self.mesh_grid
        with open(paths[0]) as fh:
            rows = fh.read().splitlines()
        with open(paths[1]) as fh:
            tags = [line[:1] for line in fh]
        return (
            rows[0] == "x1,x2,y"
            and len(rows) == g * g + 1
            and tags.count("v") == g * g
            and tags.count("f") == 2 * (g - 1) ** 2
        )


WORKLOADS = {"cli": Cli, "forward": Forward, "inverse": Inverse, "battery": Battery}
