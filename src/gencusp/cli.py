"""Command-line surface: build cusps, emit invariants, test conjugacy,
recover parameters from invariants, run the verification battery, export
meshes, and demonstrate the diagonalizable-approximation limit.

Exit codes: 0 ok, 1 validation error, 2 numerical failure, 3 I/O error.
All randomness sits behind --seed; outputs are canonical JSON (sorted keys)
so runs with the same seed are byte-identical.
"""

import argparse
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

# every other gencusp module is imported by the commands that use it, so a
# command pays only for its own imports
from .cusp_groups import BlownUpWeylPoint, build_marked_cusp


class ValidationError(ValueError):
    pass


@contextmanager
def _invalid_input(path, kind=ValueError):
    """Report a ``kind`` error raised on the data of ``path`` as a
    validation error (exit 1)."""
    try:
        yield
    except ValidationError:
        raise
    except kind as exc:
        raise ValidationError("%s: %s" % (path, exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _round12(a, size=None):
    """``a``, a number or an array, as a float or lists: each entry to 12
    decimals of the leading decade of ``size`` (default a's largest |entry|),
    the same digits at every scale.  Relative distances pass size 1."""
    a = np.asarray(a, dtype=float)
    size = float(np.abs(a).max(initial=0.0)) if size is None else size
    if a.ndim:
        return [_round12(x, size) for x in a]
    digits = 12 - math.floor(math.log10(size)) if size > 0 else 12
    return round(float(a), digits) + 0.0  # normalize -0.0


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _write(text, out):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError("cannot write %r: %s" % (out, exc)) from exc


def _load_json(path):
    """The JSON object held in ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise OSError("cannot read %r: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError("%s: invalid JSON: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise ValidationError("%s: expected a JSON object, got %s" % (path, type(data).__name__))
    return data


def _is_real(v):
    """A finite JSON number; ``json`` also parses NaN and Infinity."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _require(data, key, kind, path):
    if key not in data:
        raise ValidationError("%s: missing field %r" % (path, key))
    value = data[key]
    if kind == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError("%s: field %r must be an integer" % (path, key))
    elif kind == "vector":
        if not isinstance(value, list) or not all(_is_real(v) for v in value):
            raise ValidationError("%s: field %r must be a list of finite reals" % (path, key))
    elif kind == "matrix":
        if not isinstance(value, list) or not all(
            isinstance(row, list) and all(_is_real(v) for v in row) for row in value
        ):
            raise ValidationError("%s: field %r must be a matrix of finite reals" % (path, key))
    return value


def parse_cusp_params(data, path="<input>"):
    n = _require(data, "n", "int", path)
    lam = _require(data, "lambda", "vector", path)
    kap = _require(data, "kappa", "vector", path)
    b = data.get("B")
    if b is not None:
        _require(data, "B", "matrix", path)
    orth = data.get("orthonormalized", False)
    if not isinstance(orth, bool):
        raise ValidationError("%s: field 'orthonormalized' must be true or false" % path)
    # the library checks the lengths and B's shape; a ragged B fails np.array
    with _invalid_input(path):
        marking = None if b is None else np.array(b, dtype=float)
        p = BlownUpWeylPoint(n, np.array(lam, dtype=float), np.array(kap, dtype=float))
        return build_marked_cusp(p, marking, orthonormalized=orth)


def cusp_to_dict(cusp):
    return {
        "n": cusp.n,
        "lambda": [float(v) for v in cusp.params.lam],
        "kappa": [float(v) for v in cusp.params.kappa],
        "B": [[float(v) for v in row] for row in np.asarray(cusp.marking)],
        "orthonormalized": bool(cusp.orthonormalized),
        "rescaled": bool(cusp.rescaled),
    }


def cmd_build(args):
    data = _load_json(args.params)
    cusp = parse_cusp_params(data, args.params)
    out = cusp_to_dict(cusp)
    if cusp.rescaled:
        out["note"] = "marking determinant folded into lambda (rescaled)"
    _write(canonical_json(out), args.out)
    return 0


def _shape_to_dict(s):
    mono = sorted(s.c.monomials().items())
    # q is unimodular (no size); c drops what rounds to 0 at the cubic's size
    c = zip((",".join(map(str, e)) for e, _ in mono), _round12([v for _, v in mono]))
    return {"q": _round12(s.q, 1.0), "c": {k: v for k, v in c if v}}


def _block(data, key, path):
    """The ``key`` block of an invariants file, or the file itself when it
    holds just that block."""
    block = data.get(key, data)
    if not isinstance(block, dict):
        raise ValidationError("%s: field %r must be a JSON object" % (path, key))
    return block


def _shape_from_dict(data, path):
    from .shape import CubicPoly, ShapeInvariant

    block = _block(data, "shape", path)
    q = _require(block, "q", "matrix", path)
    c = block.get("c", {})
    if not isinstance(c, dict) or not all(_is_real(v) for v in c.values()):
        raise ValidationError("%s: field 'c' must map monomial keys to finite reals" % path)
    with _invalid_input(path):
        q = np.array(q, dtype=float)
        mono = {tuple(int(t) for t in key.split(",")): float(val) for key, val in c.items()}
        return ShapeInvariant(q, CubicPoly.from_monomials(q.shape[0], mono))


def invariants_payload(cusp):
    from .invariants import complete_invariant, weight_data
    from .shape import cubic_from_weights, shape_invariant

    eta = complete_invariant(cusp)
    nu = weight_data(cusp)
    s = shape_invariant(cusp, "closed")
    from_weights = cubic_from_weights(nu)
    # varpi, a negative one clamped to 0 before it is scaled back (no cusp
    # has one), and the largest dual norm, which sets varpi's digits: both
    # are squares of the weights, read at unit size, w = 2^e w', and back by 2^2e
    norms, _, unit_varpi = nu.unit_gram
    varpi = nu.varpi if unit_varpi > 0 else 0.0
    m, k = math.frexp(float(norms.max()))
    k += 2 * nu.exponent
    # exact, and an int past the float range: only its decade is read
    top = math.ldexp(m, k) if k <= 1024 else int(math.ldexp(m, 53)) << (k - 53)
    payload = {
        "eta": {
            "weights": _round12(eta.character.weights),
            "beta": _round12(eta.metric, 1.0),
        },
        "nu": {
            "weights": _round12(nu.weights),
            "beta": _round12(nu.metric, 1.0),
            "varpi": _round12(varpi, top),
            "type": int(nu.type_t),
        },
        "shape": _shape_to_dict(s),
        "cross_check": {
            "cubic_routes_residual": _round12(s.distance(from_weights), 1.0),
            "weights_equation_residual": _round12(nu.residual_ratio, 1.0),
        },
    }
    if cusp.n == 3:
        from .dim3 import coords_from_shape

        coords = coords_from_shape(s)
        hr = _round12([coords.h.real, coords.h.imag, coords.r.real, coords.r.imag])
        w = _round12([coords.w.real, coords.w.imag], 1.0)
        payload["coords3d"] = {"w": w, "h": hr[:2], "r": hr[2:]}
    else:
        payload["coords3d"] = {"note": "n != 3"}
    return payload


def cmd_invariants(args):
    from .shape import SHAPE_TOL

    cusp = parse_cusp_params(_load_json(args.cusp), args.cusp)
    payload = invariants_payload(cusp)
    # the two routes to the cubic must agree as shapes
    if payload["cross_check"]["cubic_routes_residual"] > SHAPE_TOL:
        raise RuntimeError(
            "invariant cross-check failed: cubic route residual %g"
            % payload["cross_check"]["cubic_routes_residual"]
        )
    _write(canonical_json(payload), args.out)
    return 0


def cmd_conjugate(args):
    from .invariants import CONJUGATE_TOL, complete_invariant, eta_distance

    c1 = parse_cusp_params(_load_json(args.cusp1), args.cusp1)
    c2 = parse_cusp_params(_load_json(args.cusp2), args.cusp2)
    if c1.n != c2.n:
        raise ValidationError("cusps have different dimensions %d and %d" % (c1.n, c2.n))
    dist = eta_distance(complete_invariant(c1), complete_invariant(c2))
    tol = CONJUGATE_TOL if args.tol is None else args.tol
    _write(
        canonical_json({"conjugate": bool(dist <= tol), "eta_distance": _round12(dist, 1.0)}),
        args.out,
    )
    return 0


def _weights_block(data, key, path, build):
    """``build(weights, beta)`` on the ``key`` block of an invariants file."""
    block = _block(data, key, path)
    w = _require(block, "weights", "matrix", path)
    beta = _require(block, "beta", "matrix", path)
    with _invalid_input(path):
        return build(np.array(w, dtype=float), np.array(beta, dtype=float))


def _eta_from_dict(data, path):
    from .invariants import CharacterData, CompleteInvariant

    return _weights_block(data, "eta", path, lambda w, beta: CompleteInvariant(CharacterData(w), beta))


def _nu_from_dict(data, path):
    from .invariants import WeightData

    return _weights_block(data, "nu", path, WeightData)


def cmd_recover(args):
    from .invariants import NotRealizable, realize_weight_data, recover_psi_from_invariant

    data = _load_json(args.source)
    # data no cusp has is a validation error; a genuine invariant whose
    # rebuilt cusp misses it stays a numerical failure (exit 2)
    with _invalid_input(args.source, NotRealizable):
        if args.kind == "psi":
            psi = recover_psi_from_invariant(_eta_from_dict(data, args.source))
            out = {"psi": _round12(psi.psi), "type": int(psi.type_t)}
        elif args.kind == "weights":
            out = cusp_to_dict(realize_weight_data(_nu_from_dict(data, args.source)))
        else:
            from .shape import recover_cusp_from_shape

            out = cusp_to_dict(recover_cusp_from_shape(_shape_from_dict(data, args.source)))
    _write(canonical_json(out), args.out)
    return 0


def cmd_verify(args):
    from .verify import run_battery

    report = run_battery(seed=args.seed, samples=args.samples, dims=args.dims)
    _write(canonical_json(report), args.out)
    if not report["passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        sys.stderr.write("verification failed: %s\n" % ", ".join(failing))
        return 2
    return 0


def cmd_mesh(args):
    cusp = parse_cusp_params(_load_json(args.cusp), args.cusp)
    try:
        g1, g2 = (int(t) for t in args.grid.lower().split("x"))
    except ValueError as exc:
        raise ValidationError("grid: expected g1xg2, got %r" % args.grid) from exc
    if min(g1, g2) < 2:
        raise ValidationError("grid: each side must be at least 2, got %r" % args.grid)
    from . import dim3

    with _invalid_input(args.cusp):  # dim3 refuses n != 3 before writing
        rows = dim3.export_mesh_csv(cusp.params, (g1, g2), args.out)
    if args.obj:
        dim3.export_mesh_obj(cusp.params, (g1, g2), args.obj)
    sys.stdout.write("wrote %d rows to %s\n" % (rows, args.out))
    return 0


def cmd_limit_demo(args):
    try:
        kappa = [float(t) for t in args.kappa.split(",")]
    except ValueError as exc:
        raise ValidationError("kappa: expected comma-separated reals") from exc
    if args.m_max < 10:
        raise ValidationError("m-max must be at least 10 (the first row), got %d" % args.m_max)
    from .invariants import limit_demo_rows

    with _invalid_input("--kappa"):
        rows = limit_demo_rows(kappa, args.m_max)
    lines = ["%12s %16s %20s %20s" % ("m", "lambda0", "generator_distance", "invariant_distance")]
    for row in rows:
        lines.append(
            "%12d %16.6e %20.6e %20.6e"
            % (row["m"], row["lambda0"], row["generator_distance"], row["invariant_distance"])
        )
    for prev, cur in zip(rows, rows[1:]):
        if not cur["generator_distance"] < prev["generator_distance"]:
            raise RuntimeError("generator distances are not decreasing")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _nonnegative_float(text):
    tol = float(text)
    if not (np.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError("must be finite and >= 0, got %r" % text)
    return tol


def _positive_int(text):
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %r" % text)
    return count


def _dimension_list(text):
    parts = [t.strip() for t in text.split(",")]
    if not all(t.isdigit() and int(t) >= 3 for t in parts):
        raise argparse.ArgumentTypeError("expected comma-separated integers >= 3, got %r" % text)
    return tuple(int(t) for t in parts)


def make_parser():
    parser = _Parser(prog="gencusp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_build = sub.add_parser("build", help="normalize cusp parameters to a canonical file")
    p_build.add_argument("params")
    p_build.add_argument("--out")
    p_build.set_defaults(fn=cmd_build)

    p_inv = sub.add_parser("invariants", help="emit eta, nu, shape, and (w,h,r) blocks")
    p_inv.add_argument("cusp")
    p_inv.add_argument("--out")
    p_inv.set_defaults(fn=cmd_invariants)

    p_conj = sub.add_parser("conjugate", help="decide conjugacy of two cusp files")
    p_conj.add_argument("cusp1")
    p_conj.add_argument("cusp2")
    # None reads invariants.CONJUGATE_TOL, which the parser does not import
    p_conj.add_argument("--tol", type=_nonnegative_float,
                        help="eta_distance threshold (default 1e-8)")
    p_conj.add_argument("--out")
    p_conj.set_defaults(fn=cmd_conjugate)

    p_rec = sub.add_parser("recover", help="invert an invariant back to parameters")
    p_rec.add_argument("kind", choices=("psi", "weights", "shape"))
    p_rec.add_argument("source")
    p_rec.add_argument("--out")
    p_rec.set_defaults(fn=cmd_recover)

    p_ver = sub.add_parser("verify", help="run the verification battery")
    p_ver.add_argument("--seed", type=int, default=0, help="seed of the battery (default 0)")
    p_ver.add_argument("--samples", type=_positive_int, default=50)
    p_ver.add_argument("--dims", type=_dimension_list, default="3,4,5")
    p_ver.add_argument("--out")
    p_ver.set_defaults(fn=cmd_verify)

    p_mesh = sub.add_parser("mesh", help="export the boundary surface as CSV/OBJ")
    p_mesh.add_argument("cusp")
    p_mesh.add_argument("--grid", default="20x20")
    p_mesh.add_argument("--out", required=True)
    p_mesh.add_argument("--obj")
    p_mesh.set_defaults(fn=cmd_mesh)

    p_lim = sub.add_parser("limit-demo", help="convergence of diagonalizable approximations")
    p_lim.add_argument("--kappa", required=True)
    p_lim.add_argument("--m-max", type=int, default=10000)
    p_lim.add_argument("--out")
    p_lim.set_defaults(fn=cmd_limit_demo)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ValidationError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except OSError as exc:
        sys.stderr.write("i/o error: %s\n" % exc)
        return 3
    except (ValueError, RuntimeError, OverflowError) as exc:
        sys.stderr.write("numerical error: %s\n" % exc)
        return 2


def run(argv=None):
    """The process entry of both ``gencusp`` and ``python -m gencusp.cli``:
    ``main(argv)``, then exit with its code.  ``main`` has no process-wide
    effect, so tests and in-process callers call it directly."""
    # Finalization runs several full cyclic collections, each a walk over
    # every object numpy and gencusp built at import (~21k objects, ~2.8 ms
    # a walk).  Frozen objects are skipped, so the exit is ~10 ms shorter;
    # stdio is still flushed, atexit handlers still run, and the code is
    # the same.  The collector ran as usual during the command; cyclic
    # garbage left at the freeze is not finalized, and every command has
    # closed its files by then.
    import gc

    code = main(argv)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
