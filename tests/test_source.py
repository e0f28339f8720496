"""Rules on the library source itself."""

import ast
from pathlib import Path

import numpy as np
import pytest

import gencusp

_MODULES = sorted(Path(gencusp.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_library_has_no_assert(path):
    # `python -O` strips assert statements, so a check the library relies on
    # must raise an exception instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements at lines %s" % (path.name, lines)



@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_einsum_over_six_indices(path):
    # an einsum without an optimize path is one loop over every index it
    # names, O(d^k) in k letters: contract through matrix products instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    wide = [
        (node.lineno, node.args[0].value) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "einsum" and node.args and isinstance(node.args[0], ast.Constant)
        and len({ch for ch in node.args[0].value if ch.isalpha()}) >= 6
    ]
    assert wide == [], "%s has einsum calls over six or more indices: %s" % (path.name, wide)


# Float literals below 1e-3 in the library, outside verify's per-check
# thresholds (the arguments of its @_register decorators).  Module constants
# count too: a new zero, singularity or roundoff-slack test reads linalg's
# ZERO, SLACK, DET_TOL or ROUNDOFF, so the count only falls.
_SMALL_LITERALS_MAX = 26


def _small_float_literals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    gates = {
        id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for deco in fn.decorator_list
        if isinstance(deco, ast.Call) and getattr(deco.func, "id", None) == "_register"
        for node in ast.walk(deco)
    }
    return [
        (path.name, node.lineno, node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-3 and id(node) not in gates
    ]


def test_small_float_literals_do_not_grow():
    found = [lit for path in _MODULES for lit in _small_float_literals(path)]
    assert len(found) <= _SMALL_LITERALS_MAX, (
        "%d float literals below 1e-3 (at most %d): %s"
        % (len(found), _SMALL_LITERALS_MAX, found)
    )


def test_no_unit_floor_under_a_size():
    # every verdict in invariants and shape reads the data's own size: a
    # max(1.0, size) floor would make it absolute below magnitude 1, so that
    # a cusp and its lambda scaled by s > 0 could get different verdicts
    floors = [
        (path.name, node.lineno) for path in _MODULES
        if path.name in ("invariants.py", "shape.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "max" or getattr(node.func, "attr", None) == "maximum")
        and any(isinstance(arg, ast.Constant) and isinstance(arg.value, float) and arg.value == 1.0
                for arg in node.args)
    ]
    assert floors == [], "max(1.0, ...) size floors: %s" % floors


_PERFBENCH = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))

def _references(path):
    """(identifier, names of the enclosing functions and classes) for each
    name a module reads, attribute it takes or name it imports."""
    found = []

    def visit(node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scopes = scopes | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, scopes))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, scopes))
        elif isinstance(node, ast.alias):
            found.append((node.name.rpartition(".")[2], scopes))
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), frozenset())
    return found


def _exports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def test_every_export_is_reached():
    # a public name that only tests call is code no claim of the library
    # reaches: its own body does not count as a use
    reached = {
        name for path in _MODULES + _PERFBENCH
        for name, scopes in _references(path) if name not in scopes
    }
    unreached = sorted(
        "%s.%s" % (path.stem, name) for path in _MODULES for name in _exports(path)
        if name not in reached
    )
    assert unreached == [], "exported but reached by no library or perfbench code: %s" % unreached


# the battery's independent references: verify.py owns them, so no module a
# command loads carries a route that only the battery checks against
_BATTERY_ORACLES = {
    "restricted_diag_calibration", "surface_height_3d", "surface_height_printed_row",
    "varpi_closed_form", "weights_equation_residual", "frame_to_weight_data", "_FRAME_TOL",
}


def test_battery_oracles_live_in_verify_alone():
    offenders = []
    for path in _MODULES:
        if path.name == "verify.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = {
            node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else node.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
        }
        read = {name for name, _ in _references(path)}
        offenders += ["%s: %s" % (path.name, name)
                      for name in sorted((defined | read) & _BATTERY_ORACLES)]
    assert offenders == [], "battery oracles outside verify.py: %s" % offenders


def test_only_cli_imports_cli():
    # the library stands below its command line, never on it
    offenders = []
    for path in _MODULES:
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # `from . import cli` names the module as an imported name
                modules = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any("cli" in module.split(".") for module in modules):
                offenders.append((path.name, node.lineno))
    assert offenders == [], "library modules import cli: %s" % offenders


def test_one_owner_per_form_decision():
    # the weights' dual Gram data comes from invariants.dual_gram, the one
    # inverse of a weight metric; a form is scaled to det 1, s = det^(-1/dim),
    # by linalg alone (unimodular_scale, or unimodular_from_log_det from a
    # log det known by another route)
    inverses = [
        (path.name, sorted(scopes)) for path in _MODULES
        if path.name in ("invariants.py", "shape.py")
        for name, scopes in _references(path) if name == "inv" and "dual_gram" not in scopes
    ]
    assert inverses == [], "np.linalg.inv outside invariants.dual_gram: %s" % inverses

    def negative(node):
        return ((isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub))
                or (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
                    and node.value < 0))

    scales = [
        (path.name, node.lineno)
        for path in _MODULES if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Div)
        and negative(node.right.left)
    ]
    assert scales == [], "det-1 scales x ** (-1 / dim) outside linalg: %s" % scales


def test_one_owner_of_the_floating_point_warning_policy():
    # which floating-point warnings the library silences, and where, is
    # linalg's to decide (today in _series_or_closed and expm): every other
    # module calls its kernels and sees no np.errstate of its own
    entries = [
        (path.name, sorted(scopes)) for path in _MODULES
        for name, scopes in _references(path) if name == "errstate"
    ]
    assert entries and all(module == "linalg.py" for module, _ in entries), (
        "np.errstate outside linalg: %s" % entries)


def test_generator_stack_is_built_only_where_it_is_read():
    # a cusp's generator stack is built on first read: the complete
    # invariant reads its weights from cusp_groups._calibration_frame instead,
    # and outside cusp_groups only verify's independent checks build
    # lie_algebra_phi stacks of their own
    builders = sorted(
        path.name for path in _MODULES if path.name not in ("cusp_groups.py", "verify.py")
        for name, _ in _references(path) if name == "lie_algebra_phi"
    )
    assert builders == [], "lie_algebra_phi outside cusp_groups and verify: %s" % builders
    path = next(p for p in _MODULES if p.name == "invariants.py")
    readers = [name for name, scopes in _references(path)
               if "weights_of" in scopes and name == "generators"]
    assert readers == [], "invariants.weights_of reads the generator stack"


def test_one_owner_decides_which_weights_are_live():
    # which weights are zero is invariants._live_rows' decision alone (each
    # row's max-abs coordinate, by linalg.nonzero): the type, the linear
    # weights, the recoveries and the weights route of the shape all call it
    reads = [
        (path.name, sorted(scopes)) for path in _MODULES
        if path.name in ("invariants.py", "shape.py")
        for name, scopes in _references(path) if name == "nonzero"
    ]
    # the import itself is a module-level reference
    assert reads == [("invariants.py", []), ("invariants.py", ["_live_rows"])], (
        "nonzero read outside invariants._live_rows: %s" % reads)


def _attribute_reads(name, attr):
    """The top-level function or class (or '<module>') of each read of
    ``.attr`` in the library module ``name``."""
    path = next(p for p in _MODULES if p.name == name)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load)
    ]


def test_one_owner_of_the_calibration_frame():
    # the frame C = [kappa^T; I] M is built by cusp_groups._calibration_frame
    # alone: the generators, the weights, the metric and the closed cubic
    # read it, so none of them forms <v, kappa> or I + kappa kappa^T itself.
    # Only the psi normal form reads kappa in invariants and shape.
    dots = _attribute_reads("cusp_groups.py", "vecdot")
    assert dots == ["_calibration_frame"], "np.vecdot outside _calibration_frame: %s" % dots
    oracles = {"marked_psi_normal_form"}
    readers = sorted(
        (name, fn) for name in ("invariants.py", "shape.py")
        for fn in _attribute_reads(name, "kappa") if fn not in oracles
    )
    assert readers == [], ".kappa read outside the closed-form oracles: %s" % readers


def test_the_metric_takes_no_determinant():
    # the metric's det-1 scale is the cusp's gram_log_det, from the
    # marking's own LU by the matrix determinant lemma: invariants.py takes
    # no determinant (an LU of the Gram errs by eps cond(B)^2) and scales no
    # form to det 1 by one
    path = next(p for p in _MODULES if p.name == "invariants.py")
    found = sorted({ident for ident, _ in _references(path)
                    if ident in ("det", "slogdet", "unimodular_scale")})
    assert found == [], "invariants.py takes a determinant: %s" % found


def test_one_owner_of_the_unit_size_reading():
    # WeightData reads its rows at unit size and their dual Gram data once,
    # when it is made: varpi, the type, the residual, realization, the
    # weights route of the shape and the CLI payload read that reading, so
    # neither shape nor cli forms dual Gram data or scales weights itself
    for name in ("shape.py", "cli.py"):
        path = next(p for p in _MODULES if p.name == name)
        found = sorted({ident for ident, _ in _references(path)
                        if ident == "dual_gram" or "unit_scal" in ident})
        assert found == [], "%s forms the weights' unit-size reading: %s" % (name, found)
    path = next(p for p in _MODULES if p.name == "invariants.py")
    owners = {"WeightData", "dual_gram"}
    readers = sorted({tuple(sorted(scopes)) for ident, scopes in _references(path)
                      if ident == "dual_gram" and not scopes & owners})
    assert readers == [], "dual_gram read outside its owners: %s" % readers


def test_one_owner_of_the_type_of_weight_data():
    # the type of weight data is invariants._realized_type's decision alone:
    # WeightData.type_t and realize_weight_data, and through it the psi
    # recovery, read it, so nothing else counts the live rows.  The psi
    # recovery is the normal form of the realized cusp, with no solver of its
    # own
    path = next(p for p in _MODULES if p.name == "invariants.py")
    counters = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = node.name
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "count_nonzero"
                and any(isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "_live_rows"
                        for arg in node.args)):
            counters.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "<module>")
    assert counters == ["_realized_type"], "live rows counted outside _realized_type: %s" % counters
    solvers = [name for name, scopes in _references(path)
               if "recover_psi_from_invariant" in scopes and name == "linalg"]
    assert solvers == [], "recover_psi_from_invariant calls np.linalg"


def test_one_owner_of_the_process_lifecycle():
    # cli.run is the one process entry: the console script and
    # `python -m gencusp.cli` both call it, and it alone touches the cyclic
    # collector (its freeze before exit), so main and the library stay free
    # of process-wide effects
    import tomllib

    touches = [
        (path.name, sorted(scopes)) for path in _MODULES
        for name, scopes in _references(path) if name == "gc"
    ]
    assert touches and all(t == ("cli.py", ["run"]) for t in touches), (
        "gc outside cli.run: %s" % touches)
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"gencusp": "gencusp.cli:run"}
    path = next(p for p in _MODULES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    blocks = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for block in blocks for stmt in block.body] == ["run()"]
    assert all(not block.orelse for block in blocks)


def test_blownup_point_holds_no_array_but_lambda_and_kappa():
    # callers hold many points: the forward benchmark keeps every point it
    # draws for its whole run (~55k in 40 s), where ~170 B more per point
    # is ~9 MB, ~10% of that workload's peak RSS and of its bound.  So what
    # is read per cusp (frame, metric, invariant) is memoized on the
    # MarkedCusp, and a point holds lambda, kappa and ints only
    from gencusp.cusp_groups import BlownUpWeylPoint

    # the slots, its base's included: lambda, kappa and two ints
    slots = [name for cls in BlownUpWeylPoint.__mro__ for name in cls.__dict__.get("__slots__", ())]
    assert slots == ["n", "lam", "kappa", "_type"]
    for lam in ([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 1.0, 2.0]):
        p = BlownUpWeylPoint(3, np.array(lam), np.array([lam[0] / v if v else 0.0
                                                         for v in lam[1:]]))
        values = {name: getattr(p, name) for name in BlownUpWeylPoint.__slots__}
        assert [k for k, v in values.items() if isinstance(v, np.ndarray)] == ["lam", "kappa"]
        assert all(type(v) is int for k, v in values.items() if k not in ("lam", "kappa"))


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_code_is_generated_at_import(path):
    # the value classes are plain slotted classes: no module imports
    # dataclasses or makes a namedtuple, whose classes are generated and
    # compiled on every import whether or not bytecode is cached
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    modules = [(node.lineno, alias.name) for node in nodes if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [(node.lineno, node.module) for node in nodes if isinstance(node, ast.ImportFrom)]
    found = [(line, name) for line, name in modules if (name or "").split(".")[0] == "dataclasses"]
    found += [(node.lineno, "namedtuple") for node in nodes if isinstance(node, ast.Call)
              and "namedtuple" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert found == [], "%s generates code at import: %s" % (path.name, found)


def test_one_index_table_makes_every_cubic():
    # a cubic is made symmetric one way: shape._triple_table alone reads the
    # six index permutations, and the dense transpose gather and the
    # multiplicity helper that split that decision are gone
    reads = [
        (path.name, sorted(scopes)) for path in _MODULES
        for name, scopes in _references(path) if name == "permutations"
    ]
    # the import itself is a module-level reference
    assert reads == [("shape.py", []), ("shape.py", ["_triple_table"])], (
        "permutations read outside shape._triple_table: %s" % reads)
    gone = {"_transpose_gather", "_multiplicity"}
    found = [
        (path.name, name) for path in _MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for name in [getattr(node, "name", None), getattr(node, "id", None),
                     getattr(node, "attr", None)] if name in gone
    ]
    assert found == [], "the old symmetrization helpers are back: %s" % found
