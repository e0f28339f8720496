import copy
import inspect
import math
import re
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gencusp.cusp_groups import (
    BlownUpWeylPoint,
    MarkedCusp,
    PsiParameter,
    _inverse_sqrt,
    _marking_log_det,
    build_marked_cusp,
    hypersurface_F,
    lie_algebra_phi,
    lie_algebra_zeta,
    orbit_point,
    preferred_sqrt,
    rho,
)
from gencusp.invariants import complete_invariant, eta_distance
from gencusp.linalg import DET_TOL, ZERO, expm, maxerr
from gencusp.sampling import random_blownup_point, random_cusp, random_marking
from gencusp.verify import restricted_diag_calibration


def test_zeta_block_unipotent():
    m = lie_algebra_zeta(PsiParameter(3, np.zeros(3), ordered=False), np.array([1.0, 2.0]))
    expected = np.zeros((4, 4))
    expected[0, 1:] = [1.0, 2.0, 0.0]
    expected[1, 3] = 1.0
    expected[2, 3] = 2.0
    assert np.array_equal(m, expected)


def test_zeta_block_type_one():
    m = lie_algebra_zeta(PsiParameter(3, np.array([1.0, 0, 0]), ordered=False),
                         np.array([1.0, 1.0]))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    expected[1, 2] = 1.0
    expected[1, 3] = -1.0
    expected[2, 3] = 1.0
    assert np.array_equal(m, expected)


def test_zeta_block_diagonal():
    m = lie_algebra_zeta(PsiParameter(3, np.ones(3), ordered=False), np.array([1.0, -1.0]))
    assert np.array_equal(m, np.diag([1.0, -1.0, 0.0, 0.0]))


def test_zeta_scaling_identity_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        t = int(rng.integers(0, n + 1))
        psi = np.zeros(n)
        psi[:t] = rng.uniform(0.3, 2.0, t)
        s = rng.uniform(0.3, 3.0)
        r = min(t, n - 1)
        v = rng.uniform(-2, 2, n - 1)
        scaled = v.copy()
        scaled[:r] *= s
        lhs = lie_algebra_zeta(PsiParameter(n, s * psi, ordered=False), v)
        rhs = lie_algebra_zeta(PsiParameter(n, psi, ordered=False), scaled)
        assert maxerr(expm(lhs), expm(rhs)) < 1e-12


def test_phi_display_rows():
    p = BlownUpWeylPoint(3, np.array([0.0, 1.0, 2.0]), np.zeros(2))
    v1, v2 = 3.0, 5.0
    m = lie_algebra_phi(p, np.array([[v1, v2]]))[0]
    expected = np.array([
        [0, v1, v2, 0],
        [0, v1, 0, v1],
        [0, 0, 2 * v2, v2],
        [0, 0, 0, 0.0],
    ])
    assert np.array_equal(m, expected)


def test_phi_rank_one_part():
    p = BlownUpWeylPoint(3, np.ones(3), np.ones(2))
    m = lie_algebra_phi(p, np.array([[1.0, 0.0]]))[0]
    assert m[0, 0] == -1.0
    assert m[0, 1] == 2.0


def test_phi_zero_everything():
    p = BlownUpWeylPoint(4, np.zeros(4), np.zeros(3))
    assert np.array_equal(lie_algebra_phi(p, np.zeros((2, 3))), np.zeros((2, 5, 5)))


def test_preferred_sqrt():
    assert np.array_equal(preferred_sqrt(np.zeros(2)), np.eye(2))
    assert maxerr(preferred_sqrt(np.array([1.0, 0])), np.diag([np.sqrt(2), 1.0])) < 1e-15
    kap = np.array([1.0, 1.0])
    s = preferred_sqrt(kap)
    assert maxerr(s, np.eye(2) + (np.sqrt(3) - 1) / 2 * np.outer(kap, kap)) < 1e-15
    assert maxerr(s @ s, np.eye(2) + np.outer(kap, kap)) < 1e-12
    # the orthonormalized marking's S^-1, in closed form
    for kap in (np.zeros(3), np.array([1.0, 1.0, 0.0]), np.array([0.3, 1e-9, 0.8])):
        assert maxerr(_inverse_sqrt(kap) @ preferred_sqrt(kap), np.eye(3)) < 1e-15


@pytest.mark.parametrize("fn", [
    lambda psi: lie_algebra_zeta(psi, np.ones(2)),
    restricted_diag_calibration,
], ids=["zeta", "restricted_diag_calibration"])
def test_psi_functions_take_a_psi_parameter_only(fn):
    # the PsiParameter is the one form of psi: a raw array is not read as one
    with pytest.raises(TypeError, match="expected a PsiParameter"):
        fn(np.array([3.0, 2.0, 1.0]))
    fn(PsiParameter(3, np.array([3.0, 2.0, 1.0])))


def test_blownup_validation():
    with pytest.raises(ValueError):
        BlownUpWeylPoint(3, np.array([1.0, 0.5, 2.0]), np.array([2.0, 0.5]))
    with pytest.raises(ValueError, match="kappa"):
        BlownUpWeylPoint(3, np.zeros(3), np.array([1.5, 0.0]))
    with pytest.raises(ValueError, match="constraint"):
        BlownUpWeylPoint(3, np.array([0.5, 1.0, 2.0]), np.array([0.9, 0.1]))
    with pytest.raises(ValueError, match="needs n >= 2, got n = 1"):
        BlownUpWeylPoint(1, np.array([1.0]), np.zeros(0))


def test_blownup_point_is_slotted_and_frozen():
    # callers hold many points: no instance dict, and still no assignment
    p = BlownUpWeylPoint(3, np.array([0.5, 1.0, 2.0]), np.array([0.5, 0.25]))
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p.lam = np.zeros(3)
    assert not p.lam.flags.writeable and not p.kappa.flags.writeable
    # one chart: lambda is always ascending, and no argument picks another;
    # the one slot past the three it is built from is its type, an int
    assert str(inspect.signature(BlownUpWeylPoint)) == "(n, lam, kappa)"
    assert BlownUpWeylPoint.__slots__ == ("n", "lam", "kappa", "_type")
    assert type(p.type_t) is int and p.type_t == 3


def _value_objects():
    """One instance of each value class of the library, by class name."""
    from gencusp import dim3, shape
    from gencusp.invariants import weight_data

    p = BlownUpWeylPoint(3, np.array([0.5, 1.0, 2.0]), np.array([0.5, 0.25]))
    cusp = build_marked_cusp(p, np.array([[1.0, 0.3], [0.0, 1.0]]))
    eta = complete_invariant(cusp)
    s = shape.shape_invariant(cusp, "closed")
    objs = [PsiParameter(3, np.array([3.0, 2.0, 1.0])), p, cusp, eta.character, eta,
            weight_data(cusp), s.c, s, dim3.decompose_cubic_2d(s.c), dim3.coords_from_shape(s),
            shape.sphere_local_maxima(s.q, s.c), shape._triple_table(2)]
    return {type(obj).__name__: obj for obj in objs}


# class -> (its constructor's signature, its slots); equality is identity
# but for the two dim3 records
_VALUE_CLASSES = {
    "PsiParameter": ("(n, psi, ordered=True)", ("n", "psi", "ordered")),
    "BlownUpWeylPoint": ("(n, lam, kappa)", ("n", "lam", "kappa", "_type")),
    "MarkedCusp": ("(params, marking, orthonormalized=False, rescaled=False, log_det=None)",
                   ("params", "marking", "orthonormalized", "rescaled", "log_det",
                    "effective_marking", "_frame", "_generators", "_metric", "_invariant")),
    "CharacterData": ("(weights)", ("weights", "sizes", "size")),
    "CompleteInvariant": ("(character, metric)", ("character", "metric")),
    "WeightData": ("(weights, metric)",
                   ("weights", "metric", "unit_weights", "exponent", "unit_gram")),
    "CubicPoly": ("(dim, tensor)", ("dim", "tensor")),
    "ShapeInvariant": ("(q, c)", ("q", "c")),
    "Cubic2D": ("(h, r)", ("h", "r")),
    "CuspCoords3D": ("(w, h, r)", ("w", "h", "r")),
    "SphereMaxima": ("(points, values)", ("points", "values")),
    "_Triples": ("(slots, scatter, orbits, multiplicity)",
                 ("slots", "scatter", "orbits", "multiplicity")),
}


@pytest.mark.parametrize("name", list(_VALUE_CLASSES))
def test_value_class_is_slotted_and_read_only(name):
    # plain classes: slotted, no instance dict, every slot read-only once
    # built, and a repr of the constructor's arguments
    obj = _value_objects()[name]
    cls = type(obj)
    signature, slots = _VALUE_CLASSES[name]
    assert str(inspect.signature(cls)) == signature
    assert cls.__slots__ == slots and not hasattr(obj, "__dict__")
    params = list(inspect.signature(cls).parameters)
    assert repr(obj).startswith("%s(%s=" % (name, params[0]))
    for slot in slots + ("other",):
        before = getattr(obj, slot, None)
        with pytest.raises(AttributeError):
            setattr(obj, slot, 0)
        with pytest.raises(AttributeError):
            delattr(obj, slot)
        assert getattr(obj, slot, None) is before
    # copy (and pickle) restore every slot
    dup = copy.copy(obj)
    assert type(dup) is cls and all(getattr(dup, slot) is getattr(obj, slot) for slot in slots)
    if name in ("Cubic2D", "CuspCoords3D"):
        twin = cls(*(getattr(obj, f) for f in slots))
        assert twin is not obj and twin == obj and hash(twin) == hash(obj)
    else:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


@pytest.mark.parametrize("lam, kap, order_error", [
    ([0.5, 1.0, 2.0], [0.5, 0.25], False),
    # the same cusp in the diagonal model's unordered coordinates, which the
    # ordered chart refuses
    ([0.5, 2.0, 1.0], [0.25, 0.5], True),
], ids=["blownup", "diagonal"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_blownup_rejects_non_finite_entries(lam, kap, order_error, bad):
    # every order and range test is False on NaN, so it must be caught first,
    # before the order test too
    lam, kap = np.array(lam), np.array(kap)
    if order_error:
        with pytest.raises(ValueError, match="lambda must satisfy"):
            BlownUpWeylPoint(3, lam, kap)
    else:
        BlownUpWeylPoint(3, lam, kap)
    for i in range(3):
        bad_lam = lam.copy()
        bad_lam[i] = bad
        with pytest.raises(ValueError, match="finite"):
            BlownUpWeylPoint(3, bad_lam, kap)
    for i in range(2):
        bad_kap = kap.copy()
        bad_kap[i] = bad
        with pytest.raises(ValueError, match="finite"):
            BlownUpWeylPoint(3, lam, bad_kap)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_marking_must_be_finite(bad):
    # |det| of a NaN marking is NaN, which no |det| = 1 test may let through
    p = BlownUpWeylPoint(3, np.array([0.5, 1.0, 2.0]), np.array([0.5, 0.25]))
    for i in range(4):
        b = np.eye(2)
        b.flat[i] = bad
        with pytest.raises(ValueError, match="marking must be finite"):
            build_marked_cusp(p, b)
        with pytest.raises(ValueError, match="marking must be finite"):
            MarkedCusp(p, b)


_TOL = 1e-12  # linalg.SLACK


def _weyl_reference(n, lam, kap):
    """The message BlownUpWeylPoint's validator raises on (lam, kap), or
    None: the same tests written as numpy array operations."""
    lam = np.asarray(lam, dtype=float)
    kap = np.asarray(kap, dtype=float)
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(kap))):
        return "lambda and kappa must be finite"
    scale = float(np.max(np.abs(lam)))
    if lam[0] < -_TOL * scale or np.any(np.diff(lam) < -_TOL * scale):
        return "lambda must satisfy 0 <= lam[0] <= ... <= lam[n-1]"
    if np.any(kap < -_TOL) or np.any(kap > 1 + _TOL):
        return "kappa entries must lie in [0,1]"
    resid = np.max(np.abs(lam[0] - lam[1:] * kap))
    if resid > _TOL * scale:
        return "constraint lam[0] = lam[i]*kappa[i] violated (residual %g)" % resid
    return None


# values on and around each test's edge, and the non-finite ones
_EDGES = [0.0, -0.0, 1.0, _TOL, -_TOL, 2 * _TOL, -2 * _TOL, 1 + _TOL, 1 + 2 * _TOL,
          1 - _TOL, np.nan, np.inf, -np.inf]
_ENTRY = st.one_of(st.sampled_from(_EDGES), st.floats(-3.0, 3.0))


@st.composite
def _weyl_inputs(draw):
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        # on the constraint surface, then nudged by multiples of the slack
        lam = sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
        kap = [lam[0] / v if v else draw(_ENTRY) for v in lam[1:]]
        nudge = st.sampled_from([0.0, 0.0, _TOL, -_TOL, 2 * _TOL, -2 * _TOL, 0.5 * _TOL])
        lam = [v + draw(nudge) for v in lam]
        kap = [k + draw(nudge) for k in kap]
    else:
        lam = draw(st.lists(_ENTRY, min_size=n, max_size=n))
        kap = draw(st.lists(_ENTRY, min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        # one entry replaced by an edge value
        i = draw(st.integers(0, 2 * n - 2))
        v = draw(st.sampled_from(_EDGES))
        if i < n:
            lam[i] = v
        else:
            kap[i - n] = v
    return n, lam, kap


@given(_weyl_inputs())
@settings(max_examples=600, deadline=None)
def test_blownup_validation_matches_the_array_form(args):
    n, lam, kap = args
    expected = _weyl_reference(n, lam, kap)
    try:
        BlownUpWeylPoint(n, np.array(lam), np.array(kap))
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def test_build_rescales_marking_determinant():
    p = BlownUpWeylPoint(3, np.array([0.0, 1, 2]), np.zeros(2))
    c = build_marked_cusp(p, 2.0 * np.eye(2))
    assert c.rescaled
    assert abs(abs(np.linalg.det(np.asarray(c.marking))) - 1.0) < 1e-12
    # invariants agree with the unnormalized description: chi o B matches
    plain = build_marked_cusp(p)
    v = np.array([0.3, -0.4])
    assert abs(complete_invariant(c).character.chi(v)
               - complete_invariant(plain).character.chi(2.0 * v)) < 1e-12
    det_minus = build_marked_cusp(p, np.diag([1.0, -1.0]))
    assert not det_minus.rescaled


def test_marked_cusp_refuses_a_marking_off_det_one():
    # build_marked_cusp folds |det B| != 1 away; a direct MarkedCusp refuses it
    p = BlownUpWeylPoint(3, np.array([0.5, 1.0, 2.0]), np.array([0.5, 0.25]))
    with pytest.raises(ValueError,
                       match=r"marking must have \|det\| = 1, got log\|det\| = 1.38629"):
        MarkedCusp(p, 2.0 * np.eye(2))
    assert build_marked_cusp(p, 2.0 * np.eye(2)).rescaled


@pytest.mark.parametrize("b, lus", [
    pytest.param(scale * np.array([[1.0, 0.5], [0.0, 1.0]]), 1, id="%r-1" % scale)
    for scale in (1.0, 2.0, 1e200)
] + [
    # B / s = [[1, 5e-309], [0, 1]]: a subnormal entry keeps fewer digits
    pytest.param(np.array([[2.0, 1e-308], [0.0, 2.0]]), 2, id="subnormal-2"),
])
def test_build_takes_one_lu_per_marking(monkeypatch, b, lus):
    # log|det B| is taken once, up front, and a folded marking B / s reads
    # its own from it; only a B / s with a subnormal entry is checked again,
    # by its own LU
    import gencusp.cusp_groups as cg_mod

    calls = []
    real = cg_mod._marking_log_det
    monkeypatch.setattr(cg_mod, "_marking_log_det", lambda b: calls.append(b) or real(b))
    p = BlownUpWeylPoint(3, np.array([0.5, 1.0, 2.0]), np.array([0.5, 0.25]))
    c = build_marked_cusp(p, b)
    assert len(calls) == lus and c.rescaled == (b[0, 0] != 1.0)
    assert np.array_equal(calls[-1], c.marking) == (lus == 2 or not c.rescaled)
    assert abs(c.log_det - real(c.marking)[0]) <= 1e-15


def test_generators_are_built_on_first_read_only():
    from gencusp.invariants import weight_data
    from gencusp.shape import shape_invariant

    c = random_cusp(np.random.default_rng(24), 5)
    complete_invariant(c)
    weight_data(c)
    shape_invariant(c, "closed")
    assert c._generators is None
    gens = c.generators
    assert c.generators is gens
    assert np.array_equal(gens, lie_algebra_phi(c.params, c.effective_marking.T))


def _built_without_warning(p, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return build_marked_cusp(p, b)


def _assert_rescaled_by(p, b, d):
    # (lambda, kappa, B) is (d lambda, kappa, B / d) with d = |det B|^(1/(n-1)),
    # and of p's type at any d: the type is free of lambda's size
    want = p.scaled(d)
    assert want.type_t == p.type_t
    cusp = _built_without_warning(p, b)
    assert cusp.rescaled
    assert cusp.params.type_t == p.type_t
    assert np.all(np.abs(cusp.params.lam - want.lam) <= 1e-12 * want.lam)
    assert np.array_equal(cusp.params.kappa, p.kappa)
    assert maxerr(cusp.marking, b / d) < 1e-12
    return True


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_build_folds_a_marking_of_any_scale(n):
    # |det sB| = s^(n-1) |det B| leaves the float range well inside
    # s in [1e-150, 1e150]: the fold must not depend on the size of B, and
    # every one of these folds keeps the type
    rng = np.random.default_rng(n)
    p = random_blownup_point(rng, n, t=n)
    folded = [
        _assert_rescaled_by(p, s * b, s * abs(np.linalg.det(b)) ** (1.0 / (n - 1)))
        for s, b in ((s, random_marking(rng, n - 1))
                     for s in 10.0 ** rng.uniform(-150.0, 150.0, 25))
    ]
    assert all(folded)


@pytest.mark.parametrize("s, folds", [
    (1e-7, True), (1e-6, True), (1e200, True), (1e-9, True),
    (1e-12, True), (1e-200, True),
])
def test_build_folds_a_scaled_identity(s, folds):
    # lambda = (0.5, 1, 2) s keeps type 3 at every s
    p = BlownUpWeylPoint(3, np.array([0.5, 1.0, 2.0]), np.array([0.5, 0.25]))
    assert _assert_rescaled_by(p, s * np.eye(2), s) == folds


def test_type_is_free_of_the_size_of_lambda():
    # scaling lambda leaves the cusp's type alone, for the parameters and
    # for the weights read off the built cusp, and the weight data realizes
    # a conjugate cusp at every size
    from gencusp.invariants import are_conjugate, realize_weight_data, weight_data

    for s in 10.0 ** np.arange(-300.0, 301.0, 25.0):
        p = BlownUpWeylPoint(3, s * np.array([0.5, 1.0, 2.0]), np.array([0.5, 0.25]))
        assert p.type_t == 3
        cusp = build_marked_cusp(p)
        wd = weight_data(cusp)
        assert wd.type_t == 3
        assert are_conjugate(realize_weight_data(wd), cusp)


def test_build_refuses_a_fold_out_of_the_float_range():
    # lambda at 1e-300 folded by 1e-30 I underflows to 0, which reads type 0;
    # lambda at 1e300 folded by 1e30 I overflows, and so does the marking
    # diag(1e305, 1e-315), whose fold by s = 1e-5 takes 1e305 to 1e310
    p = BlownUpWeylPoint(3, 1e-300 * np.array([0.5, 1.0, 2.0]), np.array([0.5, 0.25]))
    with pytest.raises(ValueError, match=r"underflows lambda: type 3 reads as 0"):
        _built_without_warning(p, 1e-30 * np.eye(2))
    for lam, b in ((1e300, 1e30 * np.eye(2)), (1.0, np.diag([1e305, 1e-315]))):
        p = BlownUpWeylPoint(3, lam * np.array([0.5, 1.0, 2.0]), np.array([0.5, 0.25]))
        with pytest.raises(ValueError, match="overflows lambda or B when folded"):
            _built_without_warning(p, b)


@pytest.mark.parametrize("b", [
    np.zeros((2, 2)),
    np.array([[0.0, 1.0], [0.0, 2.0]]),
    np.array([[1.0, 2.0], [2.0, 4.0]]),
    np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]]),
    1e100 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]]),
    1e-100 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]]),
    1e200 * np.array([[1.0, 2.0], [2.0, 4.0]]),
    np.array([[1.0, 0.0], [1e11, 1.0]]),
    2.0 * np.array([[1.0, 0.0], [1e11, 1.0]]),
], ids=["zero", "zero-column", "rank-one", "near-rank-one", "near-rank-one-big",
        "near-rank-one-small", "rank-one-huge", "shear-det-one", "shear-det-four"])
def test_singular_marking_is_rejected_at_any_scale(b):
    # the shear has |det| exactly 1 (or 4 at twice the size), and its columns
    # are 1e11 times longer than the determinant allows for: B and 2B get
    # the same verdict, whether or not |det B| = 1 skips the fold
    p = BlownUpWeylPoint(3, np.array([0.5, 1.0, 2.0]), np.array([0.5, 0.25]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="marking is singular"):
            build_marked_cusp(p, b)


_EPS = float(np.finfo(float).eps)


def _exact_abs_det(b):
    """|det B| of the float matrix B in exact rational arithmetic."""
    a = [[Fraction(x) for x in row] for row in b.tolist()]
    k = len(a)
    det = Fraction(1)
    for i in range(k):
        pivot = next((r for r in range(i, k) if a[r][i]), None)
        if pivot is None:
            return Fraction(0)
        a[i], a[pivot] = a[pivot], a[i]
        det *= a[i][i]
        for r in range(i + 1, k):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return abs(det)


def _exact_log_det(b):
    """log|det B| of the float matrix B, from its determinant in exact
    rational arithmetic; -inf when B is singular."""
    det = _exact_abs_det(b)
    if not det:
        return -math.inf
    # the log of a ratio of huge integers, without their logs' cancellation
    e = det.numerator.bit_length() - det.denominator.bit_length()
    return math.log(float(det / Fraction(2) ** e)) + e * math.log(2.0)


def _exact_fold(b):
    """|det B|^(1/k) of the k x k float matrix B, to 60 digits: the exact
    rational determinant, then mpmath's root."""
    det = _exact_abs_det(b)
    with mpmath.workdps(60):
        return mpmath.root(mpmath.mpf(det.numerator) / det.denominator, len(b))


def _fold_error(got, lam, s):
    """Worst relative distance of the folded lambda ``got`` from s lambda,
    computed to 60 digits, in units of eps."""
    with mpmath.workdps(60):
        return max(float(abs(mpmath.mpf(g) / (s * v) - 1)) / _EPS
                   for g, v in zip(got.tolist(), lam.tolist()))


def _lu_log_det(b):
    """log|det B| from the LU of B itself, the route of markings whose |det|
    was in the float range; None where it is not."""
    with np.errstate(over="ignore"):
        det = abs(np.linalg.det(b))
    return math.log(det) if sys.float_info.min <= det < math.inf else None


def _markings_near_the_float_range(rng, k):
    """k x k markings whose Hadamard bound, the product of the column norms,
    sits just below or above 2^-k of the largest double (where the pivot
    growth of B's own LU may overflow) and the largest double (where |det B|
    does): unit columns,
    orthogonal (|det B| is the bound) or random, scaled alike, so that the
    bound is also the largest column norm to the k-th power."""
    log_max = math.log(sys.float_info.max)
    for offset in (-50.0, -k * math.log(2.0) - 1e-3, -k * math.log(2.0) + 1e-3,
                   -1e-3, 1e-3, 1.0):
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        r = rng.standard_normal((k, k))
        for unit in (q, r / np.linalg.norm(r, axis=0)):
            yield unit * math.exp((log_max + offset) / k)


def _lu_overflow_marking():
    """A 4 x 4 marking whose LU overflows though |det B| = 8 c 1e-900 is
    tiny: partial pivoting grows the last column, of entries c = 5e307,
    8-fold past the float range."""
    c = 5e307
    b = np.array([[1.0, 0, 0, c], [-1, 1, 0, c], [-1, -1, 1, c], [-1, -1, -1, c]])
    b[:, :3] *= 1e-300
    return b


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_marking_log_det_near_overflow_matches_the_silenced_reference(k):
    # log|det| within 4 eps (k cond(U) + sum_j |log|b_j||) of its exact
    # value, U being B with unit columns: the LU carries roundoff of about
    # eps k cond(U), the column scales one of eps times their logs.  Where
    # |det B| is in range, within 4 ulps of max(1, |log|det B||,
    # sum_j |log|b_j||) of the log of B's own LU determinant, the route such
    # markings took before: the LU of B's columns scaled by powers of 2
    # rounds as B's does, so the two logs differ by the roundings of the
    # logs and their sum.  These markings read at most 1.0 of the first
    # bound and 2.5 of the 4 ulps; the LU of B with unit columns, which
    # rounds otherwise, misses the 4 ulps on random markings at three k.
    # Then the fold, within 4 eps (cond(U) + 1) of the exact s lambda (from
    # an exact rational |det B| and a 60-digit root), or the refusal of a
    # fold that overflows B / s, with no RuntimeWarning at any size of B.
    rng = np.random.default_rng(70 + k)
    lam = np.sort(rng.uniform(0.5, 2.0, k + 1))
    p = BlownUpWeylPoint(k + 1, lam, lam[0] / lam[1:])
    markings = list(_markings_near_the_float_range(rng, k))
    for c in 10.0 ** np.linspace(-300.0, 300.0, 25):
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        markings.append(c * q)
    markings += [rng.standard_normal((k, k)) for _ in range(20)]
    if k == 2:
        markings += [1e200 * np.eye(2), 1e-200 * np.eye(2),
                     1e154 * np.ones((2, 2)), np.diag([1e300, 1e-300])]
    if k == 4:
        markings.append(_lu_overflow_marking())
    for b in markings:
        cols = np.hypot.reduce(b, axis=0)
        exact = _exact_log_det(b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if exact - float(np.sum(np.log(cols))) <= math.log(ZERO):
                with pytest.raises(ValueError, match="marking is singular"):
                    _marking_log_det(b)
                with pytest.raises(ValueError, match="marking is singular"):
                    build_marked_cusp(p, b)
                continue
            logdet = _marking_log_det(b)[0]
            col_logs = float(np.sum(np.abs(np.log(cols))))
            assert abs(logdet - exact) <= 4 * _EPS * (k * np.linalg.cond(b / cols) + col_logs)
            lu = _lu_log_det(b)
            if lu is not None:
                assert abs(logdet - lu) <= 4 * np.spacing(max(1.0, abs(lu), col_logs))
            if abs(logdet) <= DET_TOL:
                assert np.array_equal(build_marked_cusp(p, b).marking, b)
                continue
            s = _exact_fold(b)
            if not math.isfinite(float(np.abs(b).max()) / float(s)):
                with pytest.raises(ValueError, match="overflows lambda or B when folded"):
                    build_marked_cusp(p, b)
                continue
            cusp = build_marked_cusp(p, b)
        assert cusp.rescaled
        # the LU's roundoff, about eps cond(U), and the root's and the
        # product's roundings
        bound = 4.0 * (np.linalg.cond(b / cols) + 1.0)
        assert _fold_error(cusp.params.lam, p.lam, s) <= bound
        want = b / float(s)
        assert np.abs(cusp.marking - want).max() <= bound * _EPS * np.abs(want).max()


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3, 1e60, 1e120, 1e-60])
def test_build_folds_exactly_at_any_scale(scale):
    # the fold s = |det B|^(1/(n-1)) takes B's power of 2 out whole, so the
    # folded lambda is within a few ulps of s lambda at any size of B, here
    # against an exact rational |det B| and a 60-digit root; exp(log|det B|
    # / (n-1)) missed by ~eps |log s| ulps (276 at 1e60, 421 at 1e120)
    rng = np.random.default_rng(29)
    worst = 0.0
    for n in range(3, 8):
        p = random_blownup_point(rng, n, t=n)
        for _ in range(35):
            b = scale * random_marking(rng, n - 1, unit_det=False)
            cusp = _built_without_warning(p, b)
            assert cusp.rescaled
            worst = max(worst, _fold_error(cusp.params.lam, p.lam, _exact_fold(b)))
    assert worst <= 6.0


def test_marking_log_det_survives_an_lu_overflow():
    # the LU of B itself would read inf; log|det B| from B's columns scaled
    # to norms in [1/2, 1) is finite and right, with no RuntimeWarning, and
    # the fold by s = exp(log|det B| / 4) ~ 1e-148 keeps lambda's type but
    # would overflow B / s, which the refusal reports by log|det|
    b = _lu_overflow_marking()
    p = BlownUpWeylPoint(5, np.array([0.5, 0.7, 1.0, 1.5, 2.0]),
                         np.array([0.5 / 0.7, 0.5, 1.0 / 3.0, 0.25]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logdet, det, e = _marking_log_det(b)
        assert isinstance(logdet, float) and math.isfinite(logdet)
        assert 0.0 < det < 1.0 and math.log(det) + e * math.log(2.0) == logdet
        want = math.log(8.0 * 5e307) + 3.0 * math.log(1e-300)
        assert abs(logdet - want) <= 1e-13 * abs(want)
        with pytest.raises(ValueError, match=re.escape(
                "marking (log|det| = -1361.74) overflows lambda or B when folded")):
            build_marked_cusp(p, b)


@pytest.mark.parametrize("b", [
    np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]]),
    np.array([[1.0, 2.0], [2.0, 4.0]]),
    np.array([[1.0, 0.0], [1e11, 1.0]]),
], ids=["near-rank-one", "rank-one", "shear"])
def test_singular_refusal_reads_the_same_at_any_scale(b):
    # the refusal prints |det B| over Hadamard's bound, which B and s B
    # share: not |det B|, which reads inf at 1e200 B and 0 at 1e-200 B
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        texts = set()
        for s in (1.0, 1e200, 1e-200):
            with pytest.raises(ValueError, match="marking is singular") as exc:
                _marking_log_det(s * b)
            texts.add(str(exc.value))
    assert len(texts) == 1
    assert "Hadamard" in texts.pop()


def test_phi_dots_each_row_as_np_dot_bit_for_bit():
    # <v, kappa> of each row is np.dot's sum, bit for bit: a matmul would
    # sum in another order.  Rows of a transposed marking are strided, as
    # the columns of the effective marking are.
    rng = np.random.default_rng(23)
    for n in range(3, 9):
        for _ in range(40):
            p = random_blownup_point(rng, n, t=n)
            b = rng.standard_normal((n - 1, n - 1)) * 10.0 ** rng.uniform(-3.0, 3.0, (n - 1, n - 1))
            for rows in (b, b.T):
                m = lie_algebra_phi(p, rows)
                vk = np.array([np.dot(row, p.kappa) for row in rows])
                assert m[:, 0, 0].tobytes() == (-p.lam[0] * vk).tobytes()
                assert m[:, 0, 1:n].tobytes() == (rows + vk[:, None] * p.kappa).tobytes()


def test_marked_cusp_generators_commute():
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = random_cusp(rng, 4)
        v, w = rng.uniform(-1, 1, (2, 3))
        a, b = rho(c, v), rho(c, w)
        assert maxerr(a @ b, b @ a) < 1e-9


def test_stacked_phi_matches_each_vector_bit_for_bit():
    rng = np.random.default_rng(21)
    for n in range(3, 8):
        for t in range(n + 1):
            for orth in (False, True):
                c = random_cusp(rng, n, t=t, orthonormalized=orth)
                eff = c.effective_marking
                each = [lie_algebra_phi(c.params, eff[:, i][None])[0] for i in range(n - 1)]
                assert np.array_equal(lie_algebra_phi(c.params, eff.T), np.stack(each))
                assert np.array_equal(c.generators, np.stack(each))
                rows = rng.uniform(-2, 2, (4, n - 1))
                assert np.array_equal(lie_algebra_phi(c.params, rows),
                                      np.stack([lie_algebra_phi(c.params, r[None])[0] for r in rows]))


# one vector, even of length n-1, is refused: phi takes a stack only
@pytest.mark.parametrize("v", [[1.0], np.zeros((2, 3)), np.zeros((1, 2, 2)), 1.0, np.zeros(2)])
def test_phi_rejects_v_of_wrong_shape(v):
    p = BlownUpWeylPoint(3, np.array([0.0, 1.0, 2.0]), np.zeros(2))
    with pytest.raises(ValueError, match=r"v must be a stack \(k, n-1\) of rows, n-1=2"):
        lie_algebra_phi(p, v)


@pytest.mark.parametrize("orth", [False, True])
def test_marked_cusp_fields_are_read_only(orth):
    c = random_cusp(np.random.default_rng(22), 4, orthonormalized=orth)
    assert c.generators.shape == (3, 5, 5)
    s = preferred_sqrt(c.params.kappa)
    want = np.linalg.solve(s, c.marking) if orth else c.marking
    assert np.array_equal(c.effective_marking, want)
    for arr in (c.generators, c.effective_marking):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


def test_orbit_point_basics():
    p = BlownUpWeylPoint(3, np.zeros(3), np.zeros(2))
    c = build_marked_cusp(p)
    assert np.array_equal(orbit_point(c, np.zeros(2)), np.zeros(3))
    v = np.array([0.4, -0.3])
    pt = orbit_point(c, v)
    assert maxerr(pt, np.concatenate([[0.5 * v @ v], v])) < 1e-15


@pytest.mark.parametrize("v", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0])
def test_rho_rejects_v_of_wrong_length(v):
    # zip(v, generators) would stop at the shorter input and drop entries
    c = build_marked_cusp(BlownUpWeylPoint(3, np.array([0.0, 1.0, 2.0]), np.zeros(2)))
    with pytest.raises(ValueError, match=r"v must have length n-1=2"):
        rho(c, v)
    with pytest.raises(ValueError, match=r"v must have length n-1=2"):
        orbit_point(c, v)


def test_orbit_group_action_identity():
    rng = np.random.default_rng(2)
    c = random_cusp(rng, 4)
    v, w = rng.uniform(-1, 1, (2, 3))
    lhs = orbit_point(c, v + w)
    rhs = rho(c, v) @ np.concatenate([orbit_point(c, w), [1.0]])
    assert maxerr(lhs, rhs[:4]) < 1e-12


def test_hypersurface_anchors():
    p = BlownUpWeylPoint(3, np.zeros(3), np.zeros(2))
    x = np.array([0.4, -0.3])
    assert abs(hypersurface_F(p, x) - 0.5 * x @ x) < 1e-15
    p = BlownUpWeylPoint(3, np.array([0.0, 0, 1]), np.zeros(2))
    assert abs(hypersurface_F(p, np.array([0.0, np.e - 1])) - (np.e - 2)) < 1e-12
    assert hypersurface_F(p, np.zeros(2)) == 0.0
    with pytest.raises(ValueError):
        hypersurface_F(p, np.array([0.0, -1.5]))
    # points along the last axis: the same heights, and one point off the
    # domain rejects the batch
    pts = np.array([[[0.0, 0.0], [0.4, -0.3]], [[0.0, np.e - 1], [-2.0, 0.5]]])
    heights = hypersurface_F(p, pts)
    assert heights.shape == (2, 2)
    assert all(heights[i, j] == hypersurface_F(p, pts[i, j]) for i in range(2) for j in range(2))
    with pytest.raises(ValueError):
        hypersurface_F(p, np.array([[0.0, 0.5], [0.0, -1.5]]))


def test_orbit_points_lie_on_surface():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(3, 6))
        c = random_cusp(rng, n)
        v = rng.uniform(-1.2, 1.2, n - 1)
        pt = orbit_point(c, v)
        assert abs(pt[0] - hypersurface_F(c.params, pt[1:])) < 1e-9 * max(1, abs(pt[0]))


def test_diagonalizable_family_limit():
    rng = np.random.default_rng(6)
    kap = rng.uniform(0.2, 1.0, 2)
    v = rng.uniform(-1, 1, 2)
    # descending kappa gives ascending lambda, as verify's diagonal-limit
    # orders it: the same cusp in permuted coordinates
    order = np.argsort(-kap)
    kap, v = kap[order], v[order]
    limit = expm(lie_algebra_phi(BlownUpWeylPoint(3, np.zeros(3), kap), v[None])[0])
    errs = []
    for m in (10.0, 100.0, 1000.0):
        lam = np.concatenate([[1.0 / m], 1.0 / (m * kap)])
        p = BlownUpWeylPoint(3, lam, kap)
        errs.append(maxerr(expm(lie_algebra_phi(p, v[None])[0]), limit))
    assert errs[1] < 0.2 * errs[0] and errs[2] < 0.2 * errs[1]


def test_lambda_scale_conjugacy_via_invariants():
    rng = np.random.default_rng(8)
    p = random_blownup_point(rng, 4)
    s = 1.7
    c1, c2 = build_marked_cusp(p), build_marked_cusp(p.scaled(s))
    v = rng.uniform(-1, 1, 3)
    assert abs(complete_invariant(c1).character.chi(s * v)
               - complete_invariant(c2).character.chi(v)) < 1e-10
    assert eta_distance(complete_invariant(c1), complete_invariant(c1)) == 0.0

