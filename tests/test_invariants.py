import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.optimize

from gencusp.cusp_groups import (
    BlownUpWeylPoint,
    PsiParameter,
    _calibration_frame,
    build_marked_cusp,
    lambda_to_psi,
    lie_algebra_phi,
    preferred_sqrt,
    psi_to_lambda,
)
from gencusp.invariants import (
    CharacterData,
    CompleteInvariant,
    NotRealizable,
    WeightData,
    are_conjugate,
    complete_invariant,
    dual_gram,
    eta_distance,
    frame_to_weight_data,
    horosphere_metric,
    limit_demo_rows,
    linear_sum_assignment,
    marked_psi_normal_form,
    realize_weight_data,
    recover_psi_from_invariant,
    sort_weights,
    stratum_dim,
    varpi_closed_form,
    weight_data,
    weights_equation_residual,
    weights_of,
    _linear_weights,
    _match_multisets,
)
from gencusp.linalg import (
    expm,
    maxerr,
    maxerr_symmetric,
    nonzero,
    unimodular,
    unimodular_scale,
)
from gencusp.sampling import random_blownup_point, random_cusp, random_marking
from gencusp.shape import (
    CubicPoly,
    ShapeInvariant,
    cubic_from_weights,
    fit_height_jet,
    shape_invariant,
)


def _cusp(lam, kap, marking=None, **kw):
    p = BlownUpWeylPoint(len(lam), np.asarray(lam, float), np.asarray(kap, float))
    return build_marked_cusp(p, marking, **kw)


def test_weights_examples():
    chi = weights_of(_cusp([0, 1, 2], [0, 0]))
    assert chi.chi(np.zeros(2)) == 4.0
    expected = np.array([[0, 0], [0, 0], [0, 2], [1, 0.0]])
    assert maxerr(chi.weights, expected) < 1e-14

    w = weights_of(_cusp([0, 0, 0], [0.3, 0.8])).weights
    assert np.max(np.abs(w)) == 0.0

    w = weights_of(_cusp([1, 1, 1], [1, 1])).weights
    expected = np.array([[-1, -1], [0, 0], [0, 1], [1, 0.0]])
    assert maxerr(w, expected) < 1e-14


def _overflow_cusp(n, g):
    """A cusp of lambda (0, ..., 0, 1e308) whose generator g alone has a
    weight past the float range: the marking doubles the last coordinate
    of column g (a shear, or diag(1/2, .., 2) when g is that coordinate)."""
    b = np.eye(n - 1)
    if g == n - 2:
        b[0, 0], b[g, g] = 0.5, 2.0
    else:
        b[n - 2, g] = 2.0
    lam = np.zeros(n)
    lam[-1] = 1e308
    return _cusp(lam, np.zeros(n - 1), marking=b)


def test_weights_cross_check_trips_at_every_index_of_the_stack():
    # input no check before weights_of refuses: 1e308 times 2 overflows into
    # a non-finite weight of generator g, at every g, n = 3..7; the marking
    # is unimodular and lambda is in range, so the cusp builds.  weights_of
    # refuses before numpy forms that product, so with no RuntimeWarning
    # (the suite turns one into an error); the stack, built apart, overflows
    for n in range(3, 8):
        for g in range(n - 1):
            c = _overflow_cusp(n, g)
            with pytest.raises(ValueError, match="character cross-check failed: generator %d "
                               "has a non-finite entry" % g):
                weights_of(c)
            with pytest.warns(RuntimeWarning, match="overflow"):
                assert not np.isfinite(np.diagonal(c.generators[g])).all()


def _alter(q, how):
    """Alter a writable 2x2 form in place; the message it must be rejected
    with."""
    if how == "non-symmetric":
        q[0, 1] += 0.5
        return "not symmetric"
    if how == "non-unimodular":
        q *= 2.0
        return "must be unimodular"
    q[:] = [[1.0, 2.0], [2.0, 3.0]]  # symmetric, det -1
    return "must be positive definite"


@pytest.mark.parametrize("how", ["non-symmetric", "non-unimodular", "indefinite"])
@pytest.mark.parametrize("make", ["CompleteInvariant", "WeightData", "ShapeInvariant"])
def test_altered_validated_metric_is_checked_again(make, how):
    # the metric passed check_unimodular once; made writable and altered,
    # it is outside input again and each constructor checks it in full
    c = _cusp([0.5, 1.0, 2.0], [0.5, 0.25], marking=[[1.0, 0.5], [0.0, 1.0]])
    eta = complete_invariant(c)
    nu = weight_data(c)
    cubic = cubic_from_weights(nu).c
    q = CompleteInvariant(eta.character, eta.metric.copy()).metric
    # validated: every constructor takes it as it is
    assert WeightData(nu.weights, q).metric is q
    assert ShapeInvariant(q, cubic).q is q
    q.setflags(write=True)
    match = _alter(q, how)
    build = {
        "CompleteInvariant": lambda: CompleteInvariant(eta.character, q),
        "WeightData": lambda: WeightData(nu.weights, q),
        "ShapeInvariant": lambda: ShapeInvariant(q, cubic),
    }[make]
    with pytest.raises(ValueError, match=match):
        build()


def test_complete_invariant_is_memoized_per_cusp():
    c = _cusp([0, 1, 2], [0, 0])
    assert complete_invariant(c) is complete_invariant(c)
    # a cusp that differs only in marking holds its own invariant
    other = _cusp([0, 1, 2], [0, 0], marking=[[1.0, 0.5], [0.0, 1.0]])
    assert complete_invariant(other) is not complete_invariant(c)
    assert maxerr(complete_invariant(other).metric, complete_invariant(c).metric) > 0.1


def test_weight_data_matches_uncached_route_bit_for_bit():
    rng = np.random.default_rng(11)
    for n in range(3, 8):
        for t in range(n + 1):
            c = random_cusp(rng, n, t=t, orthonormalized=bool(t % 2))
            expected = WeightData(_linear_weights(weights_of(c).weights), horosphere_metric(c))
            got = weight_data(c)
            assert np.array_equal(got.weights, expected.weights)
            assert np.array_equal(got.metric, expected.metric)


def test_weights_of_runs_once_per_cusp(monkeypatch):
    # the refusals inside weights_of must still see every cusp
    import gencusp.invariants as inv_mod

    calls = []
    orig = inv_mod.weights_of
    monkeypatch.setattr(inv_mod, "weights_of", lambda c: calls.append(c) or orig(c))
    a, b, d = (_cusp([0, 1, 2], [0, 0]), _cusp([1, 1, 1], [1, 1]), _cusp([0, 1, 3], [0, 0]))
    weight_data(a)
    complete_invariant(a)
    assert not are_conjugate(a, b)
    weight_data(b)
    assert are_conjugate(b, b)
    complete_invariant(d)
    assert not are_conjugate(d, a)
    weight_data(d)
    assert calls == [a, b, d]


def test_forward_case_work_budget(monkeypatch):
    # one case of the forward benchmark workload holds two distinct forms
    # (the cusp's metric, which its shape's q is, and the copy's metric),
    # each symmetrized once (by unimodular_scale) and checked in full once;
    # no MarkedCusp builds its generator stack (lie_algebra_phi), weights_of
    # makes no expm call, and each cusp's weights are sorted once, by its
    # CharacterData: weight_data keeps their canonical order.  Every draw is
    # a conjugate pair, whose weights the canonical order already matches:
    # eta_distance calls no Hungarian method.
    # The determinants: one per build of a marking that needs no rescale,
    # one per metric, none for the closed shape, which reads its cusp's
    # metric and scale, and none inside check_unimodular.  The inverses:
    # dual_gram's one of the metric in cubic_from_weights; coords_from_shape
    # at n = 3 inverts its frame in closed form.  No gencusp module but
    # linalg enters np.errstate, and none of these cases reaches it there.
    import weakref

    import gencusp.cusp_groups as cg_mod
    import gencusp.invariants as inv_mod
    import gencusp.linalg as la_mod
    from gencusp.dim3 import coords_from_shape
    from gencusp.shape import shape_invariant

    rng = np.random.default_rng(14)
    draws = [(n, random_blownup_point(rng, n, t), random_marking(rng, n - 1), bool(t % 2))
             for n in range(3, 8) for t in range(n + 1)]
    counts = dict.fromkeys(
        ["checks", "symmetric", "cusps", "phi", "weights_of", "sort", "expm", "det", "inv",
         "lsa", "errstate"], 0)

    class CountingMemo(weakref.WeakValueDictionary):
        def __setitem__(self, key, value):
            counts["checks"] += 1
            super().__setitem__(key, value)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(la_mod, "_VALIDATED", CountingMemo())
    monkeypatch.setattr(la_mod, "_symmetrized", counted("symmetric", la_mod._symmetrized))
    monkeypatch.setattr(cg_mod, "_phi_stack", counted("phi", cg_mod._phi_stack))
    monkeypatch.setattr(cg_mod.MarkedCusp, "__post_init__",
                        counted("cusps", cg_mod.MarkedCusp.__post_init__))
    monkeypatch.setattr(inv_mod, "weights_of", counted("weights_of", inv_mod.weights_of))
    monkeypatch.setattr(inv_mod, "_canonical_rows", counted("sort", inv_mod._canonical_rows))
    monkeypatch.setattr(inv_mod, "expm", counted("expm", inv_mod.expm))
    monkeypatch.setattr(inv_mod, "linear_sum_assignment",
                        counted("lsa", inv_mod.linear_sum_assignment))
    monkeypatch.setattr(np.linalg, "det", counted("det", np.linalg.det))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    real_errstate = np.errstate

    def counted_errstate(**kwargs):
        counts["errstate"] += 1
        return real_errstate(**kwargs)

    # gencusp's own entries only: numpy.linalg binds its own errstate
    monkeypatch.setattr(np, "errstate", counted_errstate)
    for n, p, b, orth in draws:
        c = build_marked_cusp(p, b, orthonormalized=orth)
        assert not c.rescaled
        complete_invariant(c)
        nu = weight_data(c)
        s = shape_invariant(c, "closed")
        assert s.distance(cubic_from_weights(nu)) <= 1e-5
        if n == 3:
            coords_from_shape(s)
        assert are_conjugate(c, build_marked_cusp(p, b, orthonormalized=orth))
    cases = len(draws)
    assert counts == {"checks": 2 * cases, "symmetric": 2 * cases, "cusps": 2 * cases,
                      "phi": 0, "weights_of": 2 * cases, "sort": 2 * cases, "expm": 0,
                      "det": 4 * cases, "inv": cases, "lsa": 0, "errstate": 0}


def _ill_marking(n, k, angle):
    """I_(n-1) with its leading 2 x 2 block R diag(1, k) R^T / sqrt(k), R the
    rotation by angle: unimodular, of condition k."""
    r = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    b = np.eye(n - 1)
    b[:2, :2] = r @ np.diag([1.0, k]) @ r.T / np.sqrt(k)
    return b


def test_weights_of_reads_the_generator_diagonals():
    # bit for bit (tobytes, so a signed zero counts), whether the stack is
    # built before the weights are read or after
    rng = np.random.default_rng(13)
    cases = []
    for n in range(3, 8):
        for t in range(n + 1):
            for orth in (False, True):
                p = random_blownup_point(rng, n, t)
                cases += [(p, random_marking(rng, n - 1), orth)]
                cases += [(p, _ill_marking(n, 1e3, angle), orth) for angle in (0.3, 0.7, 1.1)]
    for p, b, orth in cases:
        first, second = (build_marked_cusp(p, b, orthonormalized=orth) for _ in range(2))
        w = weights_of(first).weights
        diag = np.diagonal(second.generators, axis1=1, axis2=2).T
        assert w.tobytes() == CharacterData(diag).weights.tobytes()
        assert weights_of(second).weights.tobytes() == w.tobytes()
        assert first.generators.tobytes() == second.generators.tobytes()


def _remarked(c):
    """A conjugate twin of c with the other marking variant and the same
    effective marking (S the preferred square root of I + kappa kappa^T):
    marking S B, orthonormalized, for B plain, and S^-1 B, plain, for B
    orthonormalized."""
    p, b = c.params, c.marking
    s = preferred_sqrt(p.kappa)
    if c.orthonormalized:
        return build_marked_cusp(p, np.linalg.solve(s, b))
    return build_marked_cusp(p, s @ b, orthonormalized=True)


def _rebuilt_by_each_reader(c):
    """eta, nu and both cubics of c as each reader built them from a frame
    of its own: C from _calibration_frame anew for the weights, the metric
    and the closed cubic; nu through the public WeightData; the weights
    route from the weights at their own size."""
    p, m = c.params, c.effective_marking.T
    a = p.coefficients
    weights = np.vstack([(a * _calibration_frame(p, m)).T, np.zeros(p.n - 1)])
    frame = _calibration_frame(p, m)
    q, s = unimodular_scale(frame @ frame.T, "metric")
    eta = CompleteInvariant(CharacterData(weights), q)
    nu = WeightData(_linear_weights(eta.character.weights), q)
    closed = CubicPoly.from_covector_cubes(_calibration_frame(p, m).T, (s / 3.0) * a)
    norms, _, varpi = dual_gram(nu.weights, q)
    live = nonzero(np.abs(nu.weights).max(axis=1))
    coeffs = 1.0 / (3.0 * (norms[live] + max(varpi, 0.0)))
    by_weights = CubicPoly.from_covector_cubes(nu.weights[live], coeffs) if live.any() else None
    return eta, nu, closed, by_weights


def test_weights_metric_and_cubic_read_one_calibration_frame():
    # one frame C^T = (<v, kappa>, v) over the effective marking's columns v:
    # its rows scaled by the coefficients are the stack's diagonal and the
    # weights, the metric is unimodular_scale of its Gram matrix, and the
    # closed cubic cubes C's rows with (s/3) times the coefficients, all bit
    # for bit.  Read from the cusp's one memoized frame, eta, nu, both
    # cubics and eta_distance to a remarked twin keep the bits of each
    # reader's own rebuild, the twin's distance with sizes taken anew
    rng = np.random.default_rng(17)
    for n in range(3, 8):
        for t in range(n + 1):
            for orth in (False, True):
                c = random_cusp(rng, n, t=t, orthonormalized=orth)
                p = c.params
                frame = _calibration_frame(p, c.effective_marking.T)
                assert c.calibration_frame.tobytes() == frame.tobytes()
                a = p.coefficients
                assert a.tobytes() == np.concatenate(([-p.lam[0]], p.lam[1:])).tobytes()
                diag = np.diagonal(c.generators, axis1=1, axis2=2).T
                assert diag.tobytes() == np.vstack([(a * frame).T, np.zeros(n - 1)]).tobytes()
                assert weights_of(c).weights.tobytes() == CharacterData(diag).weights.tobytes()
                q, s = unimodular_scale(frame @ frame.T, "metric")
                assert horosphere_metric(c).tobytes() == q.tobytes()
                cubic = CubicPoly.from_covector_cubes(frame.T, (s / 3.0) * a)
                assert shape_invariant(c, "closed").c.tensor.tobytes() == cubic.tensor.tobytes()

                eta, nu, closed, by_weights = _rebuilt_by_each_reader(c)
                got_eta, got_nu = complete_invariant(c), weight_data(c)
                for got, ref in ((got_eta.character.weights, eta.character.weights),
                                 (got_eta.metric, eta.metric), (got_nu.weights, nu.weights),
                                 (got_nu.metric, nu.metric),
                                 (shape_invariant(c, "closed").c.tensor, closed.tensor)):
                    assert got.tobytes() == ref.tobytes()
                got_cubic = cubic_from_weights(got_nu).c.tensor
                if by_weights is None:
                    assert not got_cubic.any()
                else:
                    assert got_cubic.tobytes() == by_weights.tensor.tobytes()
                twin = _remarked(c)
                twin_eta = _rebuilt_by_each_reader(twin)[0]
                w1, w2 = eta.character.weights, twin_eta.character.weights
                size = max(float(np.abs(w1).max()), float(np.abs(w2).max()))
                dw = _match_multisets(w1, w2) / size if size else 0.0
                ref = max(dw, maxerr_symmetric(eta.metric, twin_eta.metric))
                got = eta_distance(got_eta, complete_invariant(twin))
                assert np.float64(got).tobytes() == np.float64(ref).tobytes()


def test_each_cusp_builds_one_calibration_frame(monkeypatch):
    # the forward map of one cusp and its conjugacy test against a remarked
    # twin build _calibration_frame once per cusp: the weights, the metric,
    # the closed cubic and the weights route read the cusp's memo, and so
    # does its generator stack when it is read
    import gencusp.cusp_groups as cg_mod

    built = []
    real = cg_mod._calibration_frame

    def counted(p, rows):
        built.append(p)
        return real(p, rows)

    monkeypatch.setattr(cg_mod, "_calibration_frame", counted)
    rng = np.random.default_rng(33)
    for n in range(3, 8):
        for t in range(n + 1):
            for orth in (False, True):
                c = random_cusp(rng, n, t=t, orthonormalized=orth)
                twin = _remarked(c)
                built.clear()
                complete_invariant(c)
                nu = weight_data(c)
                closed = shape_invariant(c, "closed")
                assert closed.distance(cubic_from_weights(nu)) <= 1e-5
                assert are_conjugate(c, twin)
                assert built == [c.params, twin.params]
                assert c.generators is not None and twin.generators is not None
                assert built == [c.params, twin.params]


def _sort_weights_reference(w):
    """The canonical order as a stable sort of row tuples, divided by the
    power of 2 just above max|w| and rounded to 12 decimals."""
    w = np.asarray(w, dtype=float)
    scale = 2.0 ** math.frexp(float(np.abs(w).max(initial=0.0)))[1]
    keys = [tuple(np.round(row / scale, 12)) for row in w]
    return w[sorted(range(len(keys)), key=lambda i: keys[i])]


def test_sort_weights_matches_tuple_sort():
    rng = np.random.default_rng(15)
    # few distinct values, signed zeros and offsets below the rounding, so
    # most rows tie on some leading coordinates and many tie outright; the
    # key is relative, so each draw is scaled by 10^k anywhere in the range
    values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 1e-13, -1e-13, 1.0 + 1e-13, 0.5 - 4e-13])
    draws = [np.zeros((4, 0)), np.zeros((0, 3))]
    draws += [rng.choice(values, size=rng.integers(0, [9, 5])) * 10.0 ** rng.integers(-300, 300)
              for _ in range(2000)]
    for w in draws:
        got, ref = sort_weights(w), _sort_weights_reference(w)
        # bytes, so that the order of rows equal only after rounding counts
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_horosphere_metric_examples():
    assert maxerr(horosphere_metric(_cusp([0, 1, 2], [0, 0])), np.eye(2)) < 1e-14
    got = horosphere_metric(_cusp([0, 0, 0], [1, 0]))
    assert maxerr(got, np.diag([np.sqrt(2), 1 / np.sqrt(2)])) < 1e-14
    # orthonormalized variant: unimodular form of B^T B
    rng = np.random.default_rng(0)
    b = random_marking(rng, 2)
    c = _cusp([1, 1, 1], [1, 1], marking=b, orthonormalized=True)
    assert maxerr(horosphere_metric(c), unimodular(b.T @ b)) < 1e-12


def test_horosphere_metric_fit_matches_closed():
    rng = np.random.default_rng(1)
    for orth in (False, True):
        for _ in range(5):
            c = random_cusp(rng, int(rng.integers(3, 6)), orthonormalized=orth)
            assert maxerr(unimodular(fit_height_jet(c)[0]), horosphere_metric(c)) < 1e-10


def test_metric_identity_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(8):
        n = int(rng.integers(3, 6))
        p = random_blownup_point(rng, n)
        b = random_marking(rng, n - 1)
        c = build_marked_cusp(p, b, orthonormalized=False)
        kap = p.kappa
        expected = unimodular(b.T @ (np.eye(n - 1) + np.outer(kap, kap)) @ b)
        assert maxerr(horosphere_metric(c), expected) < 1e-12


def test_complete_invariant_separates_lambda():
    c1 = _cusp([0, 1, 2], [0, 0])
    c2 = _cusp([0, 1, 3], [0, 0])
    assert not are_conjugate(c1, c2)
    assert are_conjugate(c1, c1)


def test_kappa_changes_class_when_lambda_fixed():
    c1 = _cusp([0, 0, 1], [0.5, 0])
    c2 = _cusp([0, 0, 1], [0.9, 0])
    assert not are_conjugate(c1, c2)


def test_stabilizer_marking_is_conjugate():
    rng = np.random.default_rng(3)
    b = random_marking(rng, 3)
    p = BlownUpWeylPoint(4, np.array([0, 0, 1.0, 1.0]), np.array([0.6, 0, 0]))
    c1 = build_marked_cusp(p, b)
    # permutation of the two equal positive slots, left-composed
    swap = np.eye(3)
    swap[[1, 2]] = swap[[2, 1]]
    assert are_conjugate(c1, build_marked_cusp(p, swap @ b))
    # orthogonal block on the zero slot conjugated by the preferred root
    refl = np.diag([-1.0, 1.0, 1.0])
    s = preferred_sqrt(p.kappa)
    r = np.linalg.solve(s, refl @ s)
    assert are_conjugate(c1, build_marked_cusp(p, r @ b))


def test_unequal_swap_changes_class():
    rng = np.random.default_rng(4)
    b = random_marking(rng, 2)
    p = BlownUpWeylPoint(3, np.array([0, 1.0, 2.0]), np.zeros(2))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not are_conjugate(build_marked_cusp(p, b), build_marked_cusp(p, swap @ b))


def test_weight_data_anchor():
    wd = weight_data(_cusp([1, 1, 1], [1, 1]))
    assert abs(wd.varpi - 3 ** -0.5) < 1e-10
    gram = wd.weights @ np.linalg.inv(wd.metric) @ wd.weights.T
    assert maxerr(np.diag(gram), np.full(3, np.sqrt(3) - 1 / np.sqrt(3))) < 1e-10
    assert weights_equation_residual(wd) < 1e-12


def test_weight_data_zero_varpi_orthogonal():
    wd = weight_data(_cusp([0, 1, 2], [0, 0]))
    assert abs(wd.varpi) < 1e-12
    gram = wd.weights @ np.linalg.inv(wd.metric) @ wd.weights.T
    off = gram[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) < 1e-12


def _dual_gram_reference(weights, metric):
    """The dual Gram data as each caller formed it before ``dual_gram``:
    the metric's inverse, the einsum of the dual norms over every row, and
    the off-diagonal pairings of W q^-1 W^T with np.mean."""
    qinv = np.linalg.inv(metric)
    norms = np.einsum("ij,jk,ik->i", weights, qinv, weights)
    gram = weights @ qinv @ weights.T
    off = gram[~np.eye(len(gram), dtype=bool)]
    return norms, off, -float(np.mean(off))


def test_dual_gram_matches_the_inline_formulas_bit_for_bit():
    rng = np.random.default_rng(24)
    for n in range(3, 8):
        draws = [weight_data(random_cusp(rng, n, t=t, orthonormalized=bool(t % 2)))
                 for t in range(n + 1) for _ in range(8)]
        for _ in range(40):
            # rows of mixed size, some of them zero, under a unimodular metric
            w = rng.standard_normal((n, n - 1)) * 10.0 ** rng.uniform(-6.0, 3.0, (n, 1))
            w[rng.random(n) < 0.3] = 0.0
            a = rng.standard_normal((n - 1, n - 1))
            draws.append(WeightData(w, unimodular(a @ a.T + 0.1 * np.eye(n - 1))))
        for wd in draws:
            got = dual_gram(wd.weights, wd.metric)
            want = _dual_gram_reference(wd.weights, wd.metric)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2] == want[2] == wd.varpi
    # a single row pairs with nothing
    norms, off, varpi = dual_gram(np.ones((1, 2)), np.eye(2))
    assert norms.tolist() == [2.0] and off.size == 0 and varpi == 0.0


def test_varpi_closed_form_across_builds():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = random_cusp(rng, int(rng.integers(3, 6)))
        assert abs(weight_data(c).varpi - varpi_closed_form(c)) < 1e-8


def test_realize_weight_data_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(3, 6))
        wd = weight_data(random_cusp(rng, n))
        back = weight_data(realize_weight_data(wd))
        assert _match_multisets(back.weights, wd.weights) < 1e-6
        assert maxerr(back.metric, wd.metric) < 1e-6


def test_realize_lambda0_sweep():
    # lambda0 -> 0 with kappa = lambda0 / lambda, at 1e-6: N_0 ~ lambda0^4
    # sinks to roundoff while varpi ~ lambda0^2 still takes the varpi > 0
    # branch.  One small weight m on the varpi = 0 stratum, at the default
    # 1e-8: its squared dual norm m^2 would read as zero and drop the type.
    cases = []
    for n in (3, 4, 5):
        for lam0 in np.logspace(-8, np.log10(0.3), 51):
            lam = np.concatenate([[lam0], np.linspace(1, 2, n - 1)])
            cases.append((_cusp(lam, lam0 / lam[1:]), 1e-6))
        for m in (1e-5, 3e-6, 1e-6, 1e-7, 1e-9):
            lam = np.concatenate([[0.0, m], np.linspace(1, 2, n - 2)])
            cases.append((_cusp(lam, np.zeros(n - 1)), 1e-8))
    failures = []
    for c, tol in cases:
        try:
            ok = are_conjugate(realize_weight_data(weight_data(c)), c, tol=tol)
        except ValueError:
            ok = False
        if not ok:
            failures.append(c.params.lam)
    assert failures == []


def test_realize_keeps_the_type_near_the_boundary():
    # lambda0 / lambda_max in {1e-4, 3e-5, 1e-5, 1e-6}, random markings:
    # varpi ~ lambda0^2 is far above the spread of the pairings, so psi, the
    # weight data and the rebuilt cusp all read type n, psi is the normal
    # form and the rebuilt cusp is conjugate at the default tolerance.  A
    # snap of varpi at tol max N read these as type n - 1, and
    # lambda = [1e-4, 0.5, 1, 2] then missed eta by 2e-8.
    rng = np.random.default_rng(31)
    cases = [_cusp([1e-4, 0.5, 1.0, 2.0], 1e-4 / np.array([0.5, 1.0, 2.0]))]
    for n in range(4, 8):
        for i in range(40):
            top = np.sort(rng.uniform(0.5, 2.0, n - 1))
            lam = np.concatenate([[(1e-4, 3e-5, 1e-5, 1e-6)[i % 4] * top[-1]], top])
            cases.append(_cusp(lam, lam[0] / lam[1:], random_marking(rng, n - 1)))
    wrong = []
    for c in cases:
        wd = weight_data(c)
        back = realize_weight_data(wd)
        psi = recover_psi_from_invariant(complete_invariant(c))
        want = marked_psi_normal_form(c.params).psi
        types = {c.params.type_t, wd.type_t, back.params.type_t, psi.type_t}
        off = np.abs(psi.psi - want).max() / want.max()
        if types != {c.n} or off > 1e-7 or not are_conjugate(c, back):
            wrong.append(c.params.lam)
    assert wrong == []


def test_linear_weights_drop_the_exact_zero():
    # a live-looking dependent weight of size ~lambda0^2 can sort before the
    # translation line's exact zero and fall under the zero test: the
    # linear weights keep it and lose the exact zero
    w = np.array([[-1e-13, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert _linear_weights(w).tolist() == [[-1e-13, 0.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="no zero covector"):
        _linear_weights(w[[0, 2, 3]] + [0.5, 0.0])


def test_realize_rejects_bad_data():
    # varpi > 0 together with a zero weight is unrealizable: the zero weight
    # pairs to 0, not -varpi, with the others
    wd = weight_data(_cusp([1, 1, 1], [1, 1]))
    broken = type(wd)(np.vstack([wd.weights[:-1], np.zeros(2)]), wd.metric)
    with pytest.raises(ValueError, match="weights equation residual"):
        realize_weight_data(broken)


def test_realize_honours_tol_for_negative_varpi():
    # pairings all -5e-9(1 - 5e-9) ~ 5e-9 = -varpi: the pairings agree with
    # each other to 1e-24, but no cusp has varpi < 0, so at tol = 1e-10 the
    # data is rejected rather than realized with the ~7e-9 weight dropped
    e = 5e-9
    wd = WeightData(np.array([[1.0, 0.0], [e, 1.0], [e, e * (1.0 - e)]]), np.eye(2))
    assert -6e-9 < wd.varpi < -4e-9
    assert weights_equation_residual(wd) == -wd.varpi
    with pytest.raises(NotRealizable, match="weights equation residual"):
        realize_weight_data(wd, tol=1e-10)
    # the default tol still takes it, as before
    realize_weight_data(wd)


def test_weight_data_requires_unimodular_metric():
    # varpi reads the metric as given while realization and the weight
    # cubes read it renormalized, so a doubled metric must not get in
    wd = weight_data(_cusp([0.5, 1.0, 2.0], [0.5, 0.25]))
    with pytest.raises(ValueError, match="metric must be unimodular"):
        WeightData(wd.weights, 2.0 * wd.metric)


def test_psi_recovery_rejects_weights_without_positive_relation():
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotRealizable, match="weights equation residual"):
        recover_psi_from_invariant(CompleteInvariant(CharacterData(w), np.eye(2)))


def test_limit_demo_rows_rejects_nan_kappa():
    with pytest.raises(ValueError, match="kappa entries must lie in"):
        limit_demo_rows([float("nan"), 0.5], 100)


@pytest.mark.parametrize("kappa", [[1.0, 1.0], [0.3, 0.8], [1.0, 0.5, 0.2]])
def test_limit_demo_generator_distance_matches_lie_algebra_route(kappa):
    # the table exponentiates each cusp's cached generators; the reference
    # exponentiates lie_algebra_phi at the unit vectors, for the same bits
    kap = np.sort(np.asarray(kappa))[::-1]
    n = len(kap) + 1

    def gens(lam):
        p = BlownUpWeylPoint(n, lam, kap)
        return [expm(g) for g in lie_algebra_phi(p, np.eye(n - 1))]

    limit = gens(np.zeros(n))
    for row in limit_demo_rows(kappa, 1000):
        m = row["m"]
        lam = np.concatenate([[1.0 / m], (1.0 / m) / kap])
        want = max(float(np.max(np.abs(a - b))) for a, b in zip(gens(lam), limit))
        assert row["generator_distance"] == want


def _stacked_expm(a):
    """The stacked exponential ``linalg.expm`` once had: every member of a
    (k, d, d) stack scaled, summed and squared together, each squared as
    often as its own norm asks."""
    eye = np.eye(a.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(a).sum(axis=-1).max(axis=-1, initial=0.0)
        norm = np.minimum(np.maximum(norm, 0.5), 0.5 * np.finfo(float).max)
        nsq = np.ceil(np.log2(norm / 0.5)).astype(int)
        s = np.ldexp(a, -nsq[:, None, None])
        acc = eye + s / 14
        for j in range(13, 0, -1):
            acc = eye + (s @ acc) / j
        for j in range(int(nsq.max(initial=0))):
            sq = nsq > j
            acc[sq] = acc[sq] @ acc[sq]
    return acc


@pytest.mark.parametrize("kappa", [[1.0, 1.0], [0.3, 0.8], [1.0, 0.5, 0.2],
                                   [0.9, 0.7, 0.95, 0.6, 0.8, 0.65]])
def test_limit_demo_rows_match_the_stacked_expm_route(kappa):
    # the table exponentiates each generator on its own, for the bits the
    # stacked route gave each member of the stack
    kap = np.sort(np.asarray(kappa))[::-1]
    n = len(kap) + 1
    limit = build_marked_cusp(BlownUpWeylPoint(n, np.zeros(n), kap))
    want = []
    m = 10
    while m <= 10000:
        lam = np.concatenate([[1.0 / m], (1.0 / m) / kap])
        cusp = build_marked_cusp(BlownUpWeylPoint(n, lam, kap))
        gen = float(np.max(np.abs(_stacked_expm(cusp.generators)
                                  - _stacked_expm(limit.generators))))
        # the limit is the apex (all weights 0): the deviation is absolute
        eta, limit_eta = complete_invariant(cusp), complete_invariant(limit)
        inv = max(_match_multisets(eta.character.weights, limit_eta.character.weights),
                  maxerr(eta.metric, limit_eta.metric))
        want.append({"m": m, "lambda0": 1.0 / m, "generator_distance": gen,
                     "invariant_distance": inv})
        m *= 10
    assert limit_demo_rows(kappa, 10000) == want


@pytest.mark.parametrize("kappa", [[1.0, 1.0], [0.3, 0.8], [1.0, 0.5, 0.2]])
def test_limit_demo_invariant_distance_decays_tenfold_per_decade(kappa):
    # the limit is the cone's apex, where every weight is 0, so a distance
    # relative to the data's own size would read 1 in every row
    rows = limit_demo_rows(kappa, 100000)
    assert rows[0]["invariant_distance"] < 1.0
    for prev, cur in zip(rows, rows[1:]):
        ratio = prev["invariant_distance"] / cur["invariant_distance"]
        assert abs(ratio - 10.0) <= 1.0


def test_frame_to_weight_data():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    vs = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    wd = frame_to_weight_data(a, vs)
    assert maxerr(wd.metric, unimodular(a.T @ a)) < 1e-12
    assert weights_equation_residual(wd) < 1e-12
    assert abs(wd.varpi) < 1e-12
    # planar triple with constant negative products
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
    q *= np.where(q[2] > 0, 1.0, -1.0)
    u = q / q[2]
    vs = u[:2].T
    wd = frame_to_weight_data(np.eye(2), vs)
    assert wd.varpi > 0
    assert weights_equation_residual(wd) < 1e-10
    with pytest.raises(ValueError, match="unipotent"):
        frame_to_weight_data(np.array([[2.0, 0], [0, 0.5]]), vs)


def test_psi_recovery_all_types():
    rng = np.random.default_rng(8)
    for n in (3, 4, 5):
        for t in range(n + 1):
            for _ in range(3):
                p = random_blownup_point(rng, n, t=t)
                c = build_marked_cusp(p, random_marking(rng, n - 1))
                psi_rec = recover_psi_from_invariant(complete_invariant(c))
                assert maxerr(psi_rec.psi, marked_psi_normal_form(p).psi) < 1e-7


def test_psi_normal_form_keeps_type_n_as_lambda0_shrinks():
    # psi's zeros are structural: psi = lambda^-2 squares lambda's range, so
    # at lambda0 = 1e-9 its largest entry is 1e18 and a test relative to it
    # would read the others as zero; 5 n x 51 lambda0 in [1e-9, 1e-4]
    rng = np.random.default_rng(27)
    for n in range(3, 8):
        for lam0 in 10.0 ** np.linspace(-9.0, -4.0, 51):
            lam = np.concatenate(([lam0], np.sort(rng.uniform(0.3, 2.5, n - 1))))
            p = BlownUpWeylPoint(n, lam, lam0 / lam[1:])
            assert p.type_t == n
            assert lambda_to_psi(p).type_t == n
            assert marked_psi_normal_form(p).type_t == n


@pytest.mark.parametrize("n", range(3, 8))
def test_psi_normal_form_scales_with_lambda(n):
    # psi0 = lambda^-2 and the fold's scale s make NF(2^e lambda) =
    # 2^(e (1 + u/t)) NF(lambda); taken in logs, the scale stays in the
    # float range where a product of n - 1 lambdas or a power of psi0 leaves it
    rng = np.random.default_rng(40 + n)
    for t in range(1, n + 1):
        u = n - 1 - min(t, n - 1)
        for _ in range(10):
            p = random_blownup_point(rng, n, t=t)
            base = marked_psi_normal_form(p).psi
            for e in (-170, -70, 70, 170) if t == n else (-70, 70):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = marked_psi_normal_form(p.scaled(2.0 ** e)).psi
                want = 2.0 ** (e * (1.0 + u / t)) * base
                assert np.abs(got - want).max() <= 1e-12 * want.max(), (t, e)


def _psi_normal_form_mp(p):
    """The normal form's positive entries, descending, in mpmath, whose
    exponent range holds psi0 = lambda^-2 at any lambda: psi0 s with
    s = lam0^2 (prod lam_i)^(1/(n-1)) at t = n, and
    s = (sqrt(1 + |kappa|^2) / (psi0_t^(t + u/2) sqrt(prod psi0)))^(1/t) at
    0 < t < n."""
    n, t = p.n, p.type_t
    with mpmath.workdps(50):
        lam = [mpmath.mpf(float(v)) for v in p.lam[n - t:]]
        psi0 = [v ** -2 for v in lam]
        if t == n:
            s = lam[0] ** 2 * mpmath.fprod(lam[1:]) ** (mpmath.mpf(1) / (n - 1))
        else:
            u = n - 1 - t
            vk = mpmath.sqrt(1 + mpmath.fsum(mpmath.mpf(float(k)) ** 2 for k in p.kappa))
            c = psi0[-1] ** (t + mpmath.mpf(u) / 2) * mpmath.sqrt(mpmath.fprod(psi0))
            s = (vk / c) ** (mpmath.mpf(1) / t)
        return [v * s for v in psi0]


# (lambda at k = 0, how many of the 13 scales put psi out of the float range):
# psi ~ lambda^(1 + u/t) (see the test above), so types t >= n - 1 keep psi
# in range wherever lambda is, and lower types leave it
@pytest.mark.parametrize("lam, refusals", [
    ((0.5, 1.0, 2.0), 0), ((0.0, 1.0, 2.0), 0), ((0.0, 0.0, 2.0), 6),
    ((0.0, 1.0, 2.0, 3.0), 0), ((0.0, 0.0, 1.0, 2.0), 4), ((0.0, 0.0, 0.0, 3.0), 8),
])
def test_psi_recovery_across_the_float_range(lam, refusals):
    # psi0 = lambda^-2 leaves the float range at lambda beyond 1e+-154, psi
    # itself only where its own entries do: psi is the normal form wherever
    # that is a normal float, and a refusal naming the range elsewhere,
    # never inf or 0
    big, tiny = mpmath.mpf(np.finfo(float).max), mpmath.mpf(np.finfo(float).tiny)
    refused = 0
    for k in range(-300, 301, 50):
        lam_k = np.array(lam) * 10.0 ** k
        n = lam_k.size
        kappa = lam_k[0] / lam_k[1:] if lam_k[0] > 0 else np.zeros(n - 1)
        p = BlownUpWeylPoint(n, lam_k, kappa)
        eta = complete_invariant(build_marked_cusp(p))
        want = _psi_normal_form_mp(p)
        if not all(tiny <= v < big for v in want):
            refused += 1
            with pytest.raises(ValueError, match="out of the float range"):
                recover_psi_from_invariant(eta)
            continue
        got = recover_psi_from_invariant(eta).psi
        assert np.all(np.isfinite(got)) and np.all(got[len(want):] == 0.0), k
        rel = max(abs((mpmath.mpf(float(g)) - w) / w) for g, w in zip(got, want))
        assert rel < 1e-12, (k, float(rel))
    assert refused == refusals


def test_psi_recovery_direct_diagonal_model():
    # a diagonal model marked with the identity recovers its own psi
    psi = PsiParameter(3, np.array([4.0, 1.0, 0.0]), ordered=True)
    p = psi_to_lambda(psi)
    norm = marked_psi_normal_form(p)
    # the marked class of the canonical build carries the det-folded scale
    assert maxerr(norm.psi, np.array([4.0, 1.0, 0.0]) / np.sqrt(2)) < 1e-12
    c = build_marked_cusp(p)
    assert maxerr(recover_psi_from_invariant(complete_invariant(c)).psi, norm.psi) < 1e-10


def test_conjugation_invariance_of_eta():
    # conjugated generators reproduce the character pointwise
    rng = np.random.default_rng(9)
    from gencusp.linalg import expm
    from gencusp.shape import height_jet

    c = random_cusp(rng, 4)
    eta = complete_invariant(c)
    lin = random_marking(rng, 4, cond_max=10.0)
    p = np.eye(5)
    p[:4, :4] = lin
    p[:4, 4] = rng.uniform(-1, 1, 4)
    pinv = np.linalg.inv(p)
    gens = [p @ g @ pinv for g in c.generators]
    for _ in range(4):
        v = rng.uniform(-1, 1, 3)
        amat = sum(vi * g for vi, g in zip(v, gens))
        assert abs(np.trace(expm(amat)) - eta.character.chi(v)) < 1e-9 * max(
            1, abs(eta.character.chi(v)))
    assert maxerr(unimodular(height_jet(gens, p[:, 4])[0]), eta.metric) < 1e-10


def test_stratum_dims():
    assert [stratum_dim(3, t) for t in range(4)] == [2, 4, 5, 6]
    for n in range(2, 7):
        assert stratum_dim(n, n) == n * n - n
    with pytest.raises(ValueError):
        stratum_dim(3, 4)


def test_character_data_requires_zero_weight():
    with pytest.raises(ValueError):
        CharacterData(np.array([[1.0, 0.0], [0.0, 1.0]]))


def _weight_like_pair(rng, k):
    # weight multisets: repeated zero rows, and a column shared by all but
    # tiny perturbations, so many matchings tie or nearly tie
    d = int(rng.integers(1, 7))
    a = rng.standard_normal((k, d))
    a[rng.integers(0, k, 2)] = 0.0
    b = a[rng.permutation(k)] + rng.standard_normal((k, d)) * 10.0 ** -rng.integers(3, 15)
    b[:, 0] = b[rng.integers(0, k), 0]
    return a, b


def _weight_like_cost(rng, k):
    a, b = _weight_like_pair(rng, k)
    return np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)


def test_linear_sum_assignment_matches_scipy_oracle():
    rng = np.random.default_rng(0)
    for k in range(1, 10):
        for _ in range(40):
            for cost in (
                rng.standard_normal((k, k)) * rng.uniform(0.01, 100),
                rng.integers(0, 4, (k, k)).astype(float),
                _weight_like_cost(rng, k),
            ):
                rows, cols = linear_sum_assignment(cost)
                assert np.array_equal(rows, np.arange(k))
                assert sorted(cols.tolist()) == list(range(k))
                r2, c2 = scipy.optimize.linear_sum_assignment(cost)
                best = cost[r2, c2].sum()
                assert abs(cost[rows, cols].sum() - best) <= 1e-12 * max(1.0, abs(best))


def test_linear_sum_assignment_rejects_bad_input():
    with pytest.raises(ValueError):
        linear_sum_assignment(np.zeros((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            linear_sum_assignment(np.array([[0.0, 1.0], [bad, 0.0]]))


def _match_by_hungarian(a, b):
    """``_match_multisets`` without the sorted-order certificate."""
    cost = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _boundary_pair(rng, k):
    # coordinates from a few values plus an offset within 1e-13 of a
    # rounding boundary of sort_weights' key: one coordinate is 1, so the
    # key is w / 2 and its boundaries sit at odd multiples of 1e-12.  The
    # copy is permuted and its offsets cross the boundary at random, so the
    # two canonical orders can differ
    d = int(rng.integers(1, 5))
    base = rng.choice([0.0, 1.0, -1.0, 0.5], (k, d))
    base[0, 0] = 1.0
    half = (2 * rng.integers(0, 3, (k, d)) + 1) * 1e-12
    step = 10.0 ** -rng.uniform(13, 15, (k, d))
    on = rng.random((k, d)) < 0.5
    a = base + on * (half - step)
    perm = rng.permutation(k)
    flip = np.where(rng.random((k, d)) < 0.5, -1.0, 1.0)
    b = base[perm] + on[perm] * (half[perm] + flip * step[perm])
    return a, b


def test_match_multisets_equals_the_hungarian_bit_for_bit(monkeypatch):
    import gencusp.invariants as inv_mod

    calls = [0]

    def counted(cost):
        calls[0] += 1
        return linear_sum_assignment(cost)

    monkeypatch.setattr(inv_mod, "linear_sum_assignment", counted)

    def fallbacks(pairs):
        before = calls[0]
        for a, b in pairs:
            assert _match_multisets(a, b) == _match_by_hungarian(a, b)
        return calls[0] - before

    rng = np.random.default_rng(22)
    conjugate, other = [], []
    for n in range(3, 8):
        for t in range(n + 1):
            for orth in (False, True):
                p = random_blownup_point(rng, n, t)
                b = random_marking(rng, n - 1)
                s = preferred_sqrt(p.kappa)
                copy = (build_marked_cusp(p, np.linalg.solve(s, b)) if orth
                        else build_marked_cusp(p, s @ b, orthonormalized=True))
                w = weights_of(build_marked_cusp(p, b, orthonormalized=orth)).weights
                conjugate.append((w, weights_of(copy).weights))
                other.append((w, weights_of(random_cusp(rng, n)).weights))
    # the canonical order certifies itself on every conjugate pair
    assert fallbacks(conjugate) == 0
    fallbacks(other)
    near = []
    for k in range(1, 10):
        for _ in range(40):
            for a, b in (_weight_like_pair(rng, k), _boundary_pair(rng, k)):
                near += [(a, b), (sort_weights(a), sort_weights(b))]
    ran = fallbacks(near)
    assert 0 < ran < len(near)

    # two rows tie after rounding on the first coordinate in a but not in b
    # (the key is w / 2, so 1e-12 is a rounding boundary), so the canonical
    # orders disagree and the diagonal is not row-minimal
    a = sort_weights([[1e-12 - 1e-14, 1.0], [1e-12 - 1e-14, 0.0]])
    b = sort_weights([[1e-12 - 1e-14, 1.0], [1e-12 + 1e-14, 0.0]])
    assert np.array_equal(a[:, 1], [0.0, 1.0]) and np.array_equal(b[:, 1], [1.0, 0.0])
    before = calls[0]
    assert _match_multisets(a, b) == _match_by_hungarian(a, b) < 1e-13
    assert calls[0] - before == 1


def test_eta_distance_rejects_nan_weight():
    # a non-finite covector must not read as a match (nor hang the solver):
    # an inf one gives an inf diagonal entry that is the minimum of its row,
    # so the sorted-order certificate must not take it.  CharacterData
    # rejects one, so it is planted behind the constructor
    eta = complete_invariant(_cusp([0.5, 1, 2], [0.5, 0.25]))
    for bad in (np.nan, np.inf, -np.inf):
        w = np.array(eta.character.weights)
        w[0] = bad
        character = CharacterData(eta.character.weights)
        object.__setattr__(character, "weights", w)
        broken = CompleteInvariant(character, eta.metric)
        for pair in ((broken, eta), (eta, broken)):
            with pytest.raises(ValueError):
                eta_distance(*pair)


def test_eta_distance_of_different_n_is_infinite():
    # the weights are compared first, so the metrics of different sizes
    # are never broadcast against each other
    e3 = complete_invariant(_cusp([0.5, 1, 2], [0.5, 0.25]))
    e4 = complete_invariant(_cusp([0.5, 1, 2, 4], [0.5, 0.25, 0.125]))
    assert eta_distance(e3, e4) == np.inf
    assert eta_distance(e4, e3) == np.inf


@pytest.mark.parametrize("s", [1e-12, 1e-9, 1.0, 1e9])
def test_conjugacy_is_free_of_the_size_of_lambda(s):
    # scaling lambda by s scales every weight by s: lambda = s [0, 1, 2] and
    # s [0, 1, 3] differ by a weight of size s, the data's whole size, at
    # every s, and a re-marked copy (the other flag, with S B for B) stays
    # conjugate at every s
    for b in (np.eye(2), random_marking(np.random.default_rng(28), 2)):
        p = BlownUpWeylPoint(3, s * np.array([0.0, 1.0, 2.0]), np.zeros(2))
        c = build_marked_cusp(p, b)
        assert not are_conjugate(c, _cusp(s * np.array([0.0, 1.0, 3.0]), [0, 0], b))
        assert are_conjugate(c, build_marked_cusp(p, preferred_sqrt(p.kappa) @ b,
                                                  orthonormalized=True))


def test_eta_distance_weight_part_is_symmetric():
    # the weight deviation is relative to the larger of the two multisets,
    # not to the second one's.  lambda and r lambda share kappa, so with a
    # shared marking the metrics are equal and the weight part alone decides
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(3, 8))
        p = random_blownup_point(rng, n, int(rng.integers(1, n + 1)))
        b = random_marking(rng, n - 1)
        e1, e2 = (complete_invariant(build_marked_cusp(BlownUpWeylPoint(n, r * p.lam, p.kappa), b))
                  for r in rng.uniform(0.2, 5.0, 2))
        assert eta_distance(e1, e2) == eta_distance(e2, e1) > 0


def test_eta_and_shape_distances_are_symmetric():
    # two cusps with one marking and different kappa have different metrics:
    # the metric part, too, is relative to the larger of the two sides
    rng = np.random.default_rng(31)
    asymmetric = []
    for _ in range(200):
        n = int(rng.integers(3, 8))
        b = random_marking(rng, n - 1)
        c1, c2 = (build_marked_cusp(random_blownup_point(rng, n), b) for _ in range(2))
        e1, e2 = complete_invariant(c1), complete_invariant(c2)
        s1, s2 = shape_invariant(c1, "closed"), shape_invariant(c2, "closed")
        assert eta_distance(e1, e2) == eta_distance(e2, e1)
        assert s1.distance(s2) == s2.distance(s1)
        asymmetric.append(maxerr(e1.metric, e2.metric) != maxerr(e2.metric, e1.metric))
    # the draws reach the case a one-sided maxerr gets wrong
    assert sum(asymmetric) > 100


@pytest.mark.parametrize("s", [1e-8, 1e-5, 1.0, 1e5])
def test_realize_refuses_off_equation_rows_at_any_scale(s):
    # random rows miss the weights equation by about their own size squared,
    # and REALIZE_TOL is relative to that size: small rows are no exception
    rng = np.random.default_rng(30)
    for n in range(3, 8):
        for _ in range(5):
            b = random_marking(rng, n - 1)
            w = WeightData(s * rng.standard_normal((n, n - 1)), unimodular(b.T @ b))
            with pytest.raises(NotRealizable, match="weights equation residual"):
                realize_weight_data(w)


def test_value_types_reject_a_non_finite_metric():
    # every comparison is False on NaN: each validator must reject the form
    # before it reaches one
    c = _cusp([0.5, 1, 2], [0.5, 0.25])
    eta, nu = complete_invariant(c), weight_data(c)
    for bad in (np.nan, np.inf, -np.inf):
        form = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            WeightData(nu.weights, form)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            CompleteInvariant(eta.character, form)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            ShapeInvariant(form, cubic_from_weights(nu).c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_value_types_reject_non_finite_weights(bad):
    c = _cusp([0.5, 1, 2], [0.5, 0.25])
    nu = weight_data(c)
    w = np.array(nu.weights)
    w[1, 0] = bad
    with pytest.raises(ValueError, match="weights must be finite"):
        WeightData(w, nu.metric)
    # a non-finite row is not "the zero covector" of the translation line
    with pytest.raises(ValueError, match="weights must be finite"):
        CharacterData(np.vstack([np.full((1, 2), bad), w[1:], np.ones((1, 2))]))
    with pytest.raises(ValueError, match="weights must be finite"):
        sort_weights(w)


def test_weights_of_refuses_non_finite_generator_entries():
    # every weight finite, and still refused: at lambda = 0 and kappa = 1 the
    # weights are all zero, but the top row v + <v,kappa> kappa of the
    # generator at column g = 2^1023 e_g of diag(.., 2^1023, .., 2^-1023, ..),
    # a unimodular marking, reads 2^1024 = inf
    for n in range(3, 8):
        for g in range(n - 1):
            b = np.eye(n - 1)
            b[g, g], b[g - 1, g - 1] = 2.0 ** 1023, 2.0 ** -1023
            c = _cusp(np.zeros(n), np.ones(n - 1), marking=b)
            with pytest.raises(ValueError, match="character cross-check failed: generator %d "
                               "has a non-finite entry" % g):
                weights_of(c)
            with pytest.warns(RuntimeWarning, match="overflow"):
                gens = c.generators
            assert np.isfinite(np.diagonal(gens, axis1=1, axis2=2)).all()
            assert np.flatnonzero(~np.isfinite(gens).all(axis=(1, 2))).tolist() == [g]


def test_character_data_refuses_weights_without_a_zero_covector():
    # the translation line's zero covector: weights_of always reads one (the
    # generators' zero corner), so the refusal is CharacterData's own
    w = weights_of(_cusp([0.5, 1, 2], [0.5, 0.25])).weights
    with pytest.raises(ValueError, match="affine character data must contain a zero covector"):
        CharacterData(w + 0.25)


def test_character_trace_check_refuses_a_moved_weight():
    # negative control of the battery's character-trace-newton check: over
    # 300 seeded draws, n = 3..7, the true weights read at most a hundredth
    # of its threshold, and one weight entry moved by 0.1..1 reads above it
    # every time
    from gencusp import verify

    threshold = next(c["threshold"] for c in verify.CHECKS
                     if c["name"] == "character-trace-newton")
    rng = np.random.default_rng(21)
    for _ in range(300):
        m, w, v = verify._conjugated_holonomy(rng, (3, 4, 5, 6, 7))
        assert verify._trace_newton_residual(m, w @ v) <= threshold / 100
        moved = np.array(w)
        row, col = rng.integers(moved.shape[0]), rng.integers(moved.shape[1])
        moved[row, col] += rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
        assert verify._trace_newton_residual(m, moved @ v) > threshold
