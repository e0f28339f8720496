from itertools import combinations_with_replacement

import numpy as np
import pytest

from gencusp.cusp_groups import (
    BlownUpWeylPoint,
    PsiParameter,
    build_marked_cusp,
    hypersurface_F,
    psi_to_lambda,
)
from gencusp.invariants import are_conjugate, complete_invariant, weight_data
from gencusp.linalg import maxerr
from gencusp.sampling import random_cusp, random_marking
from gencusp.shape import (
    CubicPoly,
    J_psi_eval,
    ShapeInvariant,
    affine_normal_at_base,
    cubic_from_weights,
    fit_height_jet,
    height_at,
    is_affine_sphere,
    radial_projection,
    recover_cusp_from_shape,
    restricted_diag_calibration,
    shape_invariant,
    sphere_local_maxima,
)


def _cusp(lam, kap, marking=None, **kw):
    p = BlownUpWeylPoint(len(lam), np.asarray(lam, float), np.asarray(kap, float))
    return build_marked_cusp(p, marking, **kw)


def test_height_at_basics():
    c = _cusp([0, 0, 0], [0, 0])
    assert height_at(c, np.zeros(2)) == 0.0
    v = np.array([0.3, -0.5])
    assert abs(height_at(c, v) - 0.5 * v @ v) < 1e-14
    # h >= 0 on a ball sample for every valid cusp
    rng = np.random.default_rng(0)
    for _ in range(5):
        cc = random_cusp(rng, 4)
        for _ in range(20):
            assert height_at(cc, rng.uniform(-0.5, 0.5, 3)) >= 0.0


def test_shape_invariant_examples():
    s = shape_invariant(_cusp([0, 0, 0], [0, 0]), "closed")
    assert maxerr(s.q, np.eye(2)) < 1e-14
    assert s.c.coeff_norm() < 1e-14

    s = shape_invariant(_cusp([0, 1, 2], [0, 0]), "closed")
    assert maxerr(s.q, np.eye(2)) < 1e-14
    mono = s.c.monomials()
    assert abs(3 * mono[(3, 0)] - 1.0) < 1e-14
    assert abs(3 * mono[(0, 3)] - 2.0) < 1e-14

    # equal-parameter model: cubic proportional to -v1 v2 (v1+v2) pattern
    s = shape_invariant(_cusp([1, 1, 1], [1, 1]), "closed")
    mono = {k: v for k, v in s.c.monomials().items()}
    raw = CubicPoly.from_monomials(2, {
        (2, 1): -1.0, (1, 2): -1.0}).tensor  # v1 v2 (v1 + v2)
    ratio = mono[(2, 1)] / raw[0, 0, 1] / 3
    assert abs(mono[(2, 1)] - mono[(1, 2)]) < 1e-14
    assert abs(mono[(3, 0)] - mono[(0, 3)]) < 1e-12


def test_shape_fit_matches_closed():
    rng = np.random.default_rng(1)
    for _ in range(8):
        c = random_cusp(rng, int(rng.integers(3, 5)))
        assert shape_invariant(c, "fit").distance(shape_invariant(c, "closed")) < 1e-10


def test_triple_route_agreement():
    rng = np.random.default_rng(2)
    for _ in range(12):
        c = random_cusp(rng, int(rng.integers(3, 5)))
        s_closed = shape_invariant(c, "closed")
        s_weights = cubic_from_weights(weight_data(c))
        assert s_weights.distance(s_closed) < 1e-8


def test_jet_hessian_matches_finite_differences():
    rng = np.random.default_rng(3)
    c = random_cusp(rng, 3)
    q_fit, _ = fit_height_jet(c)
    step = 1e-3
    fd = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            pp = step * (np.eye(2)[i] + np.eye(2)[j])
            pm = step * (np.eye(2)[i] - np.eye(2)[j])
            fd[i, j] = (height_at(c, pp) - height_at(c, pm)
                        - height_at(c, -pm) + height_at(c, -pp)) / (4 * step * step)
    assert maxerr(2 * q_fit, fd) < 1e-4 * max(1.0, np.max(np.abs(fd)))


def test_J_psi_eval():
    assert J_psi_eval(np.ones(3), np.zeros(3)) == 0.0
    assert abs(J_psi_eval(np.ones(3), np.array([1.0, -1, 0])) - 1.0) < 1e-14
    assert abs(J_psi_eval(np.ones(3), np.array([2.0, -1, -1])) - 4.0) < 1e-14
    with pytest.raises(ValueError):
        J_psi_eval(np.ones(3), np.array([1.0, 1, 0]))


def test_cubic_from_weights_examples():
    wd = weight_data(_cusp([0, 0, 0], [0.5, 0.5]))
    s = cubic_from_weights(wd)
    assert s.c.coeff_norm() < 1e-14
    wd = weight_data(_cusp([0, 1, 2], [0, 0]))
    s = cubic_from_weights(wd)
    mono = s.c.monomials()
    assert abs(3 * mono[(3, 0)] - 1.0) < 1e-12
    assert abs(3 * mono[(0, 3)] - 2.0) < 1e-12


def test_radial_projection_and_normal():
    q = np.eye(2)
    radial = CubicPoly.from_monomials(2, {(3, 0): 1.0, (1, 2): 1.0})
    assert maxerr(radial_projection(q, radial), [1.0, 0.0]) < 1e-12
    harmonic = CubicPoly.from_monomials(2, {(3, 0): 1.0, (1, 2): -3.0})
    assert np.max(np.abs(radial_projection(q, harmonic))) < 1e-12
    assert maxerr(affine_normal_at_base(q, radial), [1.0, -0.25, 0.0]) < 1e-12
    assert maxerr(affine_normal_at_base(q, CubicPoly.zero(2)), [1.0, 0, 0]) < 1e-15


def test_equal_parameter_model_is_harmonic():
    s = shape_invariant(_cusp([1, 1, 1], [1, 1]), "closed")
    assert np.linalg.norm(radial_projection(s.q, s.c)) < 1e-12


def test_affine_sphere_predicate():
    assert is_affine_sphere(_cusp([0, 0, 0], [0, 0]))
    assert is_affine_sphere(_cusp([1, 1, 1], [1, 1]))
    assert not is_affine_sphere(_cusp([0, 1, 2], [0, 0]))
    # kappa < 1 with equal positive lambda tail is not an affine sphere
    assert not is_affine_sphere(_cusp([0.5, 1, 1], [0.5, 0.5]))


def _graph_jet(p, radius=1e-2):
    """2- and 3-jet of the boundary surface as an honest graph over its
    tangent plane (the fit runs on the surface function itself, in surface
    coordinates; these differ from the group-parametrized jet at degree 3)."""
    exps = [
        tuple(idx.count(var) for var in range(2))
        for deg in (2, 3, 4, 5)
        for idx in combinations_with_replacement(range(2), deg)
    ]
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (5 * len(exps), 2))
    heights = np.array([hypersurface_F(p, radius * x) for x in pts])
    design = np.column_stack([
        np.prod(pts ** np.array(e), axis=1) for e in exps])
    coeffs, *_ = np.linalg.lstsq(design, heights, rcond=None)
    q = np.zeros((2, 2))
    mono3 = {}
    for e, val in zip(exps, coeffs):
        deg = sum(e)
        val /= radius ** deg
        if deg == 2:
            i, j = [k for k, c in enumerate(e) for _ in range(c)]
            if i == j:
                q[i, i] = val
            else:
                q[i, j] = q[j, i] = val / 2
        elif deg == 3:
            mono3[e] = val
    return q, CubicPoly.from_monomials(2, mono3)


def test_affine_normal_parallel_to_radial_flow_for_spheres():
    # for an affine-sphere cusp the tilt of the affine normal away from the
    # height axis (the radial part of the graph cubic) points along the
    # radial-flow line through the basepoint; the magnitude convention is
    # fixed by the x(x^2+y^2) example above, so only directions are compared
    p = BlownUpWeylPoint(3, np.ones(3), np.ones(2))
    c = build_marked_cusp(p)
    q, cub = _graph_jet(p)
    normal = affine_normal_at_base(q, cub)
    assert normal[0] == 1.0
    from gencusp.cusp_groups import flow_center

    direction = flow_center(c)  # the flow line at the origin points at C
    tilt = normal[1:]
    dir_v = direction[1:]
    cos = abs(tilt @ dir_v) / (np.linalg.norm(tilt) * np.linalg.norm(dir_v))
    assert abs(cos - 1.0) < 1e-6
    # whereas a non-sphere cusp has a genuinely non-harmonic graph cubic
    p2 = BlownUpWeylPoint(3, np.array([0.0, 1, 2]), np.zeros(2))
    q2, cub2 = _graph_jet(p2)
    assert np.linalg.norm(radial_projection(q2, cub2)) > 1e-3


def test_sphere_maxima_nondiag_anchor():
    s = shape_invariant(_cusp([0, 1, 2], [0, 0]), "closed")
    found = sphere_local_maxima(s.q, s.c)
    pos = found.values > 0
    order = np.argsort(found.values[pos])
    vals = found.values[pos][order]
    assert len(vals) == 2
    assert maxerr(vals, [1.0 / 3.0, 2.0 / 3.0]) < 1e-9
    pts = found.points[pos][order]
    assert maxerr(pts, np.eye(2)) < 1e-9
    # the predicted extra negative maximum on the boundary type
    neg = found.values[~pos]
    assert len(neg) == 1 and abs(neg[0] + 10 / (3 * 5 ** 1.5)) < 1e-9


def test_sphere_maxima_diag_anchor():
    q, c, _ = restricted_diag_calibration(np.array([1.0, 1, 1]))
    found = sphere_local_maxima(q, c)
    assert len(found.points) == 3
    assert maxerr(found.values, np.full(3, (1 / 3.0) / np.sqrt(2 / 3.0) / 6.0)) < 1e-9
    gram = found.points @ q @ found.points.T
    off = gram[~np.eye(3, dtype=bool)]
    assert maxerr(off, np.full(6, -0.5)) < 1e-9


def test_sphere_maxima_degenerate_flag():
    out = sphere_local_maxima(np.eye(2), CubicPoly.zero(2))
    assert out.degenerate and len(out.points) == 0


def test_recover_standard_cusp():
    rec = recover_cusp_from_shape(ShapeInvariant(np.eye(2), CubicPoly.zero(2)))
    assert rec.params.type_t == 0
    q = np.array([[2.0, 0.3], [0.3, 0.55]])
    q /= np.linalg.det(q) ** 0.5
    rec = recover_cusp_from_shape(ShapeInvariant(q, CubicPoly.zero(2)))
    assert maxerr(shape_invariant(rec, "closed").q, q) < 1e-10


def test_recover_nondiag_anchor():
    src = _cusp([0, 1, 2], [0, 0])
    rec = recover_cusp_from_shape(shape_invariant(src, "closed"))
    assert maxerr(rec.params.lam, [0, 1, 2]) < 1e-8
    assert are_conjugate(rec, src)


def test_recover_diag_roundtrip():
    psi = PsiParameter(3, np.array([3.0, 2.0, 1.0]), ordered=True)
    src = build_marked_cusp(psi_to_lambda(psi), random_marking(np.random.default_rng(1), 2))
    rec = recover_cusp_from_shape(shape_invariant(src, "closed"))
    assert are_conjugate(rec, src, tol=1e-6)


def test_recover_rejects_non_cusp_shape():
    # slice commutators give varpi < 0: outside the cone, no real lift
    c = CubicPoly.from_monomials(2, {(3, 0): 1.0, (2, 1): 1.8, (1, 2): 1.8, (0, 3): 1.0})
    with pytest.raises(ValueError, match="not a cusp shape"):
        recover_cusp_from_shape(ShapeInvariant(np.eye(2), c))
    # a generic cubic on R^3 is not orthogonally decomposable after the lift
    c = CubicPoly(3, np.random.default_rng(5).standard_normal((3, 3, 3)))
    with pytest.raises(ValueError, match="not a cusp shape"):
        recover_cusp_from_shape(ShapeInvariant(np.eye(3), c))
    with pytest.raises(ValueError, match="n >= 3"):
        recover_cusp_from_shape(ShapeInvariant(np.eye(1), CubicPoly.zero(1)))


def test_recover_roundtrip_sweep():
    rng = np.random.default_rng(4)
    for n in range(3, 8):
        for t in range(n + 1):
            c = random_cusp(rng, n, t=t)
            rec = recover_cusp_from_shape(shape_invariant(c, "closed"))
            assert are_conjugate(rec, c, tol=1e-6)


def test_recover_lambda0_sweep():
    # lambda0 -> 0 with kappa = lambda0 / lambda, at 1e-6: varpi ~ lambda0^2
    # runs from well resolved through the floor, while N_0 ~ lambda0^4 sinks
    # to roundoff.  One small weight m on the varpi = 0 stratum, at the
    # default 1e-8: its squared dual norm m^2 would read as zero.
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
            ok = are_conjugate(recover_cusp_from_shape(shape_invariant(c, "closed")), c, tol=tol)
        except ValueError:
            ok = False
        if not ok:
            failures.append(c.params.lam)
    assert failures == []


def _ill_marking(k, angle=0.7):
    """R diag(1, k) R^T / sqrt(k): unimodular, condition k, so q has
    condition ~k^2."""
    r = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return r @ np.diag([1.0, k]) @ r.T / np.sqrt(k)


@pytest.mark.parametrize("k", [1e3, 3e3])
@pytest.mark.parametrize(
    "lam", [[0, 0.93, 1.7], [0, 0, 1.75], [0, 1, 2], [0.5, 1, 1.7]]
)
def test_recover_ill_conditioned_marking(lam, k):
    # the frame change amplifies roundoff by cond(q)^(3/2) ~ k^3; at k = 3e3
    # a floor blind to cond(q) fails three of the four
    lam = np.asarray(lam, dtype=float)
    kap = lam[0] / lam[1:] if lam[0] > 0 else np.zeros(2)
    src = _cusp(lam, kap, _ill_marking(k))
    rec = recover_cusp_from_shape(shape_invariant(src, "closed"))
    assert are_conjugate(rec, src, tol=1e-6)


@pytest.mark.parametrize(
    "lam, kap, marking, orth",
    [
        # q with condition number ~1e3
        ([0, 0.93, 1.7], [0, 0], [[-0.62, 1.07], [-2.24, 5.47]], True),
        # orthogonal branch with a small lambda: a small lifted coefficient
        (
            [0, 0.34, 1.19, 2.11, 2.28],
            [0, 0, 0, 0],
            [[0.55, -0.15, 1.55, -0.48], [0.47, 0.39, 1.04, -0.18],
             [0.27, 1.07, -0.17, -1.26], [0.58, 0.66, -1.07, -0.08]],
            True,
        ),
        # diagonalizable branch with three close lambdas
        (
            [0.32, 0.87, 2.29, 2.34, 2.41],
            [0.32 / 0.87, 0.32 / 2.29, 0.32 / 2.34, 0.32 / 2.41],
            [[-0.96, -0.06, 0.13, -0.28], [-1.72, 0.22, -0.23, 0.44],
             [-0.15, 0.05, -1.17, 0.22], [-0.73, -1.14, -0.42, -0.3]],
            False,
        ),
    ],
)
def test_recover_roundtrip_hard_cases(lam, kap, marking, orth):
    src = _cusp(lam, kap, np.array(marking), orthonormalized=orth)
    rec = recover_cusp_from_shape(shape_invariant(src, "closed"))
    assert are_conjugate(rec, src, tol=1e-6)


def test_recover_from_fitted_shape():
    # recovery works on the series-jet route's shapes at the default tolerances
    rng = np.random.default_rng(99)
    for n in (3, 4):
        for t in range(n + 1):
            c = random_cusp(rng, n, t=t)
            rec = recover_cusp_from_shape(shape_invariant(c, "fit"))
            assert are_conjugate(rec, c, tol=1e-6)


@pytest.mark.parametrize("k", [1e4, 3e4])
def test_ill_conditioned_forward_maps(k):
    # q of condition ~k^2 computes its det with roundoff ~eps cond(q) above
    # an absolute 1e-9; the forward maps must still construct and agree
    worst = 0.0
    for angle in (0.3, 0.7, 1.1):
        for orth in (False, True):
            for lam in ([0, 0.93, 1.7], [0, 0, 1.75], [0, 1, 2], [0.5, 1, 1.7]):
                lam = np.asarray(lam, dtype=float)
                kap = lam[0] / lam[1:] if lam[0] > 0 else np.zeros(2)
                c = _cusp(lam, kap, _ill_marking(k, angle), orthonormalized=orth)
                complete_invariant(c)
                worst = max(worst, shape_invariant(c, "fit").distance(shape_invariant(c, "closed")))
    assert worst < 1e-7
