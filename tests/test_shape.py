import numpy as np
import pytest
import scipy.linalg

from gencusp.cusp_groups import (
    BlownUpWeylPoint,
    PsiParameter,
    _calibration_frame,
    build_marked_cusp,
    psi_to_lambda,
)
from gencusp.invariants import (
    are_conjugate,
    complete_invariant,
    marked_psi_normal_form,
    realize_weight_data,
    recover_psi_from_invariant,
    weight_data,
)
from gencusp.linalg import check_symmetric, expm, maxerr, unimodular_scale
from gencusp.sampling import random_blownup_point, random_cusp, random_marking
from gencusp.shape import (
    CubicPoly,
    ShapeInvariant,
    cubic_from_weights,
    fit_height_jet,
    height_at,
    height_jet,
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


@pytest.mark.parametrize("exps", [(1, 1, 1), (3,), (4, -1), (3, -1), (2, 0)])
def test_from_monomials_refuses_a_key_that_is_no_cubic_monomial(exps):
    # a key of the wrong length is refused as a ValueError, not an IndexError
    with pytest.raises(ValueError, match="is not of degree 3 in 2 variables"):
        CubicPoly.from_monomials(2, {exps: 1.0})


def _canonical_reference(q_raw, c_raw):
    """``ShapeInvariant.canonical``'s own scaling, before it called
    ``linalg.unimodular_scale``: symmetrize, then det^(-1/dim)."""
    q_raw = check_symmetric(q_raw)
    s = np.linalg.det(q_raw) ** (-1.0 / q_raw.shape[0])
    return s * q_raw, c_raw.scaled(s)


def test_canonical_matches_the_inline_scaling_bit_for_bit():
    rng = np.random.default_rng(25)
    for n in range(3, 8):
        for t in range(n + 1):
            c = random_cusp(rng, n, t=t, orthonormalized=bool(t % 2))
            q_raw, c_raw = fit_height_jet(c)
            q_raw = q_raw * 10.0 ** rng.uniform(-3.0, 3.0)
            # and a copy symmetric only to within check_symmetric's slack,
            # which is relative to q's largest entry
            skew = q_raw + 1e-14 * np.abs(q_raw).max() * np.triu(
                rng.standard_normal((n - 1, n - 1)), 1)
            for q in (q_raw, skew):
                got = ShapeInvariant.canonical(q, c_raw)
                q_ref, c_ref = _canonical_reference(q, c_raw)
                assert got.q.tobytes() == q_ref.tobytes()
                assert got.c.tensor.tobytes() == c_ref.tensor.tobytes()
                assert not got.q.flags.writeable


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


def test_closed_shape_shares_the_cusp_metric():
    rng = np.random.default_rng(20)
    for n in range(3, 8):
        c = random_cusp(rng, n)
        assert shape_invariant(c, "closed").q is complete_invariant(c).metric
        # either call order
        c = random_cusp(rng, n)
        q = shape_invariant(c, "closed").q
        assert complete_invariant(c).metric is q
        assert shape_invariant(c, "closed").q is q


def _closed_route_cases():
    rng = np.random.default_rng(21)
    for n in range(3, 8):
        for t in range(n + 1):
            for orth in (False, True):
                for _ in range(3):
                    yield random_cusp(rng, n, t=t, orthonormalized=orth)
    for angle in (0.3, 0.7, 1.1):
        for lam in ([0, 0.93, 1.7], [0, 0, 1.75], [0, 1, 2], [0.5, 1, 1.7]):
            lam = np.asarray(lam, dtype=float)
            kap = lam[0] / lam[1:] if lam[0] > 0 else np.zeros(2)
            for orth in (False, True):
                yield _cusp(lam, kap, _ill_marking(1e3, angle), orthonormalized=orth)


def test_closed_cubic_matches_the_composed_tensor_route():
    # the reference is the former closed route: the metric as
    # M^T (I + kappa kappa^T) M and the calibration tensor composed with the
    # effective marking M by compose_linear, both scaled by canonical.  The
    # closed route reads the calibration frame C = [kappa^T; I] M instead:
    # the metric is C^T C and the cubic cubes C's rows once.
    eps = np.finfo(float).eps
    for c in _closed_route_cases():
        p, m = c.params, c.effective_marking
        n, dim = p.n, p.n - 1
        kap = np.abs(p.kappa)
        raw_ref = m.T @ (np.eye(dim) + np.outer(p.kappa, p.kappa)) @ m
        covs = np.vstack([np.eye(dim), p.kappa])
        coeffs = np.concatenate([p.lam[1:] / 3.0, [-p.lam[0] / 3.0]])
        ref = ShapeInvariant.canonical(
            raw_ref, CubicPoly.from_covector_cubes(covs, coeffs).compose_linear(m))
        got = shape_invariant(c, "closed")
        # The raw metrics.  Both sum the same products over absolute values,
        # x = |M|^T (I + |kappa| |kappa|^T) |M|: the reference rounds
        # kappa kappa^T, adds I and takes two dim-term dots, the frame takes
        # a dim-term dot for kappa^T M and an n-term dot for C^T C.  Each is
        # within gamma_(2 dim + 2) x of the exact Gram, so they differ by at
        # most (4 dim + 4) eps x, with room for second-order terms.
        frame = _calibration_frame(p, m.T)
        raw_got = check_symmetric(frame @ frame.T)
        x = np.abs(m).T @ (np.eye(dim) + np.outer(kap, kap)) @ np.abs(m)
        raw_bound = (4 * dim + 6) * eps * x
        assert np.all(np.abs(raw_got - raw_ref) <= raw_bound)
        # The det-1 scales s = det^(-1/dim).  Each det is the det of its
        # Gram perturbed by the LU's backward error, at most
        # gamma_dim P |L| |U| (Higham, Thm 9.3), times the rounding of the
        # product of dim pivots; the power rounds once more.  To first order
        # log det moves by sum |G^-1| o |dG|^T under dG, so the two scales
        # differ by at most this over dim, relative.  The two Grams' LUs
        # agree to first order: twice the reference's bound covers both.
        pmat, low, up = scipy.linalg.lu(raw_ref)
        lu_bound = (dim + 1) * eps * (pmat @ np.abs(low) @ np.abs(up))
        dlogdet = np.sum(np.abs(np.linalg.inv(raw_ref)) * (raw_bound + 2 * lu_bound).T)
        s_ref = unimodular_scale(raw_ref, "q")[1]
        ds = 1.01 * s_ref * (dlogdet / dim + (2 * dim + 2) * eps)
        q_bound = s_ref * (raw_bound + 2 * eps * x) + ds * x
        assert np.all(np.abs(got.q - ref.q) <= q_bound)
        # The cubics.  Both sum products of four factors over the n
        # covectors: the reference after a raw tensor, three dim-term passes
        # and three symmetrizations, the closed route after dim-term sums for
        # C's rows and one symmetrization.  So at one scale they differ by at
        # most this many roundings of the same sum over absolute values,
        # sum_a |coeff_a| (|xi_a| |M|)^3; the two scales add ds times it.
        xm = np.abs(covs) @ np.abs(m)
        cubes = np.einsum("a,ai,aj,ak->ijk", np.abs(coeffs), xm, xm, xm)
        budget = (2 * n + 6 * dim + 27) * eps
        bound = budget * s_ref * cubes + ds * cubes
        assert np.all(np.abs(got.c.tensor - ref.c.tensor) <= bound)


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


def _compose_reference(t, a):
    """The frame change as one six-index loop, the form compose_linear
    replaced."""
    return np.einsum("ijk,ia,jb,kc->abc", t, a, a, a)


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("cond", [1.0, 1e2, 1e4])
def test_compose_linear_matches_six_index_reference(d, cond):
    rng = np.random.default_rng(d)
    eps = np.finfo(float).eps
    for _ in range(5):
        c = CubicPoly(d, rng.standard_normal((d, d, d)))
        q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = q1 @ np.diag(np.logspace(0.0, np.log10(cond), d)) @ q2
        got = c.compose_linear(a)
        # both orders sum products of four factors: the d^3-term loop and
        # three d-term passes bound their difference by this many roundings
        # of the same sum taken over absolute values
        budget = (d ** 3 + 3 * d + 6) * eps
        bound = budget * _compose_reference(np.abs(c.tensor), np.abs(a))
        assert np.all(np.abs(got.tensor - _compose_reference(c.tensor, a)) <= bound)
        # pointwise, c(A v) against the composed cubic at v, within the same
        # budget over |c| at |A| |v|
        v = rng.standard_normal((8, d))
        scale = np.abs(v) @ np.abs(a).T
        bound = budget * np.einsum("ijk,ni,nj,nk->n", np.abs(c.tensor), scale, scale, scale)
        assert np.all(np.abs(got(v) - c(v @ a.T)) <= bound)


def _six_transpose_mean(t):
    """The symmetrization CubicPoly replaced: the six index transposes
    summed one after another, then divided by 6."""
    return (
        t
        + t.transpose(0, 2, 1)
        + t.transpose(1, 0, 2)
        + t.transpose(1, 2, 0)
        + t.transpose(2, 0, 1)
        + t.transpose(2, 1, 0)
    ) / 6.0


@pytest.mark.parametrize("d", range(1, 7))
def test_cubic_symmetrization_matches_the_transpose_chain_bit_for_bit(d):
    # entries over 300 decades, so that the order of the five additions
    # shows in the rounding, and zeros of either sign, whose sum's sign
    # depends on where the sum starts
    rng = np.random.default_rng(60 + d)
    tensors = [np.full((d,) * 3, -0.0), np.zeros((d,) * 3)]
    for _ in range(60):
        t = rng.standard_normal((d,) * 3) * 10.0 ** rng.uniform(-150.0, 150.0, (d,) * 3)
        zeros = rng.random(t.shape) < 0.3
        t[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        tensors += [t, t.transpose(2, 0, 1)]
    for t in tensors:
        got = CubicPoly(d, t).tensor
        assert got.shape == (d,) * 3 and not got.flags.writeable
        assert got.tobytes() == _six_transpose_mean(t).tobytes()


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


def test_equal_parameter_model_is_harmonic():
    s = shape_invariant(_cusp([1, 1, 1], [1, 1]), "closed")
    assert np.linalg.norm(radial_projection(s.q, s.c)) < 1e-12


def test_affine_sphere_predicate():
    assert is_affine_sphere(_cusp([0, 0, 0], [0, 0]))
    assert is_affine_sphere(_cusp([1, 1, 1], [1, 1]))
    assert not is_affine_sphere(_cusp([0, 1, 2], [0, 0]))
    # kappa < 1 with equal positive lambda tail is not an affine sphere
    assert not is_affine_sphere(_cusp([0.5, 1, 1], [0.5, 0.5]))


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
    q, c, _ = restricted_diag_calibration(PsiParameter(3, np.ones(3)))
    found = sphere_local_maxima(q, c)
    assert len(found.points) == 3
    assert maxerr(found.values, np.full(3, (1 / 3.0) / np.sqrt(2 / 3.0) / 6.0)) < 1e-9
    gram = found.points @ q @ found.points.T
    off = gram[~np.eye(3, dtype=bool)]
    assert maxerr(off, np.full(6, -0.5)) < 1e-9


_PSI4 = PsiParameter(4, np.array([1.3, 0.7, 0.5, 1.1]), ordered=False)


def test_sphere_maxima_do_not_depend_on_the_cubic_scale():
    # the fiber is a cone: s c is a shape whenever c is, with the same
    # maxima and s times their values
    q, c, _ = restricted_diag_calibration(_PSI4)
    base = sphere_local_maxima(q, c)
    assert len(base.points) == 4
    for s in 10.0 ** np.random.default_rng(0).uniform(-9.0, 9.0, 12):
        found = sphere_local_maxima(q, c.scaled(s))
        assert len(found.points) == 4
        assert np.max(np.abs(found.points - base.points)) < 1e-12
        assert np.max(np.abs(found.values / s - base.values) / base.values) < 1e-12


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("eps", [1e-5, 1e-6])
def test_sphere_maxima_keep_a_weakly_curved_maximum(m, eps):
    # y1^3 + (3/2 - eps/2) y1 y2^2 has a strict maximum at e1 whose projected
    # Hessian is -eps along e2 and -3 along the rest: one weak direction
    # does not make a maximum degenerate, at any scale of the cubic
    mono = {(3,) + (0,) * (m - 1): 1.0, (1, 2) + (0,) * (m - 2): 1.5 - eps / 2}
    c = CubicPoly.from_monomials(m, mono)
    for s in (1e-6, 1.0, 1e6):
        found = sphere_local_maxima(np.eye(m), c.scaled(s))
        assert len(found.points) == 1
        assert maxerr(np.abs(found.points[0]), np.eye(m)[0]) < 1e-9
        assert abs(found.values[0] / s - 1.0) < 1e-12


def test_height_jet_rejects_a_degenerate_tangent_frame():
    gens = _cusp([0, 1, 2], [0, 0]).generators
    with pytest.raises(ValueError, match="degenerate tangent frame"):
        height_jet(np.stack([gens[0], 2.0 * gens[0]]), np.eye(4)[3])


def test_height_jet_does_not_depend_on_the_generator_scale():
    # the frame test is a ratio of singular values: s G has the jets of G,
    # times s^(n+1) for q and s^(n+2) for c
    gens, base = _cusp([0.5, 1, 2], [0.5, 0.25]).generators, np.eye(4)[3]
    q, c = height_jet(gens, base)
    for s in (1e-13, 1e13):
        qs, cs = height_jet(s * gens, base)
        assert maxerr(qs / s ** 4, q) < 1e-12
        assert maxerr(cs.tensor / s ** 5, c.tensor) < 1e-12


def test_sphere_maxima_are_empty_only_for_the_zero_cubic():
    # the zero cubic is constant on the sphere: no maxima
    out = sphere_local_maxima(np.eye(2), CubicPoly.zero(2))
    assert out.points.shape == (0, 2) and out.values.shape == (0,)
    # any other: s c has c's maxima and s times their values, at any size s
    q, c, _ = restricted_diag_calibration(_PSI4)
    ref = sphere_local_maxima(q, c)
    assert len(ref.points) == 4
    for s in (1e-11, 1e-200, 1e100):
        out = sphere_local_maxima(q, c.scaled(s))
        assert out.points.shape == ref.points.shape
        assert np.abs(out.points - ref.points).max() <= 1e-12
        assert np.all(np.abs(out.values / s - ref.values) <= 1e-12 * np.abs(ref.values))


def test_sphere_maxima_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="q and c dimensions differ"):
        sphere_local_maxima(np.eye(3), CubicPoly.zero(2))


_ILL_Q_FAMILIES = [[0, 0.93, 1.7, 2.6, 3.3], [0, 0, 1.75, 2.5, 3.2], [0, 1, 2, 3, 4]]


@pytest.mark.parametrize(
    "n, family, angle, k, seed",
    [
        pytest.param(n, fam, angle, 1e3, 0, id="%d-family%d-%s" % (n, i, angle))
        for n in (3, 4, 5)
        for i, fam in enumerate(_ILL_Q_FAMILIES)
        for angle in (0.3, 0.7, 1.1)
    ]
    # at k = 3e3 the frame change leaves t with a noise singular value of
    # 6e-8, which made a spurious maximum on the degenerate critical set
    + [
        pytest.param(3, _ILL_Q_FAMILIES[1], 0.3, 3e3, seed, id="3-family1-0.3-k3e3-seed%d" % seed)
        for seed in range(4)
    ],
)
def test_sphere_maxima_ill_conditioned_q(n, family, angle, k, seed):
    # marking R diag(k^-1/2, 1, ..., k^1/2) R^T, so cond q = k^2; the
    # kappa = 0 model's positive maxima are lambda_i / 3, lambda_i > 0
    m = n - 1
    ones = np.ones((m, m))
    r = expm(angle * (np.triu(ones, 1) - np.tril(ones, -1)))
    d = np.ones(m)
    d[0], d[-1] = k ** -0.5, k ** 0.5
    lam = np.asarray(family[:n], dtype=float)
    s = shape_invariant(_cusp(lam, np.zeros(m), r @ np.diag(d) @ r.T), "closed")
    found = sphere_local_maxima(s.q, s.c, seed=seed)
    vals = np.sort(found.values[found.values > 0])
    expected = np.sort(lam[lam > 0] / 3.0)
    assert len(vals) == len(expected)
    assert np.max(np.abs(vals - expected)) < 1e-6


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


@pytest.mark.parametrize("s", [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6])
def test_inverse_maps_are_free_of_the_size_of_lambda(s):
    # lambda scaled by s scales the weights and the cubic by s and leaves
    # the metric alone: all three inverse maps round-trip the same cusps at
    # every s, psi relative to its largest entry, the cusps by are_conjugate
    # (relative to the weights' own size)
    rng = np.random.default_rng(31)
    for n in range(3, 8):
        for t in range(n + 1):
            p = random_blownup_point(rng, n, t)
            c = build_marked_cusp(BlownUpWeylPoint(n, s * p.lam, p.kappa),
                                  random_marking(rng, n - 1))
            ref = marked_psi_normal_form(c.params).psi
            got = recover_psi_from_invariant(complete_invariant(c)).psi
            assert np.abs(got - ref).max() <= 1e-7 * np.abs(ref).max()
            assert are_conjugate(realize_weight_data(weight_data(c)), c, tol=1e-6)
            assert are_conjugate(recover_cusp_from_shape(shape_invariant(c, "closed")), c, tol=1e-6)


def test_recover_a_tiny_cubic():
    # the shapes of a cusp form a ray: the cubic scaled by 1e-8 is the shape
    # of the cusp with lambda scaled by 1e-8, of the same type, and not the
    # standard cusp's zero cubic
    rng = np.random.default_rng(32)
    for n in range(3, 8):
        for t in range(1, n + 1):
            p = random_blownup_point(rng, n, t)
            b = random_marking(rng, n - 1)
            shape = shape_invariant(build_marked_cusp(p, b), "closed")
            rec = recover_cusp_from_shape(ShapeInvariant(shape.q, shape.c.scaled(1e-8)))
            assert rec.params.type_t == t
            small = build_marked_cusp(BlownUpWeylPoint(n, 1e-8 * p.lam, p.kappa), b)
            assert are_conjugate(rec, small, tol=1e-6)


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
