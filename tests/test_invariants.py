import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import gencusp
from gencusp.cusp_groups import (
    BlownUpWeylPoint,
    PsiParameter,
    build_marked_cusp,
    preferred_sqrt,
    psi_to_lambda,
)
from gencusp.invariants import (
    CharacterData,
    CompleteInvariant,
    MiddleWeightTie,
    are_conjugate,
    complete_invariant,
    eta_distance,
    frame_to_weight_data,
    horosphere_metric,
    linear_sum_assignment,
    marked_psi_normal_form,
    middle_weight,
    projectivize_character,
    realize_weight_data,
    recover_psi_from_invariant,
    stratum_dim,
    unprojectivize_character,
    varpi_closed_form,
    weight_data,
    weights_equation_residual,
    weights_of,
    _match_multisets,
)
from gencusp.linalg import maxerr, unimodular
from gencusp.sampling import random_blownup_point, random_cusp, random_marking
from gencusp.shape import fit_height_jet


def _cusp(lam, kap, marking=None, **kw):
    p = BlownUpWeylPoint(len(lam), np.asarray(lam, float), np.asarray(kap, float))
    return build_marked_cusp(p, marking, **kw)


def test_weights_examples():
    w = weights_of(_cusp([0, 1, 2], [0, 0])).weights
    expected = np.array([[0, 0], [0, 0], [0, 2], [1, 0.0]])
    assert maxerr(w, expected) < 1e-14

    w = weights_of(_cusp([0, 0, 0], [0.3, 0.8])).weights
    assert np.max(np.abs(w)) == 0.0

    w = weights_of(_cusp([1, 1, 1], [1, 1])).weights
    expected = np.array([[-1, -1], [0, 0], [0, 1], [1, 0.0]])
    assert maxerr(w, expected) < 1e-14


def test_weights_newton_cross_check_trips_on_corruption():
    c = _cusp([0, 1, 2], [0, 0])
    good = weights_of(c)
    assert good.chi(np.zeros(2)) == 4.0
    # planting a below-diagonal entry desynchronizes the eigenvalues from the
    # diagonal reading, which the power-sum reconstruction detects
    bad = [g.copy() for g in c.generators]
    bad[0][1, 0] = 1.5
    object.__setattr__(c, "generators", tuple(bad))
    with pytest.raises(ValueError, match="cross-check"):
        weights_of(c)


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


def test_realize_rejects_bad_data():
    # varpi > 0 together with a zero weight is unrealizable: the zero weight
    # pairs to 0, not -varpi, with the others
    wd = weight_data(_cusp([1, 1, 1], [1, 1]))
    broken = type(wd)(np.vstack([wd.weights[:-1], np.zeros(2)]), wd.metric)
    with pytest.raises(ValueError, match="weights equation residual"):
        realize_weight_data(broken)


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


def test_projectivize_and_middle_weight():
    cd = weights_of(_cusp([0, 1, 2], [0, 0]))
    shifted, mu = projectivize_character(cd)
    assert maxerr(np.sum(shifted.weights, axis=0), np.zeros(2)) < 1e-14
    back = unprojectivize_character(shifted)
    assert _match_multisets(back.weights, cd.weights) < 1e-12
    # multiplicity >= 2 makes the zero weight middle
    w = np.array([[0.0, 0], [0, 0], [1, 0], [0, 2]])
    assert maxerr(middle_weight(w), np.zeros(2)) < 1e-14
    with pytest.raises(MiddleWeightTie):
        middle_weight(np.array([[1.0, 0], [-1.0, 0], [0.5, 0], [-0.5, 0.0]]))


def test_stratum_dims():
    assert [stratum_dim(3, t) for t in range(4)] == [2, 4, 5, 6]
    for n in range(2, 7):
        assert stratum_dim(n, n) == n * n - n
    with pytest.raises(ValueError):
        stratum_dim(3, 4)


def test_character_data_requires_zero_weight():
    with pytest.raises(ValueError):
        CharacterData(np.array([[1.0, 0.0], [0.0, 1.0]]))


def _weight_like_cost(rng, k):
    # weight multisets: repeated zero rows, and a column shared by all but
    # tiny perturbations, so many matchings tie or nearly tie
    d = int(rng.integers(1, 7))
    a = rng.standard_normal((k, d))
    a[rng.integers(0, k, 2)] = 0.0
    b = a[rng.permutation(k)] + rng.standard_normal((k, d)) * 10.0 ** -rng.integers(3, 15)
    b[:, 0] = b[rng.integers(0, k), 0]
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


def test_eta_distance_rejects_nan_weight():
    # a NaN covector must not read as a match (nor hang the solver)
    eta = complete_invariant(_cusp([0.5, 1, 2], [0.5, 0.25]))
    w = np.array(eta.character.weights)
    w[0] = np.nan
    broken = CompleteInvariant(CharacterData(w), eta.metric)
    for pair in ((broken, eta), (eta, broken)):
        with pytest.raises(ValueError):
            eta_distance(*pair)


def test_cli_import_loads_no_scipy():
    src = str(Path(gencusp.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, gencusp.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
