import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from gencusp.linalg import (
    check_unimodular,
    cholesky_upper,
    expm,
    f_k,
    g_surface,
    h_log,
    maxerr,
    newton_to_elementary,
    nonzero,
    sqrt_forms,
    unimodular,
)


def test_expm_zero_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    assert maxerr(expm(np.diag([1.0, 2.0])), np.diag([np.e, np.e ** 2])) < 1e-15


def test_expm_nilpotent_shift_exact():
    # truncated series oracle: N^3 = 0 so exp(N) = I + N + N^2/2 exactly
    n = np.zeros((3, 3))
    n[0, 1] = n[1, 2] = 1.0
    assert np.array_equal(expm(n), np.eye(3) + n + n @ n / 2.0)


def test_expm_matches_scipy_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(2, 8))
        m = rng.standard_normal((k, k)) * rng.uniform(0.1, 10)
        assert maxerr(expm(m), scipy.linalg.expm(m)) < 1e-11


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(OverflowError):
        expm(np.diag([800.0, 0.0]))


def test_f_k_anchors():
    assert f_k(1, 0.0, 2.5) == 2.5
    assert f_k(2, 0.0, 3.0) == 4.5
    assert abs(f_k(1, 1.0, 1.0) - (np.e - 1)) < 1e-15
    assert abs(f_k(0, 2.0, 3.0) - np.exp(6.0)) < 1e-9
    with pytest.raises(ValueError):
        f_k(3, 1.0, 1.0)


@given(st.floats(-1e-3, 1e-3), st.floats(-10, 10))
@settings(max_examples=300, deadline=None)
def test_f_k_series_branch_continuity(s, t):
    for k in (1, 2):
        bound = abs(s) * abs(t) ** (k + 1) * np.exp(abs(s * t)) + 1e-13
        assert abs(f_k(k, s, t) - f_k(k, 0.0, t)) <= bound


@given(st.floats(0, 3), st.floats(-0.3, 5))
@settings(max_examples=200, deadline=None)
def test_h_g_invert_f1_and_match_f2(ell, x):
    # h inverts x = f_1(ell, v); g(ell, x) = f_2(ell, h(ell, x))
    v = h_log(ell, x)
    assert abs(f_k(1, ell, v) - x) < 1e-9 * max(1.0, abs(x))
    assert abs(g_surface(ell, x) - f_k(2, ell, v)) < 1e-9


def test_newton_identity_examples():
    assert maxerr(newton_to_elementary([2.0, 2.0]), [2.0, 1.0]) < 1e-15
    assert maxerr(newton_to_elementary([5.0, 13.0]), [5.0, 6.0]) < 1e-15
    assert maxerr(newton_to_elementary([3.5]), [3.5]) < 1e-15


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=7))
@settings(max_examples=200, deadline=None)
def test_newton_identities_match_poly_expansion(roots):
    roots = np.array(roots)
    p = [float(np.sum(roots ** k)) for k in range(1, len(roots) + 1)]
    e = newton_to_elementary(p)
    coeffs = np.poly(roots)
    expected = [(-1.0) ** k * coeffs[k] for k in range(1, len(roots) + 1)]
    assert maxerr(e, expected) < 1e-8


def test_cholesky_examples():
    assert maxerr(cholesky_upper(np.eye(3)), np.eye(3)) == 0.0
    assert maxerr(cholesky_upper(np.diag([4.0, 1.0])), np.diag([2.0, 1.0])) < 1e-15
    a = cholesky_upper(np.array([[2.0, 1.0], [1.0, 1.0]]))
    expected = np.array([[np.sqrt(2), 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]])
    assert maxerr(a, expected) < 1e-15


def test_cholesky_roundtrip_random_upper():
    rng = np.random.default_rng(1)
    for _ in range(40):
        k = int(rng.integers(1, 7))
        a = np.triu(rng.standard_normal((k, k)))
        np.fill_diagonal(a, rng.uniform(0.4, 2.0, k))
        assert maxerr(cholesky_upper(a.T @ a), a) < 1e-10


def test_cholesky_reports_failing_pivot():
    with pytest.raises(ValueError, match="pivot 1"):
        cholesky_upper(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_unimodular():
    q = unimodular(np.diag([4.0, 1.0]))
    assert abs(np.linalg.det(q) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        unimodular(np.diag([-1.0, 1.0]))


def test_nonzero_is_relative_on_magnitudes():
    assert list(nonzero([0.0, 1e-11, 2e-10, 1.0])) == [False, False, True, True]
    assert list(nonzero([1e-3, 1e8])) == [False, True]
    # a weight of size 1e-6 is nonzero; its squared dual norm would not be
    assert list(nonzero([1e-6, 2.0])) == [True, True]


def test_check_unimodular():
    q = check_unimodular(np.diag([4.0, 0.25]), "q")
    assert not q.flags.writeable
    with pytest.raises(ValueError, match="q must be unimodular"):
        check_unimodular(np.diag([4.0, 1.0]), "q")
    with pytest.raises(ValueError, match="metric must be positive definite"):
        check_unimodular(np.diag([-1.0, -1.0]), "metric")
    # condition 9e8: the computed det misses 1 by more than 1e-9, within
    # the roundoff that cond(q) explains
    r = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    m = r @ np.diag([1.0, 3e4]) @ r.T
    q = unimodular(m.T @ m)
    assert abs(np.linalg.det(q) - 1.0) > 1e-8
    check_unimodular(q, "q")


def test_sqrt_forms():
    q = np.array([[2.0, 0.3], [0.3, 0.55]])
    root, inv_root, evals = sqrt_forms(q)
    assert maxerr(root @ root, q) < 1e-14
    assert maxerr(root @ inv_root, np.eye(2)) < 1e-14
    assert maxerr(evals, np.linalg.eigvalsh(q)) < 1e-15
    with pytest.raises(ValueError, match="not positive definite"):
        sqrt_forms(np.diag([1.0, -1.0]))
