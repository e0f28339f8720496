import gc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from gencusp import linalg
from gencusp.linalg import (
    check_symmetric,
    check_unimodular,
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


def test_expm_refuses_a_stack():
    # one square matrix in, one out: a stack is exponentiated member by member
    stack = np.stack([np.zeros((4, 4)), np.diag([3.0, 2.0, 1.0], 1)])
    for bad in (stack, stack[None], stack[:0], np.zeros(4), np.float64(1.0)):
        with pytest.raises(ValueError, match="square matrix"):
            expm(bad)


def test_expm_caps_a_norm_that_overflows():
    # each entry is finite, the row sum is not: a nilpotent matrix still gets
    # I + N, and one whose exponential overflows raises
    n = np.zeros((3, 3))
    n[0, 1:] = 1e308
    assert np.array_equal(expm(n), np.eye(3) + n)
    with pytest.raises(OverflowError):
        expm(np.array([[1e308, 1e308], [0.0, 0.0]]))


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


def test_unimodular():
    q = unimodular(np.diag([4.0, 1.0]))
    assert abs(np.linalg.det(q) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        unimodular(np.diag([-1.0, 1.0]))
    # the scaled form is checked: positive definite, and finite after a
    # scale s = det^(-1/2) ~ 1e6 that takes 1e308 past the float range
    assert not q.flags.writeable and linalg.check_unimodular(q, "q") is q
    with pytest.raises(ValueError, match="form must be positive definite"):
        unimodular(np.diag([-1.0, -1.0]))
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        unimodular(np.diag([1e308, 1e-320]))


def test_nonzero_is_relative_on_magnitudes():
    assert list(nonzero([0.0, 1e-11, 2e-10, 1.0])) == [False, False, True, True]
    assert list(nonzero([1e-3, 1e8])) == [False, True]
    # a weight of size 1e-6 is nonzero; its squared dual norm would not be
    assert list(nonzero([1e-6, 2.0])) == [True, True]


def test_zero_and_slack_decisions_are_free_of_size():
    # nonzero and check_symmetric read no absolute size: s x has x's verdict
    # at every s > 0; a skew of 1e-12 against a largest entry of 3 is within
    # SLACK, one of 1e-11 is not
    mags = np.array([0.0, 1e-11, 2e-10, 1.0])
    near = np.array([[2.0, 1.0], [1.0 + 1e-12, 3.0]])
    far = np.array([[2.0, 1.0], [1.0 + 1e-11, 3.0]])
    for s in 10.0 ** np.arange(-300.0, 301.0, 50.0):
        assert list(nonzero(s * mags)) == [False, False, True, True]
        check_symmetric(s * near)
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric(s * far)


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


def test_check_unimodular_returns_a_validated_form_as_it_is(monkeypatch):
    q = check_unimodular(np.diag([4.0, 0.25]), "q")
    checked = []
    orig = linalg.check_symmetric
    monkeypatch.setattr(linalg, "check_symmetric", lambda m: checked.append(m) or orig(m))
    assert check_unimodular(q, "metric") is q
    assert checked == []
    # an equal form that did not come out of the check is checked in full,
    # and so is the validated one once it is writable again
    assert check_unimodular(q.copy(), "q") is not q
    q.setflags(write=True)
    assert check_unimodular(q, "q") is not q
    assert len(checked) == 2


def test_check_unimodular_checks_a_form_altered_behind_the_flag():
    # made writable, altered and set read-only again, a validated form no
    # longer has the entries it was checked with, so it is checked in full
    q = check_unimodular(np.diag([4.0, 0.25]), "q")
    q.setflags(write=True)
    q[0, 0] = -7.0
    q.setflags(write=False)
    with pytest.raises(ValueError, match="q must be positive definite"):
        check_unimodular(q, "q")


def test_check_unimodular_memo_holds_no_reference():
    q = check_unimodular(np.diag([4.0, 0.25]), "q")
    key, ref = (id(q), q.tobytes()), weakref.ref(q)
    assert linalg._VALIDATED.get(key) is q
    del q
    gc.collect()
    assert ref() is None
    assert key not in linalg._VALIDATED


def test_sqrt_forms():
    q = np.array([[2.0, 0.3], [0.3, 0.55]])
    root, inv_root, evals = sqrt_forms(q)
    assert maxerr(root @ root, q) < 1e-14
    assert maxerr(root @ inv_root, np.eye(2)) < 1e-14
    assert maxerr(evals, np.linalg.eigvalsh(q)) < 1e-15
    with pytest.raises(ValueError, match="not positive definite"):
        sqrt_forms(np.diag([1.0, -1.0]))


def test_newton_to_elementary_refuses_empty_or_stacked_input():
    # one row of power sums, of at least one entry
    with pytest.raises(ValueError):
        newton_to_elementary(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        newton_to_elementary([])
    with pytest.raises(ValueError):
        newton_to_elementary(np.ones((2, 3)))


def _newton_reference(row):
    """Newton's identities with the sign as the factor (-1)^(i-1)."""
    e = [1.0]
    for k in range(1, len(row) + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1.0) ** (i - 1) * e[k - i] * row[i - 1]
        e.append(acc / k)
    return e[1:]


def test_newton_to_elementary_matches_the_signed_factor_form_bit_for_bit():
    rng = np.random.default_rng(17)
    for m in range(1, 9):
        # mixed signs and magnitudes 1e-6 .. 1e6, and exact zeros of both signs
        p = rng.standard_normal((40, m)) * 10.0 ** rng.uniform(-6, 6, (40, m))
        p[0] = 0.0
        p[1] = -0.0
        p[2, ::2] = -0.0
        for row in p:
            ref = np.array(_newton_reference(row.tolist()))
            assert newton_to_elementary(row).tobytes() == ref.tobytes()


def test_check_symmetric_returns_the_bits_of_the_symmetrized_form():
    rng = np.random.default_rng(18)
    for m in range(1, 8):
        a = rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-3, 3)
        exact = a + a.T
        near = exact + 1e-14 * np.triu(rng.standard_normal((m, m)), 1)
        signed = np.zeros((m, m))
        signed[np.triu_indices(m, 1)] = -0.0  # 0.0 below, -0.0 above
        both = np.full((m, m), -0.0)  # bitwise symmetric signed zeros
        for q in (exact, near, signed, both, np.diag(rng.uniform(0.1, 2.0, m))):
            got = check_symmetric(q)
            assert got.tobytes() == (0.5 * (q + q.T)).tobytes()
            assert got is not q


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forms_must_be_finite(bad):
    q = np.eye(3)
    q[0, 2] = q[2, 0] = bad
    for check in (check_symmetric, unimodular, lambda m: check_unimodular(m, "q")):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            check(q)
    # a non-finite diagonal entry, or one entry off the symmetric pair
    q = np.eye(3)
    q[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        check_unimodular(q, "q")
    q = np.eye(3)
    q[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        check_symmetric(q)
