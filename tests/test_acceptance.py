"""Acceptance suite: one test per numbered criterion, each at its stated
tolerance, printing one pass/fail line (run with -s or -rA to see them).

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

from gencusp.cusp_groups import (
    BlownUpWeylPoint,
    PsiParameter,
    build_marked_cusp,
    hypersurface_F,
    orbit_point,
    rho,
)
from gencusp.invariants import (
    are_conjugate,
    complete_invariant,
    limit_demo_rows,
    marked_psi_normal_form,
    realize_weight_data,
    recover_psi_from_invariant,
    stratum_dim,
    weight_data,
)
from gencusp.linalg import maxerr, unimodular
from gencusp.sampling import random_blownup_point, random_cusp, random_marking
from gencusp import dim3
from gencusp import shape as shape_mod
from gencusp.verify import (
    restricted_diag_calibration,
    surface_height_3d,
    surface_height_printed_row,
    varpi_closed_form,
    weights_equation_residual,
)

DIMS = (3, 4, 5)


def _report(num, name, passed, detail=""):
    line = "ACCEPTANCE %2d %-28s %s %s" % (num, name, "PASS" if passed else "FAIL", detail)
    print(line)
    assert passed, line


def test_criterion_01_character_vs_exponential_oracle():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice(DIMS))
        c = random_cusp(rng, n)
        v = rng.uniform(-1.5, 1.5, n - 1)
        tr = float(np.trace(rho(c, v)))
        chi = complete_invariant(c).character.chi(v)
        worst = max(worst, abs(tr - chi) / max(1.0, abs(chi)))
    elapsed = time.monotonic() - t0
    _report(1, "character-closed-form", worst <= 1e-8 and elapsed < 10.0,
            "max %.2e, %.1fs" % (worst, elapsed))


def test_criterion_02_metric_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice(DIMS))
        p = random_blownup_point(rng, n)
        b = random_marking(rng, n - 1)
        c = build_marked_cusp(p, b, orthonormalized=False)
        fitted = unimodular(shape_mod.fit_height_jet(c)[0])
        kap = p.kappa
        closed = unimodular(b.T @ (np.eye(n - 1) + np.outer(kap, kap)) @ b)
        worst = max(worst, maxerr(fitted, closed))
    _report(2, "horosphere-metric-identity", worst <= 1e-10, "max %.2e" % worst)


def test_criterion_03_weights_equation_and_varpi():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice(DIMS))
        c = random_cusp(rng, n)
        wd = weight_data(c)
        worst = max(worst, weights_equation_residual(wd))
        worst = max(worst, abs(wd.varpi - varpi_closed_form(c)))
    anchor = weight_data(build_marked_cusp(
        BlownUpWeylPoint(3, np.ones(3), np.ones(2)))).varpi
    anchor_err = abs(anchor - 3 ** -0.5)
    _report(3, "weights-equation", worst <= 1e-8 and anchor_err <= 1e-10,
            "max %.2e, anchor %.2e" % (worst, anchor_err))


def test_criterion_04a_psi_roundtrip():
    rng = np.random.default_rng(104)
    t0 = time.monotonic()
    worst = 0.0
    for n in DIMS:
        for t in range(n + 1):
            for _ in range(5):
                p = random_blownup_point(rng, n, t=t)
                c = build_marked_cusp(p, random_marking(rng, n - 1))
                rec = recover_psi_from_invariant(complete_invariant(c))
                worst = max(worst, maxerr(rec.psi, marked_psi_normal_form(p).psi))
    elapsed = time.monotonic() - t0
    _report(4, "psi-recovery (4a)", worst <= 1e-7 and elapsed < 60.0,
            "max %.2e, %.1fs" % (worst, elapsed))


def test_criterion_04b_weight_data_roundtrip():
    rng = np.random.default_rng(105)
    t0 = time.monotonic()
    failures = 0
    for _ in range(100):
        n = int(rng.choice(DIMS))
        c = random_cusp(rng, n)
        if not are_conjugate(realize_weight_data(weight_data(c)), c, tol=1e-6):
            failures += 1
    elapsed = time.monotonic() - t0
    _report(4, "weight-realization (4b)", failures == 0 and elapsed < 60.0,
            "%d failures, %.1fs" % (failures, elapsed))


def test_criterion_04c_shape_roundtrip():
    rng = np.random.default_rng(106)
    t0 = time.monotonic()
    failures = 0
    for _ in range(100):
        n = int(rng.integers(3, 8))
        c = random_cusp(rng, n)
        s = shape_mod.shape_invariant(c, "closed")
        try:
            rec = shape_mod.recover_cusp_from_shape(s)
            ok = are_conjugate(rec, c, tol=1e-6)
        except ValueError:
            ok = False
        failures += not ok
    elapsed = time.monotonic() - t0
    _report(4, "shape-recovery (4c)", failures == 0 and elapsed < 60.0,
            "%d failures, %.1fs" % (failures, elapsed))


def test_criterion_05_shape_triple_route():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice((3, 4)))
        c = random_cusp(rng, n)
        s_fit = shape_mod.shape_invariant(c, "fit")
        s_closed = shape_mod.shape_invariant(c, "closed")
        s_weights = shape_mod.cubic_from_weights(weight_data(c))
        worst = max(worst, s_fit.distance(s_closed), s_weights.distance(s_closed),
                    s_fit.distance(s_weights))
    _report(5, "shape-triple-route", worst <= 1e-10, "max %.2e" % worst)


def test_criterion_06_local_maxima_anchors():
    q, c, _ = restricted_diag_calibration(PsiParameter(3, np.ones(3)))
    found = shape_mod.sphere_local_maxima(q, c)
    ok = len(found.points) == 3
    gram = found.points @ q @ found.points.T
    off = gram[~np.eye(3, dtype=bool)]
    ok &= bool(np.max(np.abs(off + 0.5)) <= 1e-6)
    ok &= bool(np.max(np.abs(found.values - 0.068041)) <= 1e-5)

    s = shape_mod.shape_invariant(
        build_marked_cusp(BlownUpWeylPoint(3, np.array([0.0, 1, 2]), np.zeros(2))),
        "closed")
    found2 = shape_mod.sphere_local_maxima(s.q, s.c)
    pos = found2.values > 0
    order = np.argsort(found2.values[pos])
    ok &= int(np.sum(pos)) == 2
    ok &= maxerr(found2.points[pos][order], np.eye(2)) <= 1e-6
    ok &= maxerr(found2.values[pos][order], [1 / 3, 2 / 3]) <= 1e-6
    _report(6, "local-maxima-anchors", bool(ok))


def test_criterion_07_affine_sphere_equivalence():
    rng = np.random.default_rng(108)
    mismatches = 0
    for i in range(200):
        n = int(rng.choice(DIMS))
        if i % 4 == 0:
            s = rng.uniform(0.3, 2.0)
            lam = np.full(n, s) if i % 8 else np.zeros(n)
            kap = lam[0] / lam[1:] if lam[0] > 0 else np.zeros(n - 1)
            p = BlownUpWeylPoint(n, lam, kap)
        else:
            p = random_blownup_point(rng, n)
        c = build_marked_cusp(p, random_marking(rng, n - 1))
        predicate = bool(np.all(np.abs(p.lam - p.lam[0]) < 1e-12))
        if shape_mod.is_affine_sphere(c) != predicate:
            mismatches += 1
    _report(7, "affine-sphere-criterion", mismatches == 0, "%d mismatches" % mismatches)


def test_criterion_08_three_dim_cone():
    rng = np.random.default_rng(109)
    worst_slack = -np.inf
    boundary_fail = 0
    for _ in range(500):
        t = int(rng.integers(0, 4))
        c = random_cusp(rng, 3, t=t)
        coords = dim3.coords_from_shape(shape_mod.shape_invariant(c, "closed"))
        slack = abs(coords.r) - 3 * abs(coords.h)
        worst_slack = max(worst_slack, slack)
        on_boundary = abs(slack) <= 1e-6 * max(1.0, abs(coords.h))
        if on_boundary != (c.params.type_t < 3):
            boundary_fail += 1
    p = BlownUpWeylPoint(3, np.array([0.0, 1, 2]), np.zeros(2))
    coords = dim3.coords_from_shape(
        shape_mod.shape_invariant(build_marked_cusp(p), "closed"))
    anchor = max(abs(12 * coords.h - (1 + 2j)), abs(12 * coords.r - (3 - 6j)))
    _report(8, "cone-containment", worst_slack <= 1e-8 and boundary_fail == 0
            and anchor <= 1e-8,
            "slack %.2e, %d boundary fails, anchor %.2e" % (
                worst_slack, boundary_fail, anchor))


def test_criterion_09_surface_table():
    rng = np.random.default_rng(110)
    worst = 0.0
    for t in (0, 1, 3):
        p = random_blownup_point(rng, 3, t=t)
        if t < 3:
            p = BlownUpWeylPoint(3, p.lam, np.zeros(2))
        xs, ys = dim3._grid_points(p, (20, 20))
        for x1 in xs:
            for x2 in ys:
                worst = max(worst, abs(surface_height_3d(p.lam, x1, x2)
                                       - hypersurface_F(p, np.array([x1, x2]))))
        c = build_marked_cusp(p)
        for v in rng.uniform(-1, 1, (20, 2)):
            pt = orbit_point(c, v)
            worst = max(worst, abs(pt[0] - surface_height_3d(p.lam, pt[1], pt[2])))
    # the printed type-2 row is expected to deviate; detection is the contract
    p2 = random_blownup_point(rng, 3, t=2)
    p2 = BlownUpWeylPoint(3, p2.lam, np.zeros(2))
    xs, ys = dim3._grid_points(p2, (20, 20))
    printed_dev = max(
        abs(surface_height_printed_row(2, p2.lam, x1, x2)
            - hypersurface_F(p2, np.array([x1, x2])))
        for x1 in xs for x2 in ys)
    _report(9, "surface-rows", worst <= 1e-8 and printed_dev > 1e-4,
            "rows max %.2e; printed t=2 row deviates by %.2e (reported)" % (
                worst, printed_dev))


def test_criterion_10_geometric_limit():
    worst = 0.0
    rng = np.random.default_rng(111)
    cases = [np.array([1.0, 1.0])]
    for _ in range(3):
        n = int(rng.choice(DIMS))
        cases.append(np.sort(rng.uniform(0.6, 1.0, n - 1))[::-1])
    for kap in cases:
        rows = limit_demo_rows(kap, 10000)
        for prev, cur in zip(rows, rows[1:]):
            ratio = prev["generator_distance"] / cur["generator_distance"]
            worst = max(worst, abs(ratio - 10.0))
    _report(10, "geometric-limit-decay", worst <= 1.0, "max |ratio-10| = %.3f" % worst)


def test_criterion_11_stratum_dimensions():
    ok = [stratum_dim(3, t) for t in range(4)] == [2, 4, 5, 6]
    ok &= all(stratum_dim(n, n) == n * n - n for n in range(2, 7))
    _report(11, "stratum-dimensions", bool(ok))
