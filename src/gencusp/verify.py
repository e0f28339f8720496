"""The verification battery: every structural identity and completeness
round trip in the library, packaged as named deterministic checks.

Each check draws its own generator from (seed, check name), measures a worst
residual over its samples, and passes when the residual clears its threshold.
Detection checks (which assert that a *discrepancy* is present) pass when the
measured deviation exceeds a floor instead.
"""

import zlib

import numpy as np

from . import dim3, shape as shape_mod
from .cusp_groups import (
    BlownUpWeylPoint,
    build_marked_cusp,
    character_closed_form,
    hypersurface_F,
    lie_algebra_zeta,
    lie_algebra_phi,
    orbit_point,
    rho,
)
from .invariants import (
    complete_invariant,
    eta_distance,
    frame_to_weight_data,
    are_conjugate,
    horosphere_metric,
    marked_psi_normal_form,
    realize_weight_data,
    recover_psi_from_invariant,
    stratum_dim,
    varpi_closed_form,
    weight_data,
    weights_equation_residual,
    limit_demo_rows,
    _match_multisets,
)
from .linalg import cholesky_upper, expm, f_k, maxerr, newton_to_elementary, unimodular
from .sampling import random_blownup_point, random_cusp, random_marking

__all__ = ["run_battery", "CHECKS"]

CHECKS = []


def _register(name, anchor, threshold, detection=False):
    def deco(fn):
        CHECKS.append(
            {
                "name": name,
                "anchor": anchor,
                "threshold": threshold,
                "detection": detection,
                "fn": fn,
            }
        )
        return fn

    return deco


def _rng_for(seed, name):
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


# ---------------------------------------------------------------------------
# linear algebra kernels


@_register("expm-similarity", "conjugation-equivariance-of-exp", 1e-10)
def _check_expm_similarity(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        k = int(rng.integers(3, 7))
        m = rng.standard_normal((k, k))
        # norm-bounded, not just spectral-radius-bounded: the similarity
        # residual is amplified by exp(|M|) times cond(P)
        m *= rng.uniform(0.5, 2.0) / np.linalg.norm(m, np.inf)
        for _ in range(64):
            p = rng.standard_normal((k, k))
            if np.linalg.cond(p) <= 1e3 and abs(np.linalg.det(p)) > 1e-6:
                break
        lhs = expm(p @ m @ np.linalg.inv(p))
        rhs = p @ expm(m) @ np.linalg.inv(p)
        worst = max(worst, maxerr(lhs, rhs))
    return worst, samples


@_register("expm-triangular", "triangular-structure-preservation", 1e-12)
def _check_expm_triangular(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        k = int(rng.integers(3, 7))
        t = np.triu(rng.standard_normal((k, k)))
        e = expm(t)
        below = np.max(np.abs(np.tril(e, -1)))
        diag = maxerr(np.diag(e), np.exp(np.diag(t)))
        worst = max(worst, below, diag)
    return worst, samples


@_register("fk-series-continuity", "fk-small-argument-branch", 1e-12)
def _check_fk_continuity(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        s = rng.uniform(-1e-3, 1e-3)
        t = rng.uniform(-10, 10)
        for k in (1, 2):
            bound = abs(s) * abs(t) ** (k + 1) * np.exp(abs(s * t))
            delta = abs(f_k(k, s, t) - f_k(k, 0.0, t))
            worst = max(worst, delta - bound)
    return worst, samples


@_register("newton-identities", "power-sums-to-elementary", 1e-9)
def _check_newton(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        k = int(rng.integers(2, 8))
        roots = rng.uniform(-2, 2, k)
        p = [float(np.sum(roots ** j)) for j in range(1, k + 1)]
        e = newton_to_elementary(p)
        coeffs = np.poly(roots)
        expected = [(-1.0) ** j * coeffs[j] for j in range(1, k + 1)]
        worst = max(worst, maxerr(e, expected))
    return worst, samples


@_register("cholesky-roundtrip", "upper-factor-uniqueness", 1e-10)
def _check_cholesky(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        k = int(rng.integers(2, 6))
        a = np.triu(rng.standard_normal((k, k)))
        np.fill_diagonal(a, rng.uniform(0.5, 2.0, k))
        worst = max(worst, maxerr(cholesky_upper(a.T @ a), a))
    return worst, samples


# ---------------------------------------------------------------------------
# canonical representations


@_register("model-commutativity", "abelian-image", 1e-9)
def _check_commute(rng, samples, dims):
    worst = 0.0
    for i in range(samples):
        n = int(rng.choice(dims))
        c = random_cusp(rng, n)
        v, w = rng.uniform(-1.5, 1.5, (2, n - 1))
        a, b = rho(c, v), rho(c, w)
        worst = max(worst, maxerr(a @ b, b @ a))
    return worst, samples


@_register("zeta-scaling-identity", "scaling-reparametrization", 1e-12)
def _check_zeta_scaling(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.choice(dims))
        t = int(rng.integers(0, n + 1))
        psi = np.zeros(n)
        psi[:t] = rng.uniform(0.3, 2.0, t)
        s = rng.uniform(0.3, 3.0)
        r = min(t, n - 1)
        v = rng.uniform(-2, 2, n - 1)
        scaled = v.copy()
        scaled[:r] *= s
        lhs = expm(lie_algebra_zeta(s * psi, v))
        rhs = expm(lie_algebra_zeta(psi, scaled))
        worst = max(worst, maxerr(lhs, rhs))
    return worst, samples


@_register("diagonal-limit", "boundary-of-diagonalizable-family", 0.2)
def _check_dn_limit(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.choice(dims))
        kap = rng.uniform(0.1, 1.0, n - 1)
        v = rng.uniform(-1, 1, n - 1)
        limit = lie_algebra_phi(BlownUpWeylPoint(n, np.zeros(n), kap), v)
        limit = expm(limit)
        errs = []
        for m in (10.0, 100.0, 1000.0):
            lam = np.concatenate([[1.0 / m], 1.0 / (m * kap)])
            p = BlownUpWeylPoint(n, lam, kap, flavor="diagonal")
            errs.append(maxerr(expm(lie_algebra_phi(p, v)), limit))
        # discrepancy O(lambda_0): each decade shrinks it ~10x
        worst = max(worst, errs[1] / errs[0], errs[2] / errs[1])
    return worst, samples


@_register("orbit-on-surface", "orbit-graph-identity", 1e-9)
def _check_orbit_surface(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.choice(dims))
        c = random_cusp(rng, n)
        v = rng.uniform(-1.2, 1.2, n - 1)
        pt = orbit_point(c, v)
        worst = max(worst, abs(pt[0] - hypersurface_F(c.params, pt[1:])) /
                    max(1.0, abs(pt[0])))
    return worst, samples


@_register("lambda-scaling-character", "lambda-scale-conjugacy", 1e-12)
def _check_tconj(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.choice(dims))
        p = random_blownup_point(rng, n)
        s = rng.uniform(0.4, 2.5)
        ps = p.scaled(s)
        c1 = build_marked_cusp(p)
        c2 = build_marked_cusp(ps)
        v = rng.uniform(-1, 1, n - 1)
        chi1 = character_closed_form(c1, s * v)
        chi2 = character_closed_form(c2, v)
        worst = max(worst, abs(chi1 - chi2) / max(1.0, abs(chi1)))
        worst = max(worst, maxerr(horosphere_metric(c1), horosphere_metric(c2)))
    return worst, samples


# ---------------------------------------------------------------------------
# invariants


@_register("character-closed-form", "trace-formula", 1e-8)
def _check_character(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.choice(dims))
        c = random_cusp(rng, n)
        v = rng.uniform(-1.5, 1.5, n - 1)
        tr = float(np.trace(rho(c, v)))
        chi = character_closed_form(c, v)
        worst = max(worst, abs(tr - chi) / max(1.0, abs(chi)))
    return worst, samples


@_register("metric-identity", "hessian-vs-marking-form", 1e-10)
def _check_metric_identity(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.choice(dims))
        c = random_cusp(rng, n, orthonormalized=False)
        closed = horosphere_metric(c)
        fitted = unimodular(shape_mod.fit_height_jet(c)[0])
        worst = max(worst, maxerr(fitted, closed))
    return worst, samples


@_register("eta-conjugation-invariance", "invariance-under-affine-conjugacy", 1e-8)
def _check_eta_invariance(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.choice(dims))
        c = random_cusp(rng, n)
        eta = complete_invariant(c)
        lin = random_marking(rng, n, cond_max=10.0)
        p = np.eye(n + 1)
        p[:n, :n] = lin
        p[:n, n] = rng.uniform(-1, 1, n)
        pinv = np.linalg.inv(p)
        gens = [p @ g @ pinv for g in c.generators]
        base = p[:, n].copy()
        # character probes
        for _ in range(3):
            v = rng.uniform(-1, 1, n - 1)
            a = np.zeros((n + 1, n + 1))
            for vi, g in zip(v, gens):
                a += vi * g
            tr = float(np.trace(expm(a)))
            worst = max(worst, abs(tr - eta.character.chi(v)) / max(1.0, abs(tr)))
        beta_conj = unimodular(shape_mod.height_jet(gens, base)[0])
        worst = max(worst, maxerr(beta_conj, eta.metric))
    return worst, samples


@_register("completeness-separation", "distinct-parameters-not-conjugate", 0.0)
def _check_separation(rng, samples, dims):
    failures = 0
    for _ in range(samples):
        n = int(rng.choice(dims))
        p1 = random_blownup_point(rng, n)
        p2 = random_blownup_point(rng, n)
        if np.max(np.abs(np.sort(p1.lam) - np.sort(p2.lam))) < 0.05:
            continue
        c1 = build_marked_cusp(p1, random_marking(rng, n - 1))
        c2 = build_marked_cusp(p2, random_marking(rng, n - 1))
        if are_conjugate(c1, c2):
            failures += 1
    return float(failures), samples


@_register("stabilizer-markings-conjugate", "marking-stabilizer", 0.0)
def _check_stabilizer(rng, samples, dims):
    failures = 0
    for _ in range(samples):
        n = int(rng.choice(dims))
        t = int(rng.integers(0, n))  # keep u >= 1 so O(u) is nontrivial
        p = random_blownup_point(rng, n, t=t)
        b = random_marking(rng, n - 1)
        c1 = build_marked_cusp(p, b)
        r = _stabilizer_sample(rng, p)
        c2 = build_marked_cusp(p, r @ b)
        if not are_conjugate(c1, c2):
            failures += 1
    return float(failures), samples


def _stabilizer_sample(rng, p):
    """A random element of the stabilizer of the model invariant: a
    permutation of equal positive lambda slots plus an orthogonal block on
    the zero slots, the latter conjugated by the preferred square root so it
    preserves I + kappa kappa^T when kappa is nonzero there.

    The stabilizer acts by left composition into the marking: the invariant
    of the model composed with (R B) matches that of B exactly when R fixes
    the model weights (as a multiset) and the model metric.
    """
    from .cusp_groups import preferred_sqrt

    n = p.n
    dim = n - 1
    u = p.unipotent_u
    r = np.eye(dim)
    if u > 1:
        q, _ = np.linalg.qr(rng.standard_normal((u, u)))
        r[:u, :u] = q
    lam = p.lam[1:]
    for i in range(dim):
        for j in range(i + 1, dim):
            if lam[i] > 0 and abs(lam[i] - lam[j]) < 1e-12:
                r[[i, j]] = r[[j, i]]
                break
    s = preferred_sqrt(p.kappa)
    return np.linalg.solve(s, r @ s)


@_register("weights-equation", "pairwise-dual-pairing-constant", 1e-8)
def _check_weights_equation(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.choice(dims))
        c = random_cusp(rng, n)
        worst = max(worst, weights_equation_residual(weight_data(c)))
    return worst, samples


@_register("varpi-closed-form", "varpi-from-parameters", 1e-8)
def _check_varpi(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.choice(dims))
        c = random_cusp(rng, n)
        worst = max(worst, abs(weight_data(c).varpi - varpi_closed_form(c)))
    return worst, samples


@_register("realization-roundtrip", "weight-data-completeness", 1e-6)
def _check_realize(rng, samples, dims):
    worst = 0.0
    for i in range(samples):
        n = int(rng.choice(dims))
        if i % 2 == 0:
            wd = weight_data(random_cusp(rng, n))
        else:
            wd = _random_weight_data(rng, n)
        back = weight_data(realize_weight_data(wd))
        worst = max(worst, _match_multisets(back.weights, wd.weights))
        worst = max(worst, maxerr(back.metric, wd.metric))
    return worst, samples


def _random_weight_data(rng, n):
    """A random point of the weight-data space through the frame bundle map:
    vectors with constant pairwise inner product, pushed through an
    upper-unipotent frame."""
    dim = n - 1
    a = np.eye(dim)
    a[np.triu_indices(dim, 1)] = rng.uniform(-0.8, 0.8, dim * (dim - 1) // 2)
    if rng.integers(0, 2):
        # varpi > 0: project an orthogonal basis with equal last components
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q *= np.where(q[n - 1] > 0, 1.0, -1.0)
        if np.min(np.abs(q[n - 1])) < 0.05:
            return _random_weight_data(rng, n)
        u = q / q[n - 1]
        vs = (u[:dim] * rng.uniform(0.5, 1.5)).T
    else:
        # varpi = 0: orthogonal frame, one vector zero
        t = int(rng.integers(0, n))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        vs = np.zeros((n, dim))
        for j in range(min(t, dim)):
            vs[j] = rng.uniform(0.4, 1.6) * q[:, j]
    return frame_to_weight_data(a, vs)


@_register("psi-recovery-roundtrip", "parameter-from-invariant", 1e-7)
def _check_psi_recovery(rng, samples, dims):
    worst = 0.0
    count = 0
    for n in dims:
        for t in range(n + 1):
            for _ in range(max(1, samples // (len(dims) * (n + 1)))):
                p = random_blownup_point(rng, n, t=t)
                c = build_marked_cusp(p, random_marking(rng, n - 1))
                psi_true = marked_psi_normal_form(p).psi
                psi_rec = recover_psi_from_invariant(complete_invariant(c)).psi
                worst = max(worst, maxerr(psi_rec, psi_true))
                count += 1
    return worst, count


@_register("equal-slot-symmetry", "argmax-level-invariance", 0.0)
def _check_equal_slot_symmetry(rng, samples, dims):
    failures = 0
    for _ in range(samples):
        n = int(rng.choice(dims))
        a, b = np.sort(rng.uniform(0.4, 2.0, 2))
        if abs(a - b) < 0.05:
            continue
        swap = np.eye(n - 1)
        swap[[n - 3, n - 2]] = swap[[n - 2, n - 3]]
        # permuting two equal positive slots fixes the invariant ...
        lam_eq = np.zeros(n)
        lam_eq[n - 2:] = [a, a]
        p_eq = BlownUpWeylPoint(n, lam_eq, np.zeros(n - 1))
        bmat = random_marking(rng, n - 1)
        same = are_conjugate(
            build_marked_cusp(p_eq, bmat), build_marked_cusp(p_eq, swap @ bmat)
        )
        # ... permuting two unequal ones changes it
        lam_ne = np.zeros(n)
        lam_ne[n - 2:] = [a, b]
        p_ne = BlownUpWeylPoint(n, lam_ne, np.zeros(n - 1))
        diff = are_conjugate(
            build_marked_cusp(p_ne, bmat), build_marked_cusp(p_ne, swap @ bmat)
        )
        if not same or diff:
            failures += 1
    return float(failures), samples


# ---------------------------------------------------------------------------
# shape invariant


@_register("shape-triple-route", "jet-vs-calibration-vs-weight-cubes", 1e-10)
def _check_triple_route(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.choice(dims))
        c = random_cusp(rng, n)
        s_fit = shape_mod.shape_invariant(c, "fit")
        s_closed = shape_mod.shape_invariant(c, "closed")
        s_weights = shape_mod.cubic_from_weights(weight_data(c))
        worst = max(worst, s_fit.distance(s_closed))
        worst = max(worst, s_weights.distance(s_closed))
        worst = max(worst, s_fit.distance(s_weights))
    return worst, samples


@_register("jet-hessian-fd", "second-derivative-cross-check", 1e-4)
def _check_jet_fd(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.choice(dims))
        c = random_cusp(rng, n)
        q_fit, _ = shape_mod.fit_height_jet(c)
        hess = 2.0 * q_fit
        step = 1e-3
        dim = n - 1
        fd = np.zeros((dim, dim))
        for i in range(dim):
            for j in range(dim):
                vpp = step * (np.eye(dim)[i] + np.eye(dim)[j])
                vpm = step * (np.eye(dim)[i] - np.eye(dim)[j])
                fd[i, j] = (
                    shape_mod.height_at(c, vpp)
                    - shape_mod.height_at(c, vpm)
                    - shape_mod.height_at(c, -vpm)
                    + shape_mod.height_at(c, -vpp)
                ) / (4 * step * step)
        worst = max(worst, maxerr(hess, fd) / max(1.0, maxerr(fd, np.zeros_like(fd))))
    return worst, samples


@_register("sphere-maxima-closed-form", "local-maxima-closed-forms", 1e-6)
def _check_maxima(rng, samples, dims):
    worst = 0.0
    for i in range(samples):
        n = int(rng.choice(dims))
        if i % 2 == 0:
            psi = rng.uniform(0.4, 2.0, n)
            q, c, _ = shape_mod.restricted_diag_calibration(
                np.asarray(psi, dtype=float)
            )
            found = shape_mod.sphere_local_maxima(q, c, seed=int(rng.integers(1 << 30)))
            if len(found.points) != n:
                worst = max(worst, 1.0)
                continue
            s_tot = float(np.sum(psi))
            expected = np.sort(
                [
                    (1.0 / np.sqrt(p)) * (1 - 2 * p / s_tot) / np.sqrt(1 - p / s_tot) / 6.0
                    for p in psi
                ]
            )
            worst = max(worst, maxerr(np.sort(found.values), expected))
        else:
            t = int(rng.integers(1, n))
            p = random_blownup_point(rng, n, t=t)
            p = BlownUpWeylPoint(n, p.lam, np.zeros(n - 1))  # the kappa = 0 model
            c0 = build_marked_cusp(p)
            s = shape_mod.shape_invariant(c0, "closed")
            found = shape_mod.sphere_local_maxima(s.q, s.c, seed=int(rng.integers(1 << 30)))
            pos = found.values > 0
            vals = np.sort(found.values[pos])
            expected = np.sort(p.lam[p.lam > 0] / 3.0)
            if len(vals) != len(expected):
                worst = max(worst, 1.0)
                continue
            worst = max(worst, maxerr(vals, expected))
            gram = found.points[pos] @ s.q @ found.points[pos].T
            off = gram[~np.eye(len(gram), dtype=bool)]
            if len(off):
                worst = max(worst, float(np.max(np.abs(off))))
    return worst, samples


@_register("shape-recovery-roundtrip", "shape-completeness", 0.0)
def _check_shape_recovery(rng, samples, dims):
    failures = 0
    for _ in range(samples):
        n = int(rng.choice(dims))
        c = random_cusp(rng, n)
        s = shape_mod.shape_invariant(c, "closed")
        try:
            rec = shape_mod.recover_cusp_from_shape(s)
        except ValueError:
            failures += 1
            continue
        if not are_conjugate(rec, c, tol=1e-6):
            failures += 1
    return float(failures), samples


@_register("harmonic-iff-equal-lambda", "affine-sphere-criterion", 0.0)
def _check_harmonic(rng, samples, dims):
    failures = 0
    for i in range(samples):
        n = int(rng.choice(dims))
        if i % 3 == 0:
            s = rng.uniform(0.3, 2.0)
            lam = np.full(n, s) if i % 6 else np.zeros(n)
            kap = lam[0] / lam[1:] if lam[0] > 0 else np.zeros(n - 1)
            p = BlownUpWeylPoint(n, lam, kap)
        else:
            p = random_blownup_point(rng, n)
        c = build_marked_cusp(p, random_marking(rng, n - 1))
        lam = p.lam
        predicate = bool(
            np.all(np.abs(lam - lam[0]) < 1e-12)
        )  # all equal: either all zero or the equal diagonalizable family
        if shape_mod.is_affine_sphere(c) != predicate:
            failures += 1
    return float(failures), samples


@_register("shape-vs-eta-symmetry", "common-stabilizer", 0.0)
def _check_oj_oeta(rng, samples, dims):
    failures = 0
    for _ in range(samples):
        n = int(rng.choice(dims))
        t = int(rng.integers(0, n))
        p = random_blownup_point(rng, n, t=t)
        b = random_marking(rng, n - 1)
        c0 = build_marked_cusp(p, b)
        s0 = shape_mod.shape_invariant(c0, "closed")
        eta0 = complete_invariant(c0)
        binv = np.linalg.inv(b)
        candidates = [binv @ _stabilizer_sample(rng, p) @ b]
        perm = np.eye(n - 1)
        i, j = rng.choice(n - 1, 2, replace=False)
        perm[[i, j]] = perm[[j, i]]
        candidates.append(binv @ perm @ b)
        candidates.append(random_marking(rng, n - 1))
        for r in candidates:
            cr = build_marked_cusp(p, b @ r)
            sr = shape_mod.ShapeInvariant.canonical(
                r.T @ s0.q @ r, s0.c.compose_linear(r)
            )
            j_preserved = sr.distance(s0) <= 1e-9
            eta_preserved = (
                eta_distance(complete_invariant(cr), eta0) <= 1e-9
            )
            if j_preserved != eta_preserved:
                failures += 1
    return float(failures), samples


# ---------------------------------------------------------------------------
# three dimensions


@_register("cone-containment", "radial-bounded-by-harmonic", 1e-8)
def _check_cone(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        c = random_cusp(rng, 3)
        s = shape_mod.shape_invariant(c, "closed")
        coords = dim3.coords_from_shape(s)
        worst = max(worst, abs(coords.r) - 3.0 * abs(coords.h))
    return worst, samples


@_register("boundary-iff-nondiagonalizable", "cone-boundary-stratum", 0.0)
def _check_boundary(rng, samples, dims):
    failures = 0
    for _ in range(samples):
        t = int(rng.integers(0, 4))
        p = random_blownup_point(rng, 3, t=t)
        c = random_cusp_from_point(rng, p)
        s = shape_mod.shape_invariant(c, "closed")
        coords = dim3.coords_from_shape(s)
        on_boundary = abs(3.0 * abs(coords.h) - abs(coords.r)) <= 1e-6 * max(
            1.0, abs(coords.h)
        )
        if on_boundary != (p.type_t < 3):
            failures += 1
    return float(failures), samples


def random_cusp_from_point(rng, p):
    return build_marked_cusp(p, random_marking(rng, p.n - 1))


@_register("radial-zero-iff-sphere", "harmonic-cubic-criterion", 0.0)
def _check_r_zero(rng, samples, dims):
    failures = 0
    for i in range(samples):
        if i % 3 == 0:
            s = rng.uniform(0.3, 2.0)
            lam = np.full(3, s) if i % 6 else np.zeros(3)
            kap = lam[0] / lam[1:] if lam[0] > 0 else np.zeros(2)
            p = BlownUpWeylPoint(3, lam, kap)
        else:
            p = random_blownup_point(rng, 3)
        c = random_cusp_from_point(rng, p)
        coords = dim3.coords_from_shape(shape_mod.shape_invariant(c, "closed"))
        r_zero = abs(coords.r) <= 1e-8 * max(1.0, abs(coords.h))
        if r_zero != shape_mod.is_affine_sphere(c):
            failures += 1
    return float(failures), samples


@_register("rotation-equivariance", "harmonic-radial-rotation-action", 1e-10)
def _check_rotation(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        h = complex(*rng.uniform(-1, 1, 2))
        r = complex(*rng.uniform(-1, 1, 2))
        if abs(r) > 3 * abs(h):
            h, r = r, h / 3.0
        theta = rng.uniform(0, 2 * np.pi)
        omega = np.exp(1j * theta)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        c = dim3.cubic_from_hr(h, r).compose_linear(rot)
        split = dim3.decompose_cubic_2d(c)
        worst = max(worst, abs(split.h - omega ** 3 * h), abs(split.r - omega * r))
    return worst, samples


@_register("strata-rotation-invariance", "stratum-classification-symmetry", 0.0)
def _check_strata_rotation(rng, samples, dims):
    failures = 0
    for i in range(samples):
        w = complex(*rng.uniform(-1, 1, 2))
        if abs(w) < 0.1:
            w = 1.0 + 0.5j
        cases = [
            (0.0, 0.0),
            (w ** 3 / abs(w) ** 2, 3 * w),  # cube of a linear form
            (w, 3 * w * np.exp(1j * rng.uniform(0.3, 2.0))),  # boundary, not a cube
            (w, rng.uniform(0, 2.9) * w),  # interior
        ]
        h, r = cases[i % 4]
        theta = rng.uniform(0, 2 * np.pi)
        omega = np.exp(1j * theta)
        t0 = dim3.classify_stratum_3d(h, r)
        t1 = dim3.classify_stratum_3d(omega ** 3 * h, omega * r)
        if t0 != t1 or t0 != i % 4:
            failures += 1
    return float(failures), samples


def _surface_point(seed, t):
    """Type-t parameter with kappa = 0 when t < 3 (the table rows' choice)."""
    p = random_blownup_point(np.random.default_rng(seed), 3, t=t)
    if t < 3:
        p = BlownUpWeylPoint(3, p.lam, np.zeros(2))
    return p


@_register("surface-rows-match-F", "closed-form-surface-heights", 1e-8)
def _check_surface_rows(rng, samples, dims):
    worst = 0.0
    for t in range(4):
        p = _surface_point(101 + t, t)
        xs, ys = dim3._grid_points(p, (20, 20))
        for x1 in xs:
            for x2 in ys:
                f_row = dim3.surface_height_3d(p.lam, x1, x2)
                f_true = hypersurface_F(p, np.array([x1, x2]))
                worst = max(worst, abs(f_row - f_true) / max(1.0, abs(f_true)))
        # orbit oracle for the same row
        c = build_marked_cusp(p)
        for v in np.random.default_rng(55 + t).uniform(-1, 1, (20, 2)):
            pt = orbit_point(c, v)
            worst = max(
                worst,
                abs(pt[0] - dim3.surface_height_3d(p.lam, pt[1], pt[2]))
                / max(1.0, abs(pt[0])),
            )
    return worst, 4 * 400


@_register("surface-printed-rows-differ", "printed-table-discrepancy", 1e-4,
           detection=True)
def _check_surface_printed(rng, samples, dims):
    deviations = []
    for t in (1, 2, 3):
        p = _surface_point(202 + t, t)
        xs, ys = dim3._grid_points(p, (20, 20))
        dev = 0.0
        for x1 in xs:
            for x2 in ys:
                printed = dim3.surface_height_printed_row(t, p.lam, x1, x2)
                dev = max(dev, abs(printed - hypersurface_F(p, np.array([x1, x2]))))
        deviations.append(dev)
    # detection: every printed row deviates from the derived surface
    return float(np.min(deviations)), 3 * 400


@_register("coords-roundtrip", "three-dimensional-moduli-coordinates", 1e-8)
def _check_coords_roundtrip(rng, samples, dims):
    worst = 0.0
    for _ in range(samples):
        w = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        h = complex(*rng.uniform(-1, 1, 2))
        r = h * rng.uniform(0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        coords = dim3.CuspCoords3D(w, h, r)
        back = dim3.coords_from_shape(dim3.shape_from_coords(coords))
        worst = max(
            worst,
            abs(back.w - w),
            abs(back.h - h),
            abs(back.r - r),
        )
    return worst, samples


@_register("stratum-dimensions", "stratification-dimensions", 0.0)
def _check_stratum_dims(rng, samples, dims):
    bad = 0
    if [stratum_dim(3, t) for t in range(4)] != [2, 4, 5, 6]:
        bad += 1
    for n in range(2, 7):
        if stratum_dim(n, n) != n * n - n:
            bad += 1
    return float(bad), 9


@_register("geometric-limit-decay", "diagonalizable-approximation-rate", 1.0)
def _check_limit_decay(rng, samples, dims):
    worst = 0.0
    for _ in range(max(1, samples // 10)):
        n = int(rng.choice(dims))
        # kappa bounded away from 0 keeps the second-order term small enough
        # for the first decade (m=10) to sit inside the +-1 window
        kap = np.sort(rng.uniform(0.6, 1.0, n - 1))[::-1]
        rows = limit_demo_rows(kap, 10000, n)
        for prev, cur in zip(rows, rows[1:]):
            ratio = prev["generator_distance"] / cur["generator_distance"]
            worst = max(worst, abs(ratio - 10.0))
    return worst, samples


def run_battery(seed=0, samples=50, dims=(3, 4, 5)):
    """Run every registered check; returns the report dictionary."""
    results = []
    passed_all = True
    for check in sorted(CHECKS, key=lambda c: c["name"]):
        rng = _rng_for(seed, check["name"])
        note = ""
        try:
            residual, count = check["fn"](rng, samples, tuple(dims))
        except Exception as exc:  # a failing identity may surface as an error
            residual, count = 9e99, 0
            note = "%s: %s" % (type(exc).__name__, exc)
        if check["detection"]:
            passed = residual >= check["threshold"]
        else:
            passed = residual <= check["threshold"]
        passed_all &= passed
        entry = {
            "name": check["name"],
            "anchor": check["anchor"],
            "samples": int(count),
            "max_residual": float(residual),
            "threshold": check["threshold"],
            "detection": check["detection"],
            "passed": bool(passed),
        }
        if note:
            entry["note"] = note
        results.append(entry)
    return {
        "seed": int(seed),
        "samples": int(samples),
        "dims": list(int(d) for d in dims),
        "passed": bool(passed_all),
        "checks": results,
    }
