"""The verification battery: every structural identity and completeness
round trip in the library, packaged as named deterministic checks.

Each check draws its own generator from (seed, check name) and passes when
its combined residual clears its threshold.  A sampled check measures one
sample, ``fn(rng, i, dims)`` for sample i: its residual, or its failure count
when the threshold is zero.  The registered entry runs it over the samples
and combines the values from 0.0 by max (residuals) or by sum (counts).
Detection checks (which assert that a *discrepancy* is present) pass when the
measured deviation exceeds a floor instead.

The independent references that only the checks read live here, each next to
the checks that compare against it: varpi's closed form, the
weights-equation residual, the frame-bundle parametrization of weight data,
the diagonal-model calibration of the sphere search and the derived and
printed n = 3 surface tables.
"""

import math
import operator
import zlib
from functools import reduce

import numpy as np

from . import dim3, shape as shape_mod
from .cusp_groups import (
    BlownUpWeylPoint,
    PsiParameter,
    build_marked_cusp,
    hypersurface_F,
    lie_algebra_zeta,
    lie_algebra_phi,
    orbit_point,
    preferred_sqrt,
    rho,
)
from .invariants import (
    WeightData,
    complete_invariant,
    eta_distance,
    are_conjugate,
    horosphere_metric,
    marked_psi_normal_form,
    realize_weight_data,
    recover_psi_from_invariant,
    stratum_dim,
    weight_data,
    weights_of,
    limit_demo_rows,
    _live_rows,
    _match_multisets,
    dual_gram,
)
from .linalg import (
    SLACK,
    expm,
    f_k,
    g_surface,
    maxerr,
    newton_to_elementary,
    nonzero,
    unimodular,
)
from .sampling import random_blownup_point, random_cusp, random_marking

__all__ = ["run_battery", "CHECKS"]

CHECKS = []


def _register(name, anchor, threshold, detection=False, whole=False):
    """Register a check.  The decorated function measures one sample unless
    ``whole`` is set, in which case it is itself the stored
    ``fn(rng, samples, dims) -> (residual, count)``."""

    def deco(fn):
        CHECKS.append(
            {
                "name": name,
                "anchor": anchor,
                "threshold": threshold,
                "detection": detection,
                "fn": fn if whole else _over_samples(fn, threshold),
            }
        )
        return fn

    return deco


def _over_samples(sample, threshold):
    # start from 0.0: some per-sample residuals are negative (margins under a
    # bound), and the check reports the worst of them clipped at zero
    combine = operator.add if threshold == 0 else max

    def fn(rng, samples, dims):
        return reduce(combine, (sample(rng, i, dims) for i in range(samples)), 0.0), samples

    return fn


def _rng_for(seed, name):
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


# ---------------------------------------------------------------------------
# linear algebra kernels


@_register("expm-similarity", "conjugation-equivariance-of-exp", 1e-10)
def _check_expm_similarity(rng, i, dims):
    k = int(rng.integers(3, 7))
    m = rng.standard_normal((k, k))
    # norm-bounded, not just spectral-radius-bounded: the similarity
    # residual is amplified by exp(|M|) times cond(P)
    m *= rng.uniform(0.5, 2.0) / np.linalg.norm(m, np.inf)
    p = random_marking(rng, k, cond_max=1e3, unit_det=False)
    lhs = expm(p @ m @ np.linalg.inv(p))
    rhs = p @ expm(m) @ np.linalg.inv(p)
    return maxerr(lhs, rhs)


@_register("expm-triangular", "triangular-structure-preservation", 1e-12)
def _check_expm_triangular(rng, i, dims):
    k = int(rng.integers(3, 7))
    t = np.triu(rng.standard_normal((k, k)))
    e = expm(t)
    below = np.max(np.abs(np.tril(e, -1)))
    return max(below, maxerr(np.diag(e), np.exp(np.diag(t))))


@_register("fk-series-continuity", "fk-small-argument-branch", 1e-12)
def _check_fk_continuity(rng, i, dims):
    s = rng.uniform(-1e-3, 1e-3)
    t = rng.uniform(-10, 10)
    excess = []
    for k in (1, 2):
        bound = abs(s) * abs(t) ** (k + 1) * np.exp(abs(s * t))
        excess.append(abs(f_k(k, s, t) - f_k(k, 0.0, t)) - bound)
    return max(excess)


@_register("newton-identities", "power-sums-to-elementary", 1e-9)
def _check_newton(rng, i, dims):
    k = int(rng.integers(2, 8))
    roots = rng.uniform(-2, 2, k)
    p = [float(np.sum(roots ** j)) for j in range(1, k + 1)]
    e = newton_to_elementary(p)
    coeffs = np.poly(roots)
    return maxerr(e, [(-1.0) ** j * coeffs[j] for j in range(1, k + 1)])


# ---------------------------------------------------------------------------
# canonical representations


@_register("model-commutativity", "abelian-image", 1e-9)
def _check_commute(rng, i, dims):
    n = int(rng.choice(dims))
    c = random_cusp(rng, n)
    v, w = rng.uniform(-1.5, 1.5, (2, n - 1))
    a, b = rho(c, v), rho(c, w)
    return maxerr(a @ b, b @ a)


@_register("zeta-scaling-identity", "scaling-reparametrization", 1e-12)
def _check_zeta_scaling(rng, i, dims):
    n = int(rng.choice(dims))
    t = int(rng.integers(0, n + 1))
    psi = np.zeros(n)
    psi[:t] = rng.uniform(0.3, 2.0, t)
    s = rng.uniform(0.3, 3.0)
    r = min(t, n - 1)
    v = rng.uniform(-2, 2, n - 1)
    scaled = v.copy()
    scaled[:r] *= s
    lhs = expm(lie_algebra_zeta(PsiParameter(n, s * psi, ordered=False), v))
    rhs = expm(lie_algebra_zeta(PsiParameter(n, psi, ordered=False), scaled))
    return maxerr(lhs, rhs)


@_register("diagonal-limit", "boundary-of-diagonalizable-family", 0.2)
def _check_dn_limit(rng, i, dims):
    n = int(rng.choice(dims))
    kap = rng.uniform(0.1, 1.0, n - 1)
    v = rng.uniform(-1, 1, n - 1)
    # descending kappa gives ascending lambda: the same cusp, permuted
    order = np.argsort(-kap)
    kap, v = kap[order], v[order]
    limit = expm(lie_algebra_phi(BlownUpWeylPoint(n, np.zeros(n), kap), v[None])[0])
    errs = []
    for m in (10.0, 100.0, 1000.0):
        lam = np.concatenate([[1.0 / m], 1.0 / (m * kap)])
        p = BlownUpWeylPoint(n, lam, kap)
        errs.append(maxerr(expm(lie_algebra_phi(p, v[None])[0]), limit))
    # discrepancy O(lambda_0): each decade shrinks it ~10x
    return max(errs[1] / errs[0], errs[2] / errs[1])


@_register("orbit-on-surface", "orbit-graph-identity", 1e-9)
def _check_orbit_surface(rng, i, dims):
    n = int(rng.choice(dims))
    c = random_cusp(rng, n)
    pt = orbit_point(c, rng.uniform(-1.2, 1.2, n - 1))
    return maxerr(hypersurface_F(c.params, pt[1:]), pt[0])


@_register("lambda-scaling-character", "lambda-scale-conjugacy", 1e-12)
def _check_tconj(rng, i, dims):
    n = int(rng.choice(dims))
    p = random_blownup_point(rng, n)
    s = rng.uniform(0.4, 2.5)
    c1 = build_marked_cusp(p)
    c2 = build_marked_cusp(p.scaled(s))
    v = rng.uniform(-1, 1, n - 1)
    chi1 = complete_invariant(c1).character.chi(s * v)
    chi2 = complete_invariant(c2).character.chi(v)
    return max(maxerr(chi2, chi1), maxerr(horosphere_metric(c1), horosphere_metric(c2)))


# ---------------------------------------------------------------------------
# invariants


@_register("character-closed-form", "trace-formula", 1e-8)
def _check_character(rng, i, dims):
    n = int(rng.choice(dims))
    c = random_cusp(rng, n)
    v = rng.uniform(-1.5, 1.5, n - 1)
    tr = float(np.trace(rho(c, v)))
    chi = complete_invariant(c).character.chi(v)
    return maxerr(tr, chi)


@_register("character-trace-newton", "character-from-conjugated-traces", 1e-9)
def _check_character_traces(rng, i, dims):
    m, w, v = _conjugated_holonomy(rng, dims)
    return _trace_newton_residual(m, w @ v)


def _conjugated_holonomy(rng, dims):
    """(M, w, v): a random cusp's holonomy at v, conjugated by a random P so
    that it is not triangular, with the cusp's weights w (``weights_of``).
    v is drawn with |w . v| <= 0.5, which keeps every eigenvalue moderate,
    else the power sums lose all digits.  The roundoff of the powers of M
    grows like cond(P)^2, so P is drawn at condition <= 10."""
    n = int(rng.choice(dims))
    c = random_cusp(rng, n)
    w = weights_of(c).weights
    v = rng.uniform(-1, 1, n - 1)
    top = float(np.abs(w @ v).max())
    if top > 0.5:
        v *= 0.5 / top
    p = random_marking(rng, n + 1, cond_max=10.0, unit_det=False)
    return p @ rho(c, v) @ np.linalg.inv(p), w, v


def _trace_newton_residual(m, logs):
    """Newton's e_1..e_k from the traces of the powers of the k x k matrix
    ``m``, against e_1..e_k of the eigenvalues exp(``logs``), relative to
    max(1, |e|).  The traces see the whole matrix, so in a basis where ``m``
    is not triangular, eigenvalues misread from its diagonal show."""
    k = m.shape[0]
    powers = [m]
    for _ in range(k - 1):
        powers.append(powers[-1] @ m)
    e = newton_to_elementary(np.trace(np.stack(powers), axis1=1, axis2=2))
    coeffs = np.poly(np.exp(logs))
    return maxerr(e, [(-1.0) ** j * coeffs[j] for j in range(1, k + 1)])


@_register("metric-identity", "hessian-vs-marking-form", 1e-10)
def _check_metric_identity(rng, i, dims):
    n = int(rng.choice(dims))
    c = random_cusp(rng, n, orthonormalized=False)
    return maxerr(unimodular(shape_mod.fit_height_jet(c)[0]), horosphere_metric(c))


@_register("eta-conjugation-invariance", "invariance-under-affine-conjugacy", 1e-8)
def _check_eta_invariance(rng, i, dims):
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
    worst = 0.0
    # character probes
    for _ in range(3):
        v = rng.uniform(-1, 1, n - 1)
        a = np.zeros((n + 1, n + 1))
        for vi, g in zip(v, gens):
            a += vi * g
        tr = float(np.trace(expm(a)))
        worst = max(worst, maxerr(eta.character.chi(v), tr))
    beta_conj = unimodular(shape_mod.height_jet(gens, base)[0])
    return max(worst, maxerr(beta_conj, eta.metric))


@_register("completeness-separation", "distinct-parameters-not-conjugate", 0.0)
def _check_separation(rng, i, dims):
    n = int(rng.choice(dims))
    p1 = random_blownup_point(rng, n)
    p2 = random_blownup_point(rng, n)
    if np.max(np.abs(np.sort(p1.lam) - np.sort(p2.lam))) < 0.05:
        return 0
    c1 = build_marked_cusp(p1, random_marking(rng, n - 1))
    c2 = build_marked_cusp(p2, random_marking(rng, n - 1))
    return int(are_conjugate(c1, c2))


@_register("stabilizer-markings-conjugate", "marking-stabilizer", 0.0)
def _check_stabilizer(rng, i, dims):
    n = int(rng.choice(dims))
    t = int(rng.integers(0, n))  # keep u >= 1 so O(u) is nontrivial
    p = random_blownup_point(rng, n, t=t)
    b = random_marking(rng, n - 1)
    c1 = build_marked_cusp(p, b)
    r = _stabilizer_sample(rng, p)
    return int(not are_conjugate(c1, build_marked_cusp(p, r @ b)))


def _stabilizer_sample(rng, p):
    """A random element of the stabilizer of the model invariant: a
    permutation of equal positive lambda slots plus an orthogonal block on
    the zero slots, the latter conjugated by the preferred square root so it
    preserves I + kappa kappa^T when kappa is nonzero there.

    The stabilizer acts by left composition into the marking: the invariant
    of the model composed with (R B) matches that of B exactly when R fixes
    the model weights (as a multiset) and the model metric.
    """
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
            if lam[i] > 0 and abs(lam[i] - lam[j]) < SLACK * lam[j]:
                r[[i, j]] = r[[j, i]]
                break
    s = preferred_sqrt(p.kappa)
    return np.linalg.solve(s, r @ s)


def weights_equation_residual(w):
    """The weights-equation residual of w by a route of its own, not the
    data's ``unit_gram``: the pairings of its rows at unit size by one solve
    against the metric, their largest deviation from the constant -varpi,
    varpi their negated mean (or -varpi itself when varpi is negative),
    scaled back to the size of the weights."""
    unit = w.unit_weights
    gram = unit @ np.linalg.solve(w.metric, unit.T)
    off = gram[~np.eye(len(gram), dtype=bool)]
    varpi = -float(off.mean()) if off.size else 0.0
    resid = max(float(np.abs(off + varpi).max(initial=0.0)), -varpi)
    return w._scaled_back(resid, "weights equation residual")


def varpi_closed_form(cusp):
    """varpi of a marked cusp: (s lam0)^2 * ((1+|kappa|^2)^(1/(n-1)))^(2-n),
    where s = |det M|^(1/(n-1)) of its effective marking M.  s is 1 but for
    the orthonormalized variant, whose effective marking S^-1 B rescales the
    effective lambda (and hence varpi): there |det M| = |det B| / r, r =
    det S = sqrt(1 + |kappa|^2), with log|det B| the marking's own."""
    n, lam0, kap = cusp.n, cusp.params.lam[0], cusp.params.kappa
    log_vk = math.log1p(float(np.dot(kap, kap)))
    log_det = cusp.log_det - (0.5 * log_vk if cusp.orthonormalized else 0.0)
    return lam0 ** 2 * math.exp((2.0 * log_det + (2 - n) * log_vk) / (n - 1))


@_register("weights-equation", "pairwise-dual-pairing-constant", 1e-8)
def _check_weights_equation(rng, i, dims):
    n = int(rng.choice(dims))
    return weights_equation_residual(weight_data(random_cusp(rng, n)))


@_register("varpi-closed-form", "varpi-from-parameters", 1e-8)
def _check_varpi(rng, i, dims):
    n = int(rng.choice(dims))
    c = random_cusp(rng, n)
    return abs(weight_data(c).varpi - varpi_closed_form(c))


@_register("realization-roundtrip", "weight-data-completeness", 1e-6)
def _check_realize(rng, i, dims):
    n = int(rng.choice(dims))
    if i % 2 == 0:
        wd = weight_data(random_cusp(rng, n))
    else:
        wd = _random_weight_data(rng, n)
    back = weight_data(realize_weight_data(wd))
    return max(_match_multisets(back.weights, wd.weights), maxerr(back.metric, wd.metric))


# frame_to_weight_data's slack on the unit diagonal and on the weights
# equation, relative to the largest dual norm.
_FRAME_TOL = 1e-8


def frame_to_weight_data(a, vs):
    """Weight data from an upper-unipotent frame change and n vectors with
    constant pairwise inner product -varpi <= 0: weights xi_i = (A^T v_i)^T
    and metric A^T A.  The unit diagonal holds to _FRAME_TOL, and so does
    the weights equation of the data built (``WeightData.residual_ratio``)."""
    a = np.asarray(a, dtype=float)
    vs = np.asarray(vs, dtype=float)
    dim = a.shape[0]
    if a.shape != (dim, dim) or np.max(np.abs(np.tril(a, -1))) > 0 or maxerr(
        np.diag(a), np.ones(dim)
    ) > _FRAME_TOL:
        raise ValueError("frame matrix must be upper unipotent")
    if vs.shape != (dim + 1, dim):
        raise ValueError("need n = dim+1 vectors of length dim")
    wd = WeightData(vs @ a, unimodular(a.T @ a))
    if wd.residual_ratio > _FRAME_TOL:
        raise ValueError("pairwise inner products are not one constant -varpi <= 0")
    return wd


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


def _psi_by_relations(eta):
    """psi of a complete invariant from the weights' own relations, the
    reference route to ``recover_psi_from_invariant``'s normal form of the
    realized cusp, in non-increasing order.

    For 0 < t < n the dual norms N_i of the nonzero weights satisfy
    log N_i = -x_i + (x_1 + ... + x_{t-1} + (t+n) x_t) / (n-1) with
    x_i = log psi_i (psi non-increasing, N non-decreasing); the system matrix
    I - 1 a^T has determinant 1 - sum(a) = -2t/(n-1), nonzero for every
    t >= 1.  For t = n the weights satisfy a unique positive linear relation
    whose coefficients are psi up to one scale, fixed by the |det| = 1
    marking normalization.
    """
    w = eta.character.weights
    n = w.shape[0] - 1
    live = w[_live_rows(w)]
    t = live.shape[0]
    psi = np.zeros(n)
    if t == n:
        # left null vector of the n x (n-1) weight matrix: the relation
        # sum_i coeff_i * xi_i = 0 has all-positive coefficients
        coeff = np.linalg.svd(live, full_matrices=True)[0][:, -1]
        if np.max(coeff) < -np.min(coeff):
            coeff = -coeff
        j = int(np.argmax(coeff))
        det = abs(np.linalg.det(np.delete(live, j, axis=0)))
        psi = (det ** (1.0 / (n - 1)) / coeff[j]) * coeff
    elif t:
        y = np.log(np.sort(dual_gram(live, eta.metric)[0]))  # ascending N <-> non-increasing psi
        a = np.full(t, 1.0 / (n - 1))
        a[-1] = (t + n) / (n - 1.0)
        psi[:t] = np.exp(np.linalg.solve(np.eye(t) - np.outer(np.ones(t), a), -y))
    return np.sort(psi)[::-1]


@_register("psi-recovery-roundtrip", "parameter-from-invariant", 1e-7, whole=True)
def _check_psi_recovery(rng, samples, dims):
    # the recovered psi against the normal form of the parameters and against
    # the weights' own relations
    worst = 0.0
    count = 0
    for n in dims:
        for t in range(n + 1):
            for _ in range(max(1, samples // (len(dims) * (n + 1)))):
                p = random_blownup_point(rng, n, t=t)
                c = build_marked_cusp(p, random_marking(rng, n - 1))
                eta = complete_invariant(c)
                psi_rec = recover_psi_from_invariant(eta).psi
                for psi_ref in (marked_psi_normal_form(p).psi, _psi_by_relations(eta)):
                    worst = max(worst, maxerr(psi_rec, psi_ref))
                count += 1
    return worst, count


@_register("equal-slot-symmetry", "argmax-level-invariance", 0.0)
def _check_equal_slot_symmetry(rng, i, dims):
    n = int(rng.choice(dims))
    a, b = np.sort(rng.uniform(0.4, 2.0, 2))
    if abs(a - b) < 0.05:
        return 0
    swap = np.eye(n - 1)
    swap[[n - 3, n - 2]] = swap[[n - 2, n - 3]]
    bmat = random_marking(rng, n - 1)

    def swap_is_conjugate(top):
        lam = np.zeros(n)
        lam[n - 2:] = top
        p = BlownUpWeylPoint(n, lam, np.zeros(n - 1))
        return are_conjugate(build_marked_cusp(p, bmat), build_marked_cusp(p, swap @ bmat))

    # permuting two equal positive slots fixes the invariant ...
    same = swap_is_conjugate([a, a])
    # ... permuting two unequal ones changes it
    diff = swap_is_conjugate([a, b])
    return int(not same or diff)


# ---------------------------------------------------------------------------
# shape invariant


@_register("shape-triple-route", "jet-vs-calibration-vs-weight-cubes", 1e-10)
def _check_triple_route(rng, i, dims):
    n = int(rng.choice(dims))
    c = random_cusp(rng, n)
    s_fit = shape_mod.shape_invariant(c, "fit")
    s_closed = shape_mod.shape_invariant(c, "closed")
    s_weights = shape_mod.cubic_from_weights(weight_data(c))
    return max(s_fit.distance(s_closed), s_weights.distance(s_closed),
               s_fit.distance(s_weights))


@_register("jet-hessian-fd", "second-derivative-cross-check", 1e-4)
def _check_jet_fd(rng, i, dims):
    n = int(rng.choice(dims))
    c = random_cusp(rng, n)
    q_fit, _ = shape_mod.fit_height_jet(c)
    hess = 2.0 * q_fit
    step = 1e-3
    dim = n - 1
    fd = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(dim):
            vpp = step * (np.eye(dim)[a] + np.eye(dim)[b])
            vpm = step * (np.eye(dim)[a] - np.eye(dim)[b])
            fd[a, b] = (
                shape_mod.height_at(c, vpp)
                - shape_mod.height_at(c, vpm)
                - shape_mod.height_at(c, -vpm)
                + shape_mod.height_at(c, -vpp)
            ) / (4 * step * step)
    return maxerr(hess, fd) / max(1.0, maxerr(fd, np.zeros_like(fd)))


def restricted_diag_calibration(psi):
    """The diagonal-model calibration restricted to the kernel hyperplane:
    returns (q, c, basis) with q the psi-Gram of the basis columns and c the
    restricted cubic (including its 1/6)."""
    if not isinstance(psi, PsiParameter):
        raise TypeError("expected a PsiParameter")
    n = psi.n
    w = psi.psi
    if psi.type_t != n:
        raise ValueError("restriction needs all psi positive")
    # null space of the covector (psi_1, ..., psi_n)
    _, _, vt = np.linalg.svd(w[None, :])
    basis = vt[1:].T  # n x (n-1), orthonormal columns spanning ker psi
    q = basis.T @ np.diag(w) @ basis
    return q, shape_mod.CubicPoly.from_covector_cubes(basis, w / 6.0), basis


@_register("sphere-maxima-closed-form", "local-maxima-closed-forms", 1e-6)
def _check_maxima(rng, i, dims):
    n = int(rng.choice(dims))
    if i % 2 == 0:
        psi = rng.uniform(0.4, 2.0, n)
        q, c, _ = restricted_diag_calibration(PsiParameter(n, psi, ordered=False))
        found = shape_mod.sphere_local_maxima(q, c, seed=int(rng.integers(1 << 30)))
        if len(found.points) != n:
            return 1.0
        s_tot = float(np.sum(psi))
        expected = np.sort(
            [
                (1.0 / np.sqrt(p)) * (1 - 2 * p / s_tot) / np.sqrt(1 - p / s_tot) / 6.0
                for p in psi
            ]
        )
        return maxerr(np.sort(found.values), expected)
    t = int(rng.integers(1, n))
    p = random_blownup_point(rng, n, t=t)
    p = BlownUpWeylPoint(n, p.lam, np.zeros(n - 1))  # the kappa = 0 model
    s = shape_mod.shape_invariant(build_marked_cusp(p), "closed")
    found = shape_mod.sphere_local_maxima(s.q, s.c, seed=int(rng.integers(1 << 30)))
    pos = found.values > 0
    vals = np.sort(found.values[pos])
    expected = np.sort(p.lam[p.lam > 0] / 3.0)
    if len(vals) != len(expected):
        return 1.0
    worst = maxerr(vals, expected)
    gram = found.points[pos] @ s.q @ found.points[pos].T
    off = gram[~np.eye(len(gram), dtype=bool)]
    if len(off):
        worst = max(worst, float(np.max(np.abs(off))))
    return worst


@_register("shape-recovery-roundtrip", "shape-completeness", 0.0)
def _check_shape_recovery(rng, i, dims):
    n = int(rng.choice(dims))
    c = random_cusp(rng, n)
    s = shape_mod.shape_invariant(c, "closed")
    try:
        rec = shape_mod.recover_cusp_from_shape(s)
    except ValueError:
        return 1
    return int(not are_conjugate(rec, c, tol=1e-6))


def _equal_lambda_or_random_point(rng, i, n):
    """Every third sample lies on the equal-lambda family (all lambda zero,
    or all equal with kappa = 1), the others are random points."""
    if i % 3:
        return random_blownup_point(rng, n)
    s = rng.uniform(0.3, 2.0)
    lam = np.full(n, s) if i % 6 else np.zeros(n)
    kap = lam[0] / lam[1:] if lam[0] > 0 else np.zeros(n - 1)
    return BlownUpWeylPoint(n, lam, kap)


@_register("harmonic-iff-equal-lambda", "affine-sphere-criterion", 0.0)
def _check_harmonic(rng, i, dims):
    n = int(rng.choice(dims))
    p = _equal_lambda_or_random_point(rng, i, n)
    c = build_marked_cusp(p, random_marking(rng, n - 1))
    # all equal: either all zero or the equal diagonalizable family
    predicate = bool(np.all(np.abs(p.lam - p.lam[0]) <= SLACK * p.lam[-1]))
    return int(shape_mod.is_affine_sphere(c) != predicate)


@_register("shape-vs-eta-symmetry", "common-stabilizer", 0.0)
def _check_oj_oeta(rng, i, dims):
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
    j1, j2 = rng.choice(n - 1, 2, replace=False)
    perm[[j1, j2]] = perm[[j2, j1]]
    candidates.append(binv @ perm @ b)
    candidates.append(random_marking(rng, n - 1))
    failures = 0
    for r in candidates:
        cr = build_marked_cusp(p, b @ r)
        sr = shape_mod.ShapeInvariant.canonical(r.T @ s0.q @ r, s0.c.compose_linear(r))
        j_preserved = sr.distance(s0) <= 1e-9
        eta_preserved = eta_distance(complete_invariant(cr), eta0) <= 1e-9
        failures += int(j_preserved != eta_preserved)
    return failures


# ---------------------------------------------------------------------------
# three dimensions


@_register("cone-containment", "radial-bounded-by-harmonic", 1e-8)
def _check_cone(rng, i, dims):
    coords = dim3.coords_from_shape(shape_mod.shape_invariant(random_cusp(rng, 3), "closed"))
    return abs(coords.r) - 3.0 * abs(coords.h)


@_register("boundary-iff-nondiagonalizable", "cone-boundary-stratum", 0.0)
def _check_boundary(rng, i, dims):
    t = int(rng.integers(0, 4))
    p = random_blownup_point(rng, 3, t=t)
    c = build_marked_cusp(p, random_marking(rng, 2))
    coords = dim3.coords_from_shape(shape_mod.shape_invariant(c, "closed"))
    on_boundary = abs(3.0 * abs(coords.h) - abs(coords.r)) <= 1e-6 * abs(coords.h)
    return int(on_boundary != (p.type_t < 3))


@_register("radial-zero-iff-sphere", "harmonic-cubic-criterion", 0.0)
def _check_r_zero(rng, i, dims):
    p = _equal_lambda_or_random_point(rng, i, 3)
    c = build_marked_cusp(p, random_marking(rng, 2))
    coords = dim3.coords_from_shape(shape_mod.shape_invariant(c, "closed"))
    r_zero = abs(coords.r) <= 1e-8 * abs(coords.h)
    return int(r_zero != shape_mod.is_affine_sphere(c))


@_register("rotation-equivariance", "harmonic-radial-rotation-action", 1e-10)
def _check_rotation(rng, i, dims):
    h = complex(*rng.uniform(-1, 1, 2))
    r = complex(*rng.uniform(-1, 1, 2))
    if abs(r) > 3 * abs(h):
        h, r = r, h / 3.0
    theta = rng.uniform(0, 2 * np.pi)
    omega = np.exp(1j * theta)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    split = dim3.decompose_cubic_2d(dim3.cubic_from_hr(h, r).compose_linear(rot))
    return max(abs(split.h - omega ** 3 * h), abs(split.r - omega * r))


@_register("strata-rotation-invariance", "stratum-classification-symmetry", 0.0)
def _check_strata_rotation(rng, i, dims):
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
    omega = np.exp(1j * rng.uniform(0, 2 * np.pi))
    t0 = dim3.classify_stratum_3d(h, r)
    t1 = dim3.classify_stratum_3d(omega ** 3 * h, omega * r)
    return int(t0 != t1 or t0 != i % 4)


def _surface_point(seed, t):
    """Type-t parameter with kappa = 0 when t < 3 (the table rows' choice)."""
    p = random_blownup_point(np.random.default_rng(seed), 3, t=t)
    if t < 3:
        p = BlownUpWeylPoint(3, p.lam, np.zeros(2))
    return p


def surface_height_3d(lam, x1, x2):
    """Closed-form boundary height y = f_lambda(x1, x2) of the canonical
    3-dimensional cusp with kappa = 0 for types < 3.

    The rows are the algebraic reductions of the general surface function:
      t=0: (x1^2+x2^2)/2
      t=1: x1^2/2 + g(lam2, x2)
      t=2: g(lam1, x1) + g(lam2, x2)
      t=3: x1/lam1 + x2/lam2 + lam0^-2 (-1 + prod_i (1+lam_i x_i)^(-(lam0/lam_i)^2))
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (3,):
        raise ValueError("lambda must have 3 entries")
    t = int(np.sum(nonzero(lam)))
    if t == 0:
        return 0.5 * (x1 * x1 + x2 * x2)
    if t == 1:
        return 0.5 * x1 * x1 + g_surface(lam[2], x2)
    if t == 2:
        return g_surface(lam[1], x1) + g_surface(lam[2], x2)
    for ell, x in ((lam[1], x1), (lam[2], x2)):
        if 1.0 + ell * x <= 0:
            raise ValueError("surface domain violation: 1 + lambda*x <= 0")
    # prod - 1 as expm1 of log(prod): no cancellation as lam0 -> 0
    r1, r2 = (lam[0] / lam[1]) ** 2, (lam[0] / lam[2]) ** 2
    z = -r1 * np.log1p(lam[1] * x1) - r2 * np.log1p(lam[2] * x2)
    return x1 / lam[1] + x2 / lam[2] + np.expm1(z) / lam[0] ** 2


def surface_height_printed_row(t, lam, x1, x2):
    """The t in {1,2,3} closed forms as printed in the source table (kept for
    the discrepancy report; they disagree with the derived surface function,
    see ``surface-printed-rows-differ``)."""
    lam = np.asarray(lam, dtype=float)
    if t == 1:
        return 0.5 * x1 * x1 + np.log1p(lam[2] * x2) / lam[2] ** 2
    if t == 2:
        return (
            0.5 * (x1 + x2)
            - np.log1p(lam[1] * x1) / lam[1] ** 2
            + np.log1p(lam[2] * x2) / lam[2] ** 2
        )
    if t == 3:
        ssum = (1.0 + lam[1] * x1) ** (-((lam[0] / lam[1]) ** 2)) + (
            1.0 + lam[2] * x2
        ) ** (-((lam[0] / lam[2]) ** 2))
        return x1 / lam[1] + x2 / lam[2] + (ssum - 2.0) / lam[0] ** 2
    raise ValueError("printed rows exist for t in {1,2,3}")


@_register("surface-rows-match-F", "closed-form-surface-heights", 1e-8, whole=True)
def _check_surface_rows(rng, samples, dims):
    worst = 0.0
    for t in range(4):
        p = _surface_point(101 + t, t)
        xs, ys = dim3._grid_points(p, (20, 20))
        for x1, heights in zip(xs, dim3._grid_heights(p, xs, ys)):
            for x2, f_true in zip(ys, heights):
                f_row = surface_height_3d(p.lam, x1, x2)
                worst = max(worst, maxerr(f_row, f_true))
        # orbit oracle for the same row
        c = build_marked_cusp(p)
        for v in np.random.default_rng(55 + t).uniform(-1, 1, (20, 2)):
            pt = orbit_point(c, v)
            worst = max(worst, maxerr(surface_height_3d(p.lam, pt[1], pt[2]), pt[0]))
    return worst, 4 * 400


@_register("surface-printed-rows-differ", "printed-table-discrepancy", 1e-4,
           detection=True, whole=True)
def _check_surface_printed(rng, samples, dims):
    deviations = []
    for t in (1, 2, 3):
        p = _surface_point(202 + t, t)
        xs, ys = dim3._grid_points(p, (20, 20))
        dev = 0.0
        for x1, heights in zip(xs, dim3._grid_heights(p, xs, ys)):
            for x2, f_true in zip(ys, heights):
                printed = surface_height_printed_row(t, p.lam, x1, x2)
                dev = max(dev, abs(printed - f_true))
        deviations.append(dev)
    # detection: every printed row deviates from the derived surface
    return float(np.min(deviations)), 3 * 400


@_register("coords-roundtrip", "three-dimensional-moduli-coordinates", 1e-8)
def _check_coords_roundtrip(rng, i, dims):
    w = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
    h = complex(*rng.uniform(-1, 1, 2))
    r = h * rng.uniform(0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    back = dim3.coords_from_shape(dim3.shape_from_coords(dim3.CuspCoords3D(w, h, r)))
    return max(abs(back.w - w), abs(back.h - h), abs(back.r - r))


@_register("stratum-dimensions", "stratification-dimensions", 0.0, whole=True)
def _check_stratum_dims(rng, samples, dims):
    bad = 0
    if [stratum_dim(3, t) for t in range(4)] != [2, 4, 5, 6]:
        bad += 1
    for n in range(2, 7):
        if stratum_dim(n, n) != n * n - n:
            bad += 1
    return float(bad), 9


@_register("geometric-limit-decay", "diagonalizable-approximation-rate", 1.0, whole=True)
def _check_limit_decay(rng, samples, dims):
    worst = 0.0
    for _ in range(max(1, samples // 10)):
        n = int(rng.choice(dims))
        # kappa bounded away from 0 keeps the second-order term small enough
        # for the first decade (m=10) to sit inside the +-1 window
        kap = np.sort(rng.uniform(0.6, 1.0, n - 1))[::-1]
        rows = limit_demo_rows(kap, 10000)
        for prev, cur in zip(rows, rows[1:]):
            ratio = prev["generator_distance"] / cur["generator_distance"]
            worst = max(worst, abs(ratio - 10.0))
    return worst, samples


def _margin(residual, threshold, detection):
    """How much of its gate a check uses: residual / threshold, or
    threshold / residual for a detection check, so a passing check reads at
    most 1.  None where that is no number: a count check (threshold 0), or
    a detection check that found nothing (residual 0)."""
    if not threshold or (detection and not residual):
        return None
    return threshold / residual if detection else residual / threshold


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
        residual, threshold = float(residual), check["threshold"]
        margin = None if note else _margin(residual, threshold, check["detection"])
        # a check that raised fails, a detection check too: its 9e99 is no
        # discrepancy found
        passed = not note and (residual >= threshold if check["detection"] else residual <= threshold)
        passed_all &= passed
        entry = {
            "name": check["name"],
            "anchor": check["anchor"],
            "samples": int(count),
            "max_residual": residual,
            "threshold": threshold,
            "margin": margin,
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
