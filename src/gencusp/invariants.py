"""Conjugacy invariants of marked cusps and their inversions.

The complete invariant is the pair (character, unimodular horosphere metric);
the character is handled through its multiset of Lie-algebra weight covectors,
never by pointwise sampling (exp blowup makes pointwise comparison fragile).
"""

from dataclasses import dataclass

import numpy as np

from .cusp_groups import (
    BlownUpWeylPoint,
    MarkedCusp,
    PsiParameter,
    build_marked_cusp,
    lambda_to_psi,
    lie_algebra_phi,
    rho,
)
from .linalg import (
    check_symmetric,
    check_unimodular,
    expm,
    maxerr,
    newton_to_elementary,
    nonzero,
    sqrt_forms,
    unimodular,
)

__all__ = [
    "CharacterData",
    "CompleteInvariant",
    "WeightData",
    "MiddleWeightTie",
    "weights_of",
    "horosphere_metric",
    "complete_invariant",
    "eta_distance",
    "are_conjugate",
    "recover_psi_from_invariant",
    "marked_psi_normal_form",
    "weight_data",
    "weights_equation_residual",
    "varpi_closed_form",
    "realize_weight_data",
    "frame_to_weight_data",
    "projectivize_character",
    "unprojectivize_character",
    "middle_weight",
    "stratum_dim",
    "limit_demo_rows",
]

# weights_of's Newton-identity cross-check: probe count, seed, tolerance.
_CHARACTER_PROBES = 3
_CHARACTER_SEED = 20
_CHARACTER_CHECK_TOL = 1e-7

# middle_weight's probe seed and its relative tolerance on probe values.
_MIDDLE_SEED = 7
_MIDDLE_TOL = 1e-9

# frame_to_weight_data's slack on the unit diagonal and on the constant
# pairwise inner products.
_FRAME_TOL = 1e-8


class MiddleWeightTie(ValueError):
    """Two distinct weight values both satisfy the middle-weight condition."""


def sort_weights(w):
    """Canonical order: lexicographic by coordinates rounded to 1e-12."""
    w = np.asarray(w, dtype=float)
    keys = [tuple(np.round(row, 12)) for row in w]
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    return w[order]


@dataclass(frozen=True, eq=False)
class CharacterData:
    """Multiset of the n+1 Lie-algebra weight covectors (rows).  In the
    affine normalization the translation line contributes a zero covector;
    the projectivized (determinant-one) normalization instead has zero sum.
    """

    weights: np.ndarray
    affine: bool = True

    def __post_init__(self):
        w = sort_weights(self.weights)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.affine and np.all(nonzero(np.max(np.abs(w), axis=1, initial=0.0))):
            raise ValueError("affine character data must contain a zero covector")

    def chi(self, v):
        return float(np.sum(np.exp(self.weights @ np.asarray(v, dtype=float))))


@dataclass(frozen=True, eq=False)
class CompleteInvariant:
    character: CharacterData
    metric: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "metric", check_unimodular(self.metric, "metric"))


@dataclass(frozen=True, eq=False)
class WeightData:
    """The n linear-part weight covectors plus the unimodular metric."""

    weights: np.ndarray
    metric: np.ndarray

    def __post_init__(self):
        w = sort_weights(self.weights)
        w.setflags(write=False)
        q = check_symmetric(self.metric)
        q.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "metric", q)

    @property
    def varpi(self):
        """Negated mean of the off-diagonal dual pairings (symmetric,
        unbiased estimate of the weights-equation constant)."""
        gram = self.weights @ np.linalg.inv(self.metric) @ self.weights.T
        k = gram.shape[0]
        off = gram[~np.eye(k, dtype=bool)]
        return float(-np.mean(off))

    @property
    def type_t(self):
        return int(np.sum(nonzero(np.max(np.abs(self.weights), axis=1, initial=0.0))))


def weights_of(cusp):
    """All n+1 affine weight covectors, read off the diagonals of the cached
    upper-triangular generators.

    As an independent cross-check, the characteristic polynomial at a few
    probe vectors is rebuilt from the traces of powers via Newton's
    identities and compared with the product of the eigenvalue factors.
    """
    n = cusp.n
    w = np.zeros((n + 1, n - 1))
    for i, g in enumerate(cusp.generators):
        w[:, i] = np.diag(g)
    rng = np.random.default_rng(_CHARACTER_SEED)
    # probe scale keeps every eigenvalue exp(xi(v)) moderate, else the
    # power-sum route loses all digits
    wmax = max(1.0, float(np.max(np.abs(w))))
    for _ in range(_CHARACTER_PROBES):
        v = rng.standard_normal(n - 1)
        v *= 0.5 / (wmax * max(1.0, np.linalg.norm(v)))
        a = rho(cusp, v)
        powers = []
        ak = np.eye(n + 1)
        for _k in range(n + 1):
            ak = ak @ a
            powers.append(np.trace(ak))
        elem = newton_to_elementary(powers)
        eig = np.exp(w @ v)
        coeffs = np.poly(eig)  # [1, -e1, e2, ...]
        elem_direct = np.array([(-1.0) ** k * coeffs[k] for k in range(1, n + 2)])
        err = maxerr(elem, elem_direct)
        if err > _CHARACTER_CHECK_TOL:
            raise ValueError(
                "character cross-check failed: Newton-identity coefficients "
                "deviate by %g (tolerance %g)" % (err, _CHARACTER_CHECK_TOL)
            )
    return CharacterData(w)


def horosphere_metric(cusp):
    """Unimodular second-order part of the height function at the basepoint,
    in closed form: M^T (I + kappa kappa^T) M with M the effective marking.

    The independent route is the quadratic part of the exact series jet,
    ``unimodular(shape.fit_height_jet(cusp)[0])``.
    """
    kap = cusp.params.kappa
    m = cusp.effective_marking
    return unimodular(m.T @ (np.eye(cusp.n - 1) + np.outer(kap, kap)) @ m)


def complete_invariant(cusp):
    return CompleteInvariant(weights_of(cusp), horosphere_metric(cusp))


def linear_sum_assignment(cost):
    """Exact minimum-sum assignment of a square cost matrix: ``(rows, cols)``
    with ``rows = arange(k)`` and ``cols[i]`` the column given to row i, so
    ``cost[rows, cols].sum()`` is minimal.

    Shortest augmenting paths with dual potentials (the Hungarian method,
    Kuhn 1955), O(k^3) over Python lists: k is n + 1 weight rows, small
    enough that numpy's per-call overhead would dominate.  Non-finite costs
    raise ValueError; a NaN would otherwise never let a path close.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("cost matrix must be square, got shape %r" % (c.shape,))
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix contains non-finite entries")
    k = c.shape[0]
    a = c.tolist()
    inf = float("inf")
    # 1-based rows and columns; column 0 is the root of each augmenting tree
    u = [0.0] * (k + 1)
    v = [0.0] * (k + 1)
    owner = [0] * (k + 1)  # owner[j]: row matched to column j, 0 if free
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        owner[0] = i
        j0 = 0
        minv = [inf] * (k + 1)
        used = [False] * (k + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row = a[i0 - 1]
            ui = u[i0]
            delta = inf
            j1 = 0
            for j in range(1, k + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < minv[j]:
                        minv[j] = reduced
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(k + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    cols = [0] * k
    for j in range(1, k + 1):
        cols[owner[j] - 1] = j - 1
    return np.arange(k), np.array(cols, dtype=np.intp)


def _match_multisets(a, b):
    """Largest covector deviation (max-abs norm) between matched rows, under
    the assignment that minimizes the sum of the deviations."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.inf
    cost = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def eta_distance(e1, e2):
    """Distance between complete invariants: the larger of the metric
    deviation and the weight deviation, which is the max over the weight
    pairs matched by the min-sum assignment (both relative above magnitude
    one)."""
    scale = max(1.0, float(np.max(np.abs(e2.character.weights))))
    dw = _match_multisets(e1.character.weights, e2.character.weights) / scale
    return max(dw, maxerr(e1.metric, e2.metric))


def are_conjugate(c1, c2, tol=1e-8):
    """Marked cusps are conjugate iff their complete invariants agree."""
    if c1.n != c2.n:
        return False
    return eta_distance(complete_invariant(c1), complete_invariant(c2)) <= tol


def _split_weights(weights):
    """Linear-part weights (one zero affine row removed) and the nonzero ones."""
    w = np.asarray(weights, dtype=float)
    live = nonzero(np.max(np.abs(w), axis=1, initial=0.0))
    zero_rows = np.nonzero(~live)[0]
    if len(zero_rows) == 0:
        raise ValueError("weights contain no zero covector")
    keep = np.ones(len(w), dtype=bool)
    keep[zero_rows[0]] = False
    return w[keep], w[keep & live]


def recover_psi_from_invariant(eta):
    """The unique ordered diagonal-model parameter with complete invariant
    ``eta``.

    For 0 < t < n the dual norms N_i of the nonzero weights satisfy
    log N_i = -x_i + (x_1 + ... + x_{t-1} + (t+n) x_t) / (n-1) with
    x_i = log psi_i (psi non-increasing, N non-decreasing); the system matrix
    is nonsingular for every t >= 1.  For t = n the weights satisfy a unique
    positive linear relation whose coefficients are psi up to one scale,
    fixed by the |det| = 1 marking normalization.
    """
    w = eta.character.weights
    n = w.shape[0] - 1
    if n < 3:
        raise ValueError("recovery requires n >= 3")
    _, live = _split_weights(w)
    t = live.shape[0]
    if t == 0:
        return PsiParameter(n, np.zeros(n), ordered=True)
    qinv = np.linalg.inv(eta.metric)
    if t == n:
        r = live
        # left null vector of the n x (n-1) weight matrix: the relation
        # sum_i coeff_i * xi_i = 0 has all-positive coefficients
        uu, _ss, _vt = np.linalg.svd(r, full_matrices=True)
        coeff = uu[:, -1]
        if np.max(coeff) < -np.min(coeff):
            coeff = -coeff
        if np.min(coeff) <= 0:
            raise ValueError("weight relation is not positive; not a valid invariant")
        j = int(np.argmax(coeff))
        rows = np.delete(np.arange(n), j)
        det = abs(np.linalg.det(r[rows]))
        if det <= 0:
            raise ValueError("weight covectors are degenerate")
        psi_n = det ** (1.0 / (n - 1))
        psi = (psi_n / coeff[j]) * coeff
        return PsiParameter(n, np.sort(psi)[::-1], ordered=True)
    norms = np.einsum("ij,jk,ik->i", live, qinv, live)
    y = np.log(np.sort(norms))  # ascending N <-> non-increasing psi
    a = np.full(t, 1.0 / (n - 1))
    a[-1] = (t + n) / (n - 1.0)
    sys = np.eye(t) - np.outer(np.ones(t), a)
    det = np.linalg.det(sys)
    assert abs(det) > 1e-12, "recovery system unexpectedly singular"
    x = np.linalg.solve(sys, -y)
    psi = np.zeros(n)
    psi[:t] = np.exp(x)
    return PsiParameter(n, np.sort(psi)[::-1], ordered=True)


def marked_psi_normal_form(p):
    """The unique ordered diagonal-model parameter of the *marked* class of a
    canonical build on (lambda, kappa) with a |det| = 1 marking.

    The conjugations taking the blown-up model to the diagonal model carry
    non-unimodular reparametrizations, whose determinants fold into a scale
    on psi: for type t = n the factor is |det f|^(1/(n-1)) with
    f = Diag(lam0^2 lam_i); for 0 < t < n it is
    (vk^((n-1)/2) / prod c_i)^(1/t) with c_i the diagonal reparametrization
    of the standardized model and vk^(n-1) = 1 + |kappa|^2.
    """
    n = p.n
    t = p.type_t
    psi0 = np.sort(lambda_to_psi(p).psi)[::-1]
    if t == 0:
        return PsiParameter(n, psi0, ordered=True)
    if t == n:
        s = p.lam[0] ** 2 * float(np.prod(p.lam[1:])) ** (1.0 / (n - 1))
        return PsiParameter(n, s * psi0, ordered=True)
    u = n - 1 - t
    vk_half = np.sqrt(1.0 + float(np.dot(p.kappa, p.kappa)))
    det_c = psi0[t - 1] ** t * np.sqrt(np.prod(psi0[:t])) * psi0[t - 1] ** (u / 2.0)
    s = (vk_half / det_c) ** (1.0 / t)
    return PsiParameter(n, s * psi0, ordered=True)


def weight_data(cusp):
    linear, _ = _split_weights(weights_of(cusp).weights)
    return WeightData(linear, horosphere_metric(cusp))


def weights_equation_residual(w):
    """Max deviation of the off-diagonal dual pairings from the constant
    -varpi (the defining equation of realizable weight data)."""
    gram = w.weights @ np.linalg.inv(w.metric) @ w.weights.T
    k = gram.shape[0]
    varpi = w.varpi
    off = gram[~np.eye(k, dtype=bool)]
    resid = float(np.max(np.abs(off + varpi), initial=0.0))
    if varpi < -1e-8:
        resid = max(resid, -varpi)
    return resid


def varpi_closed_form(p):
    """varpi of a canonical build: lam0^2 * ((1+|kappa|^2)^(1/(n-1)))^(2-n).

    Accepts a parameter point or a marked cusp; the orthonormalized variant
    carries a non-unimodular effective marking whose determinant rescales the
    effective lambda (and hence varpi) accordingly.
    """
    if isinstance(p, MarkedCusp):
        scale = abs(np.linalg.det(p.effective_marking)) ** (1.0 / (p.n - 1))
        params = p.params
    else:
        scale = 1.0
        params = p
    vk = (1.0 + float(np.dot(params.kappa, params.kappa))) ** (1.0 / (params.n - 1))
    return (scale * params.lam[0]) ** 2 * vk ** (2 - params.n)


def _complete_orthonormal(rows, dim):
    """Orthonormal matrix whose trailing rows are the given orthonormal rows."""
    k = len(rows)
    basis = np.zeros((dim, dim))
    if k:
        basis[dim - k:] = rows
    # fill leading rows from the orthogonal complement
    proj = np.eye(dim)
    for r in rows:
        proj -= np.outer(r, r)
    u, s, _ = np.linalg.svd(proj)
    comp = u[:, : dim - k].T
    basis[: dim - k] = comp
    return basis


def realize_weight_data(w, tol=1e-8):
    """A marked cusp whose weight data is ``w``; since weight data determines
    the marked class completely, the round trip is the correctness oracle.

    varpi = 0: the nonzero weights are pairwise dual-orthogonal; lambda reads
    off their dual norms and the marking is an isometry aligning them with
    coordinate covectors.  varpi > 0: all n weights are nonzero, lambda_i =
    sqrt((N_i + varpi)/vk) with vk^(n-1) = (N_0 + varpi)/varpi, and the
    marking is determined by the n-1 largest weights.
    """
    resid = weights_equation_residual(w)
    if resid > tol:
        raise ValueError("weights equation residual %g exceeds %g" % (resid, tol))
    beta = unimodular(w.metric)
    qinv = np.linalg.inv(beta)
    n = w.weights.shape[0]
    dim = n - 1
    norms = np.einsum("ij,jk,ik->i", w.weights, qinv, w.weights)
    order = np.argsort(norms)
    ws = w.weights[order]
    norms = norms[order]
    varpi = max(w.varpi, 0.0)
    scale = max(1.0, float(np.max(norms)))
    if varpi > tol * scale:
        # the smallest weight may read as zero: as lambda0 -> 0 its dual
        # norm N_0 ~ lambda0^4 sinks to roundoff while varpi ~ lambda0^2
        # is still resolved.  Data no cusp realizes fails the weights
        # equation above (a truly zero weight pairs to 0, not -varpi).
        vk = ((norms[0] + varpi) / varpi) ** (1.0 / dim)
        lam = np.sqrt((norms + varpi) / vk)
        kap = lam[0] / lam[1:]
        p = BlownUpWeylPoint(n, lam, kap)
        marking = ws[1:] / lam[1:, None]
        model_xi0 = -lam[0] * (kap @ marking)
        if maxerr(model_xi0, ws[0]) > 1e-6:
            raise ValueError("dependent weight inconsistent with the remaining ones")
        return build_marked_cusp(p, marking)
    mags = np.sqrt(np.maximum(norms, 0.0))
    # At most n - 1 weights are nonzero here.  This couples the zero test to
    # the varpi snap above: as lambda0 -> 0, varpi ~ lambda0^2 drops below
    # tol and snaps to 0 while the dependent weight, of size ~ lambda0^2
    # kappa, still reads as nonzero.  It is the smallest of the n and is
    # taken as the zero one.  Data with n genuinely nonzero weights fails the
    # weights equation instead: n vectors in R^(n-1) whose pairings all lie
    # within tol of each other include a tiny one.
    t = min(int(np.sum(nonzero(mags))), dim)
    lam = np.zeros(n)
    lam[n - t:] = mags[n - t:]
    p = BlownUpWeylPoint(n, lam, np.zeros(dim))
    # rows q_j = beta^(-1/2) xi_j / lam_j are orthonormal; complete and pull back
    sqrt_beta, inv_sqrt, _ = sqrt_forms(beta)
    qrows = [(inv_sqrt @ ws[n - t + j]) / lam[n - t + j] for j in range(t)]
    omat = _complete_orthonormal(np.array(qrows).reshape(t, dim) if t else [], dim)
    marking = omat @ sqrt_beta
    return build_marked_cusp(p, marking)


def frame_to_weight_data(a, vs):
    """Weight data from an upper-unipotent frame change and n vectors with
    constant pairwise inner product -varpi: weights xi_i = (A^T v_i)^T and
    metric A^T A.  Both conditions hold to _FRAME_TOL = 1e-8."""
    a = np.asarray(a, dtype=float)
    vs = np.asarray(vs, dtype=float)
    dim = a.shape[0]
    if a.shape != (dim, dim) or np.max(np.abs(np.tril(a, -1))) > 0 or maxerr(
        np.diag(a), np.ones(dim)
    ) > _FRAME_TOL:
        raise ValueError("frame matrix must be upper unipotent")
    if vs.shape != (dim + 1, dim):
        raise ValueError("need n = dim+1 vectors of length dim")
    gram = vs @ vs.T
    off = gram[~np.eye(dim + 1, dtype=bool)]
    if np.max(np.abs(off - np.mean(off))) > _FRAME_TOL * max(1.0, np.max(np.abs(gram))):
        raise ValueError("pairwise inner products are not constant")
    if np.mean(off) > _FRAME_TOL:
        raise ValueError("pairwise inner products must be -varpi <= 0")
    weights = vs @ a
    return WeightData(weights, unimodular(a.T @ a))


def projectivize_character(cd):
    """Shift every weight by the mean so the collection has zero sum (the
    determinant-one renormalization of the representation)."""
    mu = np.mean(cd.weights, axis=0)
    return CharacterData(cd.weights - mu, affine=False), mu


def middle_weight(weights):
    """The unique weight value xi with xi(v) <= max of the others for all v,
    tested on cube vertices and random probes; ties between distinct values
    raise MiddleWeightTie."""
    w = np.asarray(weights, dtype=float)
    k, dim = w.shape
    probes = []
    for mask in range(2 ** dim):
        probes.append([1000.0 if mask >> i & 1 else -1000.0 for i in range(dim)])
    rng = np.random.default_rng(_MIDDLE_SEED)
    for _ in range(64):
        z = rng.standard_normal(dim)
        probes.append(1000.0 * z / np.linalg.norm(z))
    probes = np.array(probes)
    vals = probes @ w.T  # (probes, k)
    scale = max(1.0, float(np.max(np.abs(vals))))
    passing = []
    for i in range(k):
        others = np.delete(vals, i, axis=1)
        if np.all(vals[:, i] <= np.max(others, axis=1) + _MIDDLE_TOL * scale):
            passing.append(i)
    if not passing:
        raise ValueError("no middle weight found")
    vals_set = [w[passing[0]]]
    for i in passing[1:]:
        if maxerr(w[i], vals_set[0]) > 1e-8:
            raise MiddleWeightTie(
                "distinct weight values %r and %r both satisfy the middle "
                "condition" % (vals_set[0], w[i])
            )
    return w[passing[0]].copy()


def unprojectivize_character(cd):
    """Invert projectivize_character: shift so the middle weight is zero."""
    mid = middle_weight(cd.weights)
    return CharacterData(cd.weights - mid)


def stratum_dim(n, t):
    """Dimension of the type-t stratum of the marked moduli space."""
    if not 0 <= t <= n:
        raise ValueError("type must satisfy 0 <= t <= n")
    if t == n:
        return n * n - n
    u = n - 1 - t
    return t + ((n - 1) ** 2 - 1) - u * (u - 1) // 2


def limit_demo_rows(kappa, m_max, n):
    """Convergence table of the diagonalizable family (lam0 = 1/m) toward its
    lam0 = 0 limit with kappa fixed: generator and invariant distances."""
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa <= 0) or np.any(kappa > 1):
        raise ValueError("kappa entries must lie in (0, 1]")
    order = np.argsort(-kappa)  # descending kappa gives ascending lambda
    kap = kappa[order]
    limit_point = BlownUpWeylPoint(n, np.zeros(n), kap)
    limit_gens = [
        expm(lie_algebra_phi(limit_point, col)) for col in np.eye(n - 1)
    ]
    limit_eta = complete_invariant(build_marked_cusp(limit_point))
    rows = []
    m = 10
    while m <= m_max:
        lam = np.concatenate([[1.0 / m], (1.0 / m) / kap])
        p = BlownUpWeylPoint(n, lam, kap)
        gens = [expm(lie_algebra_phi(p, col)) for col in np.eye(n - 1)]
        gen_dist = max(
            float(np.max(np.abs(a - b))) for a, b in zip(gens, limit_gens)
        )
        inv_dist = eta_distance(complete_invariant(build_marked_cusp(p)), limit_eta)
        rows.append(
            {
                "m": m,
                "lambda0": 1.0 / m,
                "generator_distance": gen_dist,
                "invariant_distance": inv_dist,
            }
        )
        m *= 10
    return rows
