"""The shape invariant [q + c]: forward computation by three independent
routes (exact series height jet, closed-form calibration, weighted cubes of
weights), harmonic/radial analysis, and the inverse map from shapes back to
marked cusps via constrained maximization on the q-unit sphere.
"""

from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .cusp_groups import (
    BlownUpWeylPoint,
    PsiParameter,
    build_marked_cusp,
    lambda_to_psi,
    orbit_point,
    psi_to_lambda,
)
from .invariants import WeightData
from .linalg import check_symmetric, cholesky_upper, maxerr, unimodular

__all__ = [
    "CubicPoly",
    "ShapeInvariant",
    "SphereMaxima",
    "height_jet",
    "height_at",
    "fit_height_jet",
    "theta_calibration",
    "shape_invariant",
    "J_psi_eval",
    "restricted_diag_calibration",
    "cubic_from_weights",
    "radial_projection",
    "is_affine_sphere",
    "affine_normal_at_base",
    "sphere_local_maxima",
    "recover_cusp_from_shape",
]

# Pairwise q-inner products of positive maxima below this mean "orthogonal
# type" in recovery; the diagonalizable case has all of them strictly negative.
ORTHO_TOL = 1e-6


def _multiplicity(idx):
    """Number of distinct permutations of a sorted index triple."""
    i, j, k = idx
    if i == j == k:
        return 1
    if i == j or j == k:
        return 3
    return 6


@dataclass(frozen=True, eq=False)
class CubicPoly:
    """Homogeneous cubic on R^dim stored as a symmetric 3-tensor."""

    dim: int
    tensor: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=float)
        if t.shape != (self.dim,) * 3:
            raise ValueError("tensor must be (dim,dim,dim)")
        t = (
            t
            + t.transpose(0, 2, 1)
            + t.transpose(1, 0, 2)
            + t.transpose(1, 2, 0)
            + t.transpose(2, 0, 1)
            + t.transpose(2, 1, 0)
        ) / 6.0
        t.setflags(write=False)
        object.__setattr__(self, "tensor", t)

    @classmethod
    def zero(cls, dim):
        return cls(dim, np.zeros((dim,) * 3))

    @classmethod
    def from_covector_cubes(cls, covectors, coefficients):
        """sum_i coeff_i * (xi_i)^3 as a cubic polynomial."""
        covectors = np.asarray(covectors, dtype=float)
        dim = covectors.shape[1]
        t = np.einsum("a,ai,aj,ak->ijk", np.asarray(coefficients, float), covectors,
                      covectors, covectors)
        return cls(dim, t)

    @classmethod
    def from_monomials(cls, dim, mono):
        t = np.zeros((dim,) * 3)
        for exps, coeff in mono.items():
            idx = []
            for var, e in enumerate(exps):
                idx.extend([var] * int(e))
            if len(idx) != 3:
                raise ValueError("monomial %r is not degree 3" % (exps,))
            # one entry per monomial; the constructor's symmetrization spreads
            # it over the index orbit, leaving coeff/multiplicity in each slot
            t[tuple(sorted(idx))] = coeff
        return cls(dim, t)

    def monomials(self):
        """Coefficient of each monomial prod v^e, keyed by exponent tuple."""
        out = {}
        for idx in combinations_with_replacement(range(self.dim), 3):
            coeff = self.tensor[idx] * _multiplicity(idx)
            exps = [0] * self.dim
            for i in idx:
                exps[i] += 1
            out[tuple(exps)] = float(coeff)
        return out

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        return np.einsum("ijk,...i,...j,...k->...", self.tensor, v, v, v)

    def gradient(self, v):
        v = np.asarray(v, dtype=float)
        return 3.0 * np.einsum("ijk,...j,...k->...i", self.tensor, v, v)

    def hessian(self, v):
        v = np.asarray(v, dtype=float)
        return 6.0 * np.einsum("ijk,k->ij", self.tensor, v)

    def compose_linear(self, a):
        """The cubic v -> c(A v)."""
        a = np.asarray(a, dtype=float)
        t = np.einsum("ijk,ia,jb,kc->abc", self.tensor, a, a, a)
        return CubicPoly(self.dim, t)

    def scaled(self, s):
        return CubicPoly(self.dim, float(s) * self.tensor)

    def coeff_norm(self):
        return float(np.max(np.abs(self.tensor))) * 6.0


@dataclass(frozen=True, eq=False)
class ShapeInvariant:
    """Canonical representative of [q + c]: q unimodular positive definite,
    the cubic carried along with the same scalar."""

    q: np.ndarray
    c: CubicPoly

    def __post_init__(self):
        q = check_symmetric(self.q)
        if abs(np.linalg.det(q) - 1.0) > 1e-9:
            raise ValueError("q must be unimodular (det %g)" % np.linalg.det(q))
        if np.min(np.linalg.eigvalsh(q)) <= 0:
            raise ValueError("q must be positive definite")
        if self.c.dim != q.shape[0]:
            raise ValueError("q and c dimensions differ")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @classmethod
    def canonical(cls, q_raw, c_raw):
        """Scale q+c by the unique positive scalar making det q = 1."""
        q_raw = check_symmetric(q_raw)
        det = np.linalg.det(q_raw)
        if det <= 0:
            raise ValueError("quadratic part must be positive definite")
        s = det ** (-1.0 / q_raw.shape[0])
        return cls(s * q_raw, c_raw.scaled(s))

    def distance(self, other):
        dq = maxerr(self.q, other.q)
        scale = max(1.0, other.c.coeff_norm())
        dc = float(np.max(np.abs(self.c.tensor - other.c.tensor))) * 6.0 / scale
        return max(dq, dc)


def _height_covector(gens, base):
    """Cofactor covector h of the tangent frame u = [G_i base], so that
    det[u, w] = h . w, oriented so that heights rise from the basepoint.

    Returned with a zero last slot, as a covector on homogeneous coordinates:
    the generators have a zero bottom row, so h . x reads the affine chart.
    """
    n = len(base) - 1
    u = (gens @ base)[:, :n].T
    sing = np.linalg.svd(u, compute_uv=False)
    if sing[-1] < 1e-12 * max(1.0, sing[0]):
        raise ValueError("degenerate tangent frame: cusp data is not strictly convex")
    cof = [(-1.0) ** (k + n - 1) * np.linalg.det(np.delete(u, k, axis=0)) for k in range(n)]
    h = np.append(cof, 0.0)
    # the quadratic jet of a convex orbit is definite, so its trace has its sign
    return h if np.einsum("a,iab,ibc,c->", h, gens, gens, base) > 0 else -h


def height_jet(gens, base):
    """Exact 2- and 3-jet of the height of the orbit v -> exp(A(v)) base,
    A(v) = sum_i v_i G_i, over its tangent hyperplane at ``base``.

    The height is the frame determinant det[u, exp(A(v)) base], linear in its
    last column, so the degree-k term is h . A(v)^k base / k! exactly:
    q_ij = (1/2) sym(h G_i G_j base) and c_ijk = (1/6) sym(h G_i G_j G_k base).
    Returns (quadratic form matrix, CubicPoly), unnormalized, with q positive
    definite.
    """
    gens = np.asarray(gens, dtype=float)
    base = np.asarray(base, dtype=float)
    h = _height_covector(gens, base)
    left, right = h @ gens, gens @ base
    d2 = left @ right.T
    q = 0.25 * (d2 + d2.T)
    if np.min(np.linalg.eigvalsh(q)) <= 0:
        raise ValueError("height jet is not definite: the orbit is not strictly convex")
    return q, CubicPoly(len(gens), np.einsum("ia,jab,kb->ijk", left, gens, right) / 6.0)


def height_at(cusp, v):
    """Height of the orbit point over the tangent hyperplane at the basepoint,
    as the frame determinant; the sign makes heights non-negative near 0."""
    h = _height_covector(np.asarray(cusp.generators), np.eye(cusp.n + 1)[cusp.n])
    return float(h[: cusp.n] @ orbit_point(cusp, v))


def fit_height_jet(cusp):
    """2- and 3-jet of the height function of the cusp's orbit of the origin,
    computed exactly by ``height_jet`` (no sampling, no fitting).

    Returns (quadratic form matrix, CubicPoly), unnormalized.
    """
    return height_jet(cusp.generators, np.eye(cusp.n + 1)[cusp.n])


def theta_calibration(p):
    """Raw calibration of the canonical model: quadratic I + kappa kappa^T and
    cubic (1/3)(sum_i lam_i e_i^3 - lam_0 <.,kappa>^3)."""
    if not isinstance(p, BlownUpWeylPoint):
        raise TypeError("expected a BlownUpWeylPoint")
    dim = p.n - 1
    q = np.eye(dim) + np.outer(p.kappa, p.kappa)
    covs = np.vstack([np.eye(dim), p.kappa])
    coeffs = np.concatenate([p.lam[1:] / 3.0, [-p.lam[0] / 3.0]])
    return q, CubicPoly.from_covector_cubes(covs, coeffs)


def shape_invariant(cusp, method="fit"):
    """Canonical shape invariant of a marked cusp.

    "fit" takes the exact series jet of the height function; "closed" composes
    the model calibration with the effective marking.  Both are normalized to
    det q = 1, so they agree as functions.
    """
    if method == "fit":
        q_raw, c_raw = fit_height_jet(cusp)
        return ShapeInvariant.canonical(q_raw, c_raw)
    if method == "closed":
        q_raw, c_raw = theta_calibration(cusp.params)
        m = cusp.effective_marking
        return ShapeInvariant.canonical(m.T @ q_raw @ m, c_raw.compose_linear(m))
    raise ValueError("unknown method %r" % (method,))


def J_psi_eval(psi, x, tol=1e-9):
    """Diagonal-model calibration (1/2)<p,x^2> + (1/6)<p,x^3> in the psi
    inner product, for x in the kernel hyperplane of psi."""
    if not isinstance(psi, PsiParameter):
        psi = PsiParameter(len(psi), np.asarray(psi, float), ordered=False)
    x = np.asarray(x, dtype=float)
    w = psi.psi
    pairing = float(np.dot(w, x))
    if abs(pairing) > tol * max(1.0, float(np.max(np.abs(x))) * float(np.max(w, initial=0.0))):
        raise ValueError("x is not in the kernel of psi (<p,x>_psi = %g)" % pairing)
    return 0.5 * float(np.dot(w, x * x)) + float(np.dot(w, x * x * x)) / 6.0


def restricted_diag_calibration(psi):
    """The diagonal-model calibration restricted to the kernel hyperplane:
    returns (q, c, basis) with q the psi-Gram of the basis columns and c the
    restricted cubic (including its 1/6)."""
    if not isinstance(psi, PsiParameter):
        psi = PsiParameter(len(psi), np.asarray(psi, float), ordered=False)
    n = psi.n
    w = psi.psi
    if psi.type_t != n:
        raise ValueError("restriction needs all psi positive")
    # null space of the covector (psi_1, ..., psi_n)
    _, _, vt = np.linalg.svd(w[None, :])
    basis = vt[1:].T  # n x (n-1), orthonormal columns spanning ker psi
    q = basis.T @ np.diag(w) @ basis
    t = np.einsum("a,ai,aj,ak->ijk", w / 6.0, basis, basis, basis)
    return q, CubicPoly(n - 1, t), basis


def cubic_from_weights(wd, tol=1e-12):
    """Shape invariant straight from weight data:
    c = (1/3) sum_i xi_i^3 / (<xi_i,xi_i>* + varpi), zero weights dropped."""
    if not isinstance(wd, WeightData):
        raise TypeError("expected WeightData")
    beta = unimodular(wd.metric)
    qinv = np.linalg.inv(beta)
    w = wd.weights
    norms2 = np.einsum("ij,jk,ik->i", w, qinv, w)
    varpi = max(wd.varpi, 0.0)
    scale = max(1.0, float(np.max(norms2)))
    covs, coeffs = [], []
    for i in range(w.shape[0]):
        if norms2[i] <= 1e-20 * scale:
            continue
        denom = norms2[i] + varpi
        if denom <= tol * scale:
            raise ValueError("weight %d has vanishing dual norm + varpi" % i)
        covs.append(w[i])
        coeffs.append(1.0 / (3.0 * denom))
    if not covs:
        return ShapeInvariant(beta, CubicPoly.zero(w.shape[1]))
    return ShapeInvariant(beta, CubicPoly.from_covector_cubes(np.array(covs), coeffs))


def _inv_sqrt(q):
    evals, evecs = np.linalg.eigh(q)
    if np.min(evals) <= 0:
        raise ValueError("form is not positive definite")
    return (evecs / np.sqrt(evals)) @ evecs.T


def radial_projection(q, c):
    """The vector v whose radial cubic |x|_q^2 <v,x>_q is the q-radial part
    of c; zero exactly when c is q-harmonic.

    In standard coordinates the projection of a cubic p is
    (2m+4)^(-1) grad(Laplace p); it is transported to q by an isometry.
    """
    q = check_symmetric(q)
    m = q.shape[0]
    lmat = _inv_sqrt(q)  # isometry from the standard form to q
    cl = c.compose_linear(lmat)
    trace_vec = 6.0 * np.einsum("iij->j", cl.tensor)
    return lmat @ (trace_vec / (2.0 * m + 4.0))


def is_affine_sphere(cusp, tol=1e-8):
    """True when the boundary surface is an affine sphere, i.e. the cubic of
    the shape invariant is harmonic with respect to its quadratic."""
    shape = shape_invariant(cusp, method="closed")
    scale = max(1.0, shape.c.coeff_norm())
    return float(np.linalg.norm(radial_projection(shape.q, shape.c))) <= tol * scale


def affine_normal_at_base(q, c):
    """Affine normal at the basepoint in (height, V) coordinates:
    the height direction minus (2m)^(-1) times the radial-projection vector."""
    m = np.asarray(q).shape[0]
    return np.concatenate([[1.0], -radial_projection(q, c) / (2.0 * m)])


SphereMaxima = namedtuple("SphereMaxima", ["points", "values", "degenerate"])


def _q_normalize(q, x):
    return x / np.sqrt(np.einsum("...i,ij,...j->...", x, q, x))[..., None]


def _tangent_basis(q, x):
    normal = q @ x
    _, _, vt = np.linalg.svd(normal[None, :])
    return vt[1:].T


def _newton_polish(q, c, x0, scale, iters=60):
    x = x0.copy()
    alpha = float(x @ c.gradient(x))
    for _ in range(iters):
        g = c.gradient(x)
        qx = q @ x
        f1 = g - alpha * qx
        f2 = 0.5 * (float(x @ qx) - 1.0)
        fnorm = max(np.max(np.abs(f1)), abs(f2))
        if fnorm <= 1e-13 * scale:
            return x, alpha, True
        jac = np.zeros((len(x) + 1, len(x) + 1))
        jac[: len(x), : len(x)] = c.hessian(x) - alpha * q
        jac[: len(x), -1] = -qx
        jac[-1, : len(x)] = qx
        try:
            step = np.linalg.solve(jac, -np.concatenate([f1, [f2]]))
        except np.linalg.LinAlgError:
            return x, alpha, False
        x = x + step[:-1]
        alpha = alpha + step[-1]
    g = c.gradient(x)
    qx = q @ x
    fnorm = max(np.max(np.abs(g - alpha * qx)), abs(0.5 * (float(x @ qx) - 1.0)))
    return x, alpha, fnorm <= 1e-10 * scale


def sphere_local_maxima(q, c, seed=0, restarts=None, dedup_tol=1e-6):
    """All local maxima of the cubic c restricted to the q-unit sphere.

    Multi-start projected gradient ascent followed by Newton refinement of
    the Lagrange system; maxima are the converged critical points whose
    projected Hessian is negative definite (eigenvalues < -1e-8), deduplicated
    within dedup_tol.  A zero cubic is flagged degenerate (c constant on the
    sphere).
    """
    q = check_symmetric(q)
    m = q.shape[0]
    scale = c.coeff_norm()
    if scale < 1e-14:
        return SphereMaxima(np.zeros((0, m)), np.zeros(0), True)
    n_restarts = restarts if restarts is not None else 100 + 20 * m
    rng = np.random.default_rng(seed)
    # area-uniform on the q-sphere: push the round sphere through q^(-1/2)
    draws = rng.standard_normal((n_restarts, m))
    draws /= np.linalg.norm(draws, axis=1)[:, None]
    inv_sqrt = _inv_sqrt(q)
    x = draws @ inv_sqrt
    # the degenerate-Hessian test below measures c in a q-orthonormal frame:
    # in the caller's coordinates an ill-conditioned q inflates c's
    # coefficients by orders of magnitude and hides genuine maxima
    frame_scale = c.compose_linear(inv_sqrt).coeff_norm()
    step = np.full(n_restarts, 0.5)
    vals = c(x)
    for _ in range(200):
        grad = c.gradient(x)
        normals = x @ q
        coef = np.einsum("ri,ri->r", grad, normals) / np.einsum("ri,ri->r", normals, normals)
        tang = grad - coef[:, None] * normals
        gnorm = np.max(np.abs(tang), axis=1)
        if np.all(gnorm < 1e-9 * scale):
            break
        trial = _q_normalize(q, x + step[:, None] * tang)
        tvals = c(trial)
        better = tvals > vals
        x[better] = trial[better]
        vals[better] = tvals[better]
        step[better] = np.minimum(step[better] * 1.3, 2.0)
        step[~better] *= 0.5
        step = np.maximum(step, 1e-6)
    # cluster ascent endpoints, then polish one representative per cluster
    reps = x[:0]
    for i in np.argsort(-vals):
        if np.all(np.max(np.abs(reps - x[i]), axis=1) > 1e-3):
            reps = np.vstack([reps, x[i]])
    points, values = [], []
    any_converged = False
    for r in reps:
        xr, alpha, ok = _newton_polish(q, c, r, scale)
        if not ok:
            continue
        any_converged = True
        basis = _tangent_basis(q, xr)
        hess = basis.T @ (c.hessian(xr) - alpha * q) @ basis
        evals = np.linalg.eigvalsh(hess)
        if np.max(evals) >= -1e-8:
            continue
        # points on a degenerate critical manifold carry a near-zero Hessian
        # whose sign is set by how far Newton stalled from the manifold;
        # genuine maxima curve at the scale of c (gap of several orders)
        if np.max(np.abs(evals)) < 1e-4 * max(1.0, frame_scale):
            continue
        if all(np.max(np.abs(xr - p)) > dedup_tol for p in points):
            points.append(xr)
            values.append(float(c(xr)))
    if not any_converged:
        raise RuntimeError(
            "sphere optimizer failed to converge; best candidates: %r" % (reps[:3],)
        )
    order = np.argsort(-np.asarray(values)) if values else []
    pts = np.array([points[i] for i in order]) if len(values) else np.zeros((0, m))
    vls = np.array([values[i] for i in order])
    return SphereMaxima(pts, vls, False)


def _diag_model_maxima(p_model):
    """Closed-form local maxima (points on the canonical q-sphere, values) of
    the canonical shape of a diagonalizable model, via the kernel-restricted
    diagonal calibration transported through the model coordinates."""
    n = p_model.n
    lam = p_model.lam
    psi_arr = lambda_to_psi(p_model).psi  # slot i<n-1 <-> lam[i+1], slot n-1 <-> lam[0]
    s_tot = float(np.sum(psi_arr))
    shape = ShapeInvariant.canonical(*theta_calibration(p_model))
    pts, vals = [], []
    for j in range(n):
        w = s_tot * np.eye(n)[j] - psi_arr[j] * np.ones(n)
        v = w[: n - 1] / lam[1:]
        v = v / np.sqrt(float(v @ shape.q @ v))
        pts.append(v)
        vals.append(float(shape.c(v)))
    return shape, np.array(pts), np.array(vals)


def _psi_fractions_from_gram(gram):
    """psi_i / s from the pairwise inner products of the diagonal-case maxima:
    p_i = a_ij a_ik / (a_ij a_ik - a_jk), averaged over the (j,k) choices."""
    n = gram.shape[0]
    fractions = np.zeros(n)
    for i in range(n):
        acc = []
        for j in range(n):
            for k in range(j + 1, n):
                if i in (j, k):
                    continue
                prod = gram[i, j] * gram[i, k]
                acc.append(prod / (prod - gram[j, k]))
        fractions[i] = np.mean(acc)
    return fractions


def recover_cusp_from_shape(shape, tol=1e-5, seed=0):
    """Invert the shape invariant: a marked cusp whose canonical shape matches
    ``shape`` to ``tol``.

    Branches on the geometry of the sphere maxima: pairwise q-orthogonal
    positive maxima give the non-diagonalizable model (lambda_i = 3 * value);
    a full set of n pairwise-negative maxima gives the diagonalizable one.
    Anything else is rejected as not a cusp shape.
    """
    dim = shape.q.shape[0]
    n = dim + 1
    if n < 3:
        raise ValueError("shape recovery requires n >= 3")
    found = sphere_local_maxima(shape.q, shape.c, seed=seed)
    if len(found.points) < n and not _q_orthogonal(shape.q, found.points[found.values > 0]):
        # a diagonalizable pattern short of its n maxima: a small basin
        # escaped the multistart.  Ten times the restarts from the same seed
        # repeat every start, so this search finds a superset.
        found = sphere_local_maxima(shape.q, shape.c, seed=seed, restarts=10 * (100 + 20 * dim))
    # a cubic at the noise floor of the requested tolerance is the standard
    # cusp: its shape matches with c = 0, which the final check re-verifies
    if found.degenerate or shape.c.coeff_norm() <= 0.1 * tol:
        marking = cholesky_upper(shape.q)
        cusp = build_marked_cusp(BlownUpWeylPoint(n, np.zeros(n), np.zeros(dim)), marking)
        return _verified(cusp, shape, tol)
    pos = found.values > 0
    kplus = found.points[pos]
    kplus_vals = found.values[pos]
    if len(kplus) == 0:
        raise ValueError("no positive local maxima: not a cusp shape")
    if len(kplus) <= dim and _q_orthogonal(shape.q, kplus):
        # non-diagonalizable: values are lambda/3, maxima are q-orthonormal
        kplus, kplus_vals = _complete_orthogonal_maxima(shape, kplus, kplus_vals, tol, seed)
        order = np.argsort(kplus_vals)
        lam_pos = 3.0 * kplus_vals[order]
        t = len(lam_pos)
        lam = np.concatenate([np.zeros(n - t), lam_pos])
        frame = np.zeros((dim, dim))
        frame[:, n - 1 - t:] = kplus[order].T
        comp = _complement_q_orthonormal(shape.q, kplus)
        frame[:, : dim - t] = comp
        marking = np.linalg.inv(frame)
        cusp = build_marked_cusp(BlownUpWeylPoint(n, lam, np.zeros(dim)), marking)
        return _verified(cusp, shape, tol)
    gram_all = found.points @ shape.q @ found.points.T
    off_all = gram_all[~np.eye(len(found.points), dtype=bool)]
    if len(found.points) == n and np.all(off_all < -ORTHO_TOL):
        fractions = _psi_fractions_from_gram(gram_all)
        if np.any(fractions <= 0) or abs(np.sum(fractions) - 1.0) > 1e-3:
            raise ValueError("maxima geometry inconsistent with a diagonalizable cusp")
        fractions = fractions / np.sum(fractions)
        p_model = psi_to_lambda(PsiParameter(n, np.sort(fractions)[::-1], ordered=True))
        model_shape, model_pts, model_vals = _diag_model_maxima(p_model)
        target_order = np.argsort(-found.values)
        model_order = np.argsort(-model_vals)
        tv = found.values[target_order]
        mv = model_vals[model_order]
        # a slot with psi_i = s/2 has value exactly zero in both sets; skip it
        usable = np.abs(mv) > 1e-6 * np.max(np.abs(mv))
        ratios = tv[usable] / mv[usable]
        if np.any(ratios <= 0) or maxerr(ratios, np.full(len(ratios), np.mean(ratios))) > 1e-3:
            raise ValueError("maxima values inconsistent with a diagonalizable cusp")
        s_scale = float(np.mean(ratios)) ** -2.0  # canonical cubic scales as s^(-1/2)
        params = BlownUpWeylPoint(n, p_model.lam / np.sqrt(s_scale), p_model.kappa)
        x_target = found.points[target_order].T
        x_model = model_pts[model_order].T
        marking = x_model @ np.linalg.pinv(x_target)
        cusp = build_marked_cusp(params, marking)
        return _verified(cusp, shape, tol)
    raise ValueError(
        "local-maxima pattern matches neither the orthogonal nor the "
        "diagonalizable branch: not a cusp shape"
    )


def _q_orthogonal(q, points):
    """Whether the points are pairwise q-orthogonal (within ORTHO_TOL)."""
    gram = points @ q @ points.T
    off = gram[~np.eye(len(points), dtype=bool)]
    return len(off) == 0 or np.max(np.abs(off)) <= ORTHO_TOL


def _complete_orthogonal_maxima(shape, points, values, tol, seed):
    """Add the positive maxima the multistart missed in the orthogonal branch.

    There c = sum_j value_j (x_j^T q x)^3 over the q-orthonormal maxima x_j,
    so the cubic left after subtracting the found terms has exactly the
    missing x_j as its positive maxima, and the largest of them has the
    largest basin, which a search finds (a small lambda's basin is often
    missed).  Stops once the remainder is at the noise floor of ``tol`` or
    has no positive maximum.
    """
    floor = 0.1 * tol * max(1.0, shape.c.coeff_norm())
    while len(points) < shape.q.shape[0]:
        found = CubicPoly.from_covector_cubes(points @ shape.q, values)
        rest = CubicPoly(shape.c.dim, shape.c.tensor - found.tensor)
        if rest.coeff_norm() <= floor:
            break
        more = sphere_local_maxima(shape.q, rest, seed=seed)
        if more.degenerate or len(more.values) == 0 or more.values[0] <= 0:
            break
        points = np.vstack([points, more.points[:1]])
        values = np.append(values, more.values[0])
    return points, values


def _complement_q_orthonormal(q, vectors):
    """A q-orthonormal basis of the q-orthogonal complement of the span."""
    dim = q.shape[0]
    k = len(vectors)
    if k == dim:
        return np.zeros((dim, 0))
    half = cholesky_upper(q)  # half^T half = q
    image = vectors @ half.T  # rows: half @ v_i, orthonormal in the standard sense
    _, _, vt = np.linalg.svd(np.atleast_2d(image))
    comp_std = vt[k:].T  # standard-orthonormal complement columns
    return np.linalg.solve(half, comp_std)


def _verified(cusp, shape, tol):
    got = shape_invariant(cusp, method="closed")
    resid = got.distance(shape)
    if resid > tol:
        raise ValueError(
            "recovered cusp reproduces the shape only to %g (tolerance %g); "
            "input is not a cusp shape" % (resid, tol)
        )
    return cusp
