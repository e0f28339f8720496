"""The shape invariant [q + c]: forward computation by three independent
routes (exact series height jet, closed-form calibration, weighted cubes of
weights), harmonic/radial analysis, the local maxima of c on the q-unit
sphere, and the inverse map from shapes back to marked cusps.

The inverse is linear algebra, not a search: in a q-orthonormal frame the
cubic, lifted by one coordinate with the weights-equation constant varpi,
is an orthogonally decomposable tensor whose orthogonal vectors are the
lifted weights; varpi itself comes from the commutators of c's slices.
"""

from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .cusp_groups import BlownUpWeylPoint, PsiParameter, build_marked_cusp, orbit_point
from .invariants import WeightData, realize_weight_data
from .linalg import (
    ROUNDOFF,
    check_symmetric,
    check_unimodular,
    cholesky_upper,
    maxerr,
    nonzero,
    sqrt_forms,
    unimodular,
)

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

# sphere_local_maxima: multistart size (base plus per dimension), the Newton
# steps that polish each representative, and the radius within which two
# polished maxima count as one.
_BASE_RESTARTS = 100
_RESTARTS_PER_DIM = 20
_NEWTON_ITERS = 60
_DEDUP_TOL = 1e-6

# recover_cusp_from_shape: the tensor power steps that polish the
# eigenvectors of its slice, and the shape distance the rebuilt cusp must
# reach.
_POWER_STEPS = 3
_RECOVER_TOL = 1e-5

# J_psi_eval's slack on <psi, x> = 0, relative to |x| max(psi).
_KERNEL_TOL = 1e-9

# is_affine_sphere: largest radial part, relative to the cubic, that counts
# as harmonic.
_HARMONIC_TOL = 1e-8


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
        q = check_unimodular(self.q, "q")
        if self.c.dim != q.shape[0]:
            raise ValueError("q and c dimensions differ")
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


def J_psi_eval(psi, x):
    """Diagonal-model calibration (1/2)<p,x^2> + (1/6)<p,x^3> in the psi
    inner product, for x in the kernel hyperplane of psi (to _KERNEL_TOL =
    1e-9 relative to |x| max(psi))."""
    if not isinstance(psi, PsiParameter):
        psi = PsiParameter(len(psi), np.asarray(psi, float), ordered=False)
    x = np.asarray(x, dtype=float)
    w = psi.psi
    pairing = float(np.dot(w, x))
    scale = max(1.0, float(np.max(np.abs(x))) * float(np.max(w, initial=0.0)))
    if abs(pairing) > _KERNEL_TOL * scale:
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


def cubic_from_weights(wd):
    """Shape invariant straight from weight data:
    c = (1/3) sum_i xi_i^3 / (<xi_i,xi_i>* + varpi), with the zero weights
    (``linalg.nonzero`` on the dual norms) dropped.  Every kept denominator
    exceeds the squared zero threshold, since varpi >= 0."""
    if not isinstance(wd, WeightData):
        raise TypeError("expected WeightData")
    beta = unimodular(wd.metric)
    qinv = np.linalg.inv(beta)
    w = wd.weights
    norms2 = np.einsum("ij,jk,ik->i", w, qinv, w)
    live = nonzero(np.sqrt(np.maximum(norms2, 0.0)))
    if not np.any(live):
        return ShapeInvariant(beta, CubicPoly.zero(w.shape[1]))
    coeffs = 1.0 / (3.0 * (norms2[live] + max(wd.varpi, 0.0)))
    return ShapeInvariant(beta, CubicPoly.from_covector_cubes(w[live], coeffs))


def radial_projection(q, c):
    """The vector v whose radial cubic |x|_q^2 <v,x>_q is the q-radial part
    of c; zero exactly when c is q-harmonic.

    In standard coordinates the projection of a cubic p is
    (2m+4)^(-1) grad(Laplace p); it is transported to q by an isometry.
    """
    q = check_symmetric(q)
    m = q.shape[0]
    lmat = sqrt_forms(q)[1]  # isometry from the standard form to q
    cl = c.compose_linear(lmat)
    trace_vec = 6.0 * np.einsum("iij->j", cl.tensor)
    return lmat @ (trace_vec / (2.0 * m + 4.0))


def is_affine_sphere(cusp):
    """True when the boundary surface is an affine sphere, i.e. the cubic of
    the shape invariant is harmonic with respect to its quadratic (radial
    part at most _HARMONIC_TOL = 1e-8 relative to the cubic)."""
    shape = shape_invariant(cusp, method="closed")
    scale = max(1.0, shape.c.coeff_norm())
    return float(np.linalg.norm(radial_projection(shape.q, shape.c))) <= _HARMONIC_TOL * scale


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


def _newton_polish(q, c, x0, scale):
    x = x0.copy()
    alpha = float(x @ c.gradient(x))
    for _ in range(_NEWTON_ITERS):
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


def sphere_local_maxima(q, c, seed=0):
    """All local maxima of the cubic c restricted to the q-unit sphere.

    Multi-start projected gradient ascent followed by Newton refinement of
    the Lagrange system; maxima are the converged critical points whose
    projected Hessian is negative definite (eigenvalues < -1e-8), deduplicated
    within _DEDUP_TOL.  A zero cubic is flagged degenerate (c constant on the
    sphere).  Shape recovery does not use it; it is the independent search
    that the battery checks against the closed-form maxima.
    """
    q = check_symmetric(q)
    m = q.shape[0]
    scale = c.coeff_norm()
    if scale < 1e-14:
        return SphereMaxima(np.zeros((0, m)), np.zeros(0), True)
    n_restarts = _BASE_RESTARTS + _RESTARTS_PER_DIM * m
    rng = np.random.default_rng(seed)
    # area-uniform on the q-sphere: push the round sphere through q^(-1/2)
    draws = rng.standard_normal((n_restarts, m))
    draws /= np.linalg.norm(draws, axis=1)[:, None]
    inv_sqrt = sqrt_forms(q)[1]
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
        if all(np.max(np.abs(xr - p)) > _DEDUP_TOL for p in points):
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


def recover_cusp_from_shape(shape):
    """Invert the shape invariant: a marked cusp whose canonical shape matches
    ``shape`` to _RECOVER_TOL = 1e-5, by one odeco lift (Robeva 2016;
    Anandkumar et al. 2014) and no search.

    In the q-orthonormal frame y = q^(1/2) x the weights route reads
    c(y) = (1/3) sum_i (a_i . y)^3 / (N_i + varpi) with a_i . a_j = -varpi
    and |a_i|^2 = N_i.  The lifted vectors b_i = (a_i, sqrt(varpi)) of R^n
    are pairwise orthogonal and sum_i b_i b_i^T / |b_i|^2 = I, so
    T(y, s) = c(y) + sqrt(varpi) s |y|^2 + (sqrt(varpi)/3) s^3
    = (1/3) sum_i |b_i| (u_i . (y, s))^3 is orthogonally decomposable with
    unit vectors u_i = b_i / |b_i|.  varpi comes first, in closed form: the
    slices C_k = c(., ., e_k) satisfy [C_k, C_l] = -(varpi/9)(e_k e_l^T -
    e_l e_k^T).  One slice T(., ., w) then has the u_i as eigenvectors, a few
    tensor power steps polish them, b_i = 3 T(u_i, u_i, u_i) u_i, and the
    weights xi_i = a_i^T q^(1/2) go to ``realize_weight_data``.  The
    orthogonal (non-diagonalizable) branch is varpi = 0, where the s slot
    is a null direction.  The rebuilt cusp's shape must match to
    _RECOVER_TOL.
    """
    dim = shape.q.shape[0]
    n = dim + 1
    if n < 3:
        raise ValueError("shape recovery requires n >= 3")
    # a cubic at the noise floor of the required tolerance is the standard
    # cusp: its shape matches with c = 0, which the final check re-verifies
    if shape.c.coeff_norm() <= 0.1 * _RECOVER_TOL:
        marking = cholesky_upper(shape.q)
        cusp = build_marked_cusp(BlownUpWeylPoint(n, np.zeros(n), np.zeros(dim)), marking)
        return _verified(cusp, shape)
    root, inv_root, evals = sqrt_forms(shape.q)
    cy = shape.c.compose_linear(inv_root).tensor
    size = 3.0 * float(np.max(np.abs(cy)))  # the largest |b_i|, roughly
    # Noise floor, relative to size.  The frame change amplifies roundoff in
    # c by about cond(q)^(3/2), one factor cond(q)^(1/2) per tensor slot;
    # without that factor, markings R diag(1, 3e3) R^T fail.  It is at least
    # realize_weight_data's default 1e-8: shapes read back from 12-digit
    # JSON carry noise of ~1e-12, and a weight this small moves c by less.
    floor = max(ROUNDOFF * np.finfo(float).eps * (evals[-1] / evals[0]) ** 1.5, 1e-8)
    # comm[k, l] is the (k, l) entry of [C_k, C_l], each one -varpi/9
    comm = np.einsum("kak,all->kl", cy, cy) - np.einsum("kal,alk->kl", cy, cy)
    varpi = -9.0 * float(np.mean(comm[~np.eye(dim, dtype=bool)]))
    # varpi is a dual pairing of weights, so it is measured against |b|^2.
    # A negative one has no real orthogonal lift.  Within the floor it is
    # noise around varpi = 0 and snaps there: its square root would couple
    # the s slot to every null direction at the much larger sqrt(noise).
    if varpi < -floor * size ** 2:
        raise ValueError("slice commutators give varpi = %g < 0: not a cusp shape" % varpi)
    if varpi <= floor * size ** 2:
        varpi = 0.0
    # T = c + sqrt(varpi) s |y|^2 + (sqrt(varpi)/3) s^3, with s the last slot
    lifted = np.zeros((n, n, n))
    lifted[:dim, :dim, :dim] = cy
    k = np.arange(n)
    lifted[k, k, dim] = lifted[k, dim, k] = lifted[dim, k, k] = np.sqrt(varpi) / 3.0
    # a fixed slice direction with no symmetry, so that the eigenvalues
    # |b_i| (u_i . w) / 3 are distinct
    _, vecs = np.linalg.eigh(lifted @ np.cos(np.arange(1.0, n + 1.0)))
    # power-iterate only the non-null directions, those with a lifted
    # coefficient 3 T(v, v, v) above the floor: a null one has no component
    # of its own and would converge onto, and duplicate, a real u_i
    coef = 3.0 * np.einsum("abc,ai,bi,ci->i", lifted, vecs, vecs, vecs)
    u = vecs[:, np.abs(coef) > floor * size].T
    for _ in range(_POWER_STEPS):
        u = np.einsum("abc,ib,ic->ia", lifted, u, u)
        u /= np.linalg.norm(u, axis=1)[:, None]
    b = 3.0 * np.einsum("abc,ia,ib,ic->i", lifted, u, u, u)[:, None] * u
    xi = np.zeros((n, dim))
    xi[: len(b)] = b[:, :dim] @ root
    # realize_weight_data tests the spread of the weights' dual pairings in
    # absolute units; a snapped varpi leaves a spread below itself
    try:
        cusp = realize_weight_data(WeightData(xi, shape.q), tol=floor * max(1.0, size ** 2))
    except ValueError as exc:
        raise ValueError("lifted weights are unrealizable (%s): not a cusp shape" % exc) from None
    return _verified(cusp, shape)


def _verified(cusp, shape):
    got = shape_invariant(cusp, method="closed")
    resid = got.distance(shape)
    if resid > _RECOVER_TOL:
        raise ValueError(
            "recovered cusp reproduces the shape only to %g (tolerance %g); "
            "input is not a cusp shape" % (resid, _RECOVER_TOL)
        )
    return cusp
