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
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

from .cusp_groups import PsiParameter, orbit_point
from .invariants import (
    REALIZE_TOL,
    NotRealizable,
    WeightData,
    _live_rows,
    _unit_scaled,
    dual_gram,
    metric_and_scale,
    realize_weight_data,
)
from .linalg import (
    ROUNDOFF,
    ZERO,
    check_symmetric,
    check_unimodular,
    maxerr_symmetric,
    sqrt_forms,
    unimodular_scale,
)

__all__ = [
    "CubicPoly",
    "ShapeInvariant",
    "SphereMaxima",
    "height_jet",
    "height_at",
    "fit_height_jet",
    "shape_invariant",
    "restricted_diag_calibration",
    "cubic_from_weights",
    "radial_projection",
    "is_affine_sphere",
    "sphere_local_maxima",
    "recover_cusp_from_shape",
    "SHAPE_TOL",
]

# sphere_local_maxima: multistart size (base plus per dimension), the Newton
# steps that polish each representative, and the radius within which two
# polished maxima count as one.
_BASE_RESTARTS = 100
_RESTARTS_PER_DIM = 20
_NEWTON_ITERS = 60
_DEDUP_TOL = 1e-6

# recover_cusp_from_shape: the tensor power steps that polish the
# eigenvectors of its slice.
_POWER_STEPS = 3

# Two shapes (or two routes to one cubic) agree when they are within
# SHAPE_TOL: the distance a recovered cusp's shape must reach.
SHAPE_TOL = 1e-5

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


@lru_cache(maxsize=None)
def _transpose_gather(dim):
    """Flat indices of the six index transposes of a (dim, dim, dim) tensor,
    one row each, in lexicographic order of the permutations (the identity
    first), read-only: row p of ``t.ravel()[g]`` is ``t.transpose(p).ravel()``.
    """
    flat = np.arange(dim**3).reshape((dim,) * 3)
    gather = np.stack([flat.transpose(p).ravel() for p in permutations(range(3))])
    gather.setflags(write=False)
    return gather


@dataclass(frozen=True, eq=False)
class CubicPoly:
    """Homogeneous cubic on R^dim stored as a symmetric 3-tensor."""

    dim: int
    tensor: np.ndarray

    def __post_init__(self):
        shape = (self.dim,) * 3
        t = np.asarray(self.tensor, dtype=float)
        if t.shape != shape:
            raise ValueError("tensor must be (dim,dim,dim)")
        # the mean of the six transposes, summed one after another in the
        # gather's row order; -0.0 is the exact identity of addition, so a
        # sum of zeros keeps its sign, as t + t^(021) + ... + t^(210) does
        t = np.add.reduce(t.reshape(-1)[_transpose_gather(self.dim)], axis=0, initial=-0.0)
        t = (t / 6.0).reshape(shape)
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
        """sum coeff * x^exps over ``mono``, whose keys are tuples of dim
        non-negative exponents summing to 3."""
        t = np.zeros((dim,) * 3)
        for exps, coeff in mono.items():
            # tested before the index is built: a key from a file may hold
            # an exponent of any size
            if len(exps) != dim or sum(exps) != 3 or min(exps) < 0:
                raise ValueError("monomial %r is not of degree 3 in %d variables" % (exps, dim))
            # one entry per monomial; the constructor's symmetrization spreads
            # it over the index orbit, leaving coeff/multiplicity in each slot
            t[tuple(var for var, e in enumerate(exps) for _ in range(e))] = coeff
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

    def compose_linear(self, a):
        """The cubic v -> c(A v), contracting one index of the tensor at a
        time: three matrix products, O(d^4)."""
        a = np.asarray(a, dtype=float)
        d = self.dim
        t = (self.tensor.reshape(d * d, d) @ a).reshape(d, d, d)
        t = a.T @ t
        t = (a.T @ t.reshape(d, d * d)).reshape(d, d, d)
        return CubicPoly(d, t)

    def scaled(self, s):
        return CubicPoly(self.dim, float(s) * self.tensor)

    def coeff_norm(self):
        return float(np.abs(self.tensor).max()) * 6.0


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
        """Scale q+c by the unique positive scalar making det q = 1
        (``linalg.unimodular_scale``, which also checks q)."""
        q, s = unimodular_scale(q_raw, "q")
        return cls(q, c_raw.scaled(s))

    def distance(self, other):
        """Symmetric in the two shapes: the larger of ``maxerr_symmetric`` on
        q (unimodular, so it has no size) and the cubic deviation relative
        to the larger ``coeff_norm`` (0 when both cubics are zero)."""
        dq = maxerr_symmetric(self.q, other.q)
        dc = float(np.abs(self.c.tensor - other.c.tensor).max()) * 6.0
        if dc:
            dc /= max(self.c.coeff_norm(), other.c.coeff_norm())
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
    if sing[-1] <= ZERO * sing[0]:
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
    h = _height_covector(cusp.generators, np.eye(cusp.n + 1)[cusp.n])
    return float(h[: cusp.n] @ orbit_point(cusp, v))


def fit_height_jet(cusp):
    """2- and 3-jet of the height function of the cusp's orbit of the origin,
    computed exactly by ``height_jet`` (no sampling, no fitting).

    Returns (quadratic form matrix, CubicPoly), unnormalized.
    """
    return height_jet(cusp.generators, np.eye(cusp.n + 1)[cusp.n])


def shape_invariant(cusp, method="fit"):
    """Canonical shape invariant of a marked cusp.

    "fit" takes the exact series jet of the height function and scales it
    to det q = 1.  "closed" takes q from the cusp's shared metric
    (``invariants.metric_and_scale``), the very array of its complete
    invariant, which is s C^T C for the calibration frame C = [kappa^T; I] M
    at the effective marking M (the cusp's ``calibration_frame``), and
    cubes C's rows with coefficients (s/3) a, a the model's
    ``coefficients``.  The two routes agree as functions.
    """
    if method == "fit":
        q_raw, c_raw = fit_height_jet(cusp)
        return ShapeInvariant.canonical(q_raw, c_raw)
    if method == "closed":
        q, s = metric_and_scale(cusp)
        frame = cusp.calibration_frame
        return ShapeInvariant(q, CubicPoly.from_covector_cubes(
            frame.T, (s / 3.0) * cusp.params.coefficients))
    raise ValueError("unknown method %r" % (method,))


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
    return q, CubicPoly.from_covector_cubes(basis, w / 6.0), basis


def cubic_from_weights(wd):
    """Shape invariant straight from weight data:
    c = (1/3) sum_i xi_i^3 / (<xi_i,xi_i>* + varpi), with the zero weights
    (``invariants._live_rows``) dropped.  Every kept denominator is
    positive: a live weight has a positive dual norm, and varpi >= 0.

    It is taken from the weights at unit size, w = 2^e w' (``_unit_scaled``):
    c = sum_i (2^e c'_i) w'_i^3 with c'_i the coefficients of w', each
    product the same up to an exact power of 2, so the dual norms do not
    overflow (from weights ~1e154) and the cubic keeps its bits."""
    if not isinstance(wd, WeightData):
        raise TypeError("expected WeightData")
    beta = wd.metric
    w, e = _unit_scaled(wd.weights)
    norms2, _, varpi = dual_gram(w, beta)
    live = _live_rows(w)
    if not live.any():
        return ShapeInvariant(beta, CubicPoly.zero(w.shape[1]))
    coeffs = np.ldexp(1.0 / (3.0 * (norms2[live] + max(varpi, 0.0))), e)
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
    scale = shape.c.coeff_norm()
    return float(np.linalg.norm(radial_projection(shape.q, shape.c))) <= _HARMONIC_TOL * scale


def _frame_noise(evals):
    """Relative roundoff that the frame change y = q^(1/2) x leaves in a
    cubic, from q's ascending eigenvalues: ROUNDOFF eps cond(q)^(3/2), one
    factor cond(q)^(1/2) per tensor slot."""
    return ROUNDOFF * np.finfo(float).eps * (evals[-1] / evals[0]) ** 1.5


SphereMaxima = namedtuple("SphereMaxima", ["points", "values"])


def _cubic_and_gradient(t2, y):
    """c and grad c at the rows of y, by one matmul with the (m*m, m)
    reshape t2 of c's tensor: grad c(y) = 3 t(y, y, .)."""
    grad = 3.0 * (y[:, :, None] * y[:, None, :]).reshape(len(y), -1) @ t2
    return np.sum(grad * y, axis=1) / 3.0, grad


def _newton_polish(t2, y0):
    """Newton on the Lagrange system grad t = alpha y, |y| = 1, of a cubic t
    of unit scale; converged when the residual is zero by ZERO."""
    m = len(y0)
    y = y0.copy()
    alpha = 3.0 * _cubic_and_gradient(t2, y[None])[0][0]
    for it in range(_NEWTON_ITERS + 1):
        f = np.append(_cubic_and_gradient(t2, y[None])[1][0] - alpha * y, 0.5 * (y @ y - 1.0))
        fnorm = np.max(np.abs(f))
        if fnorm <= 1e-15 or it == _NEWTON_ITERS:
            break
        jac = np.zeros((m + 1, m + 1))
        jac[:m, :m] = 6.0 * (t2 @ y).reshape(m, m) - alpha * np.eye(m)
        jac[:m, m] = -y
        jac[m, :m] = y
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return y, alpha, False
        y = y + step[:m]
        alpha = alpha + step[m]
    return y, alpha, fnorm <= ZERO


def sphere_local_maxima(q, c, seed=0):
    """All local maxima of the cubic c restricted to the q-unit sphere.

    The search runs on the round unit sphere of the q-frame y = q^(1/2) x,
    where c reads t(y) = c(q^(-1/2) y): multi-start projected gradient
    ascent, then Newton refinement of the Lagrange system; maxima are the
    converged critical points whose projected Hessian is negative definite
    (eigenvalues < -1e-8) and not degenerate (largest |eigenvalue| above a
    noise floor), deduplicated within _DEDUP_TOL.  t is divided by its scale
    6 max|t| once, so every test runs on a cubic of unit scale and the search
    finds the same points for c and s c, s > 0; the values are multiplied
    back.  The noise floor also allows for the frame change's roundoff,
    ~eps cond(q)^(3/2).  The zero cubic, constant on the sphere, has no
    maxima.  Shape recovery does not use the search; it is the independent
    route that the battery checks against the closed-form maxima.
    """
    q = check_symmetric(q)
    m = q.shape[0]
    if c.dim != m:
        raise ValueError("q and c dimensions differ")
    _, inv_sqrt, qevals = sqrt_forms(q)
    t2 = c.compose_linear(inv_sqrt).tensor.reshape(m * m, m)
    scale = 6.0 * float(np.max(np.abs(t2)))
    if not scale:
        return SphereMaxima(np.zeros((0, m)), np.zeros(0))
    t2 = t2 / scale
    rng = np.random.default_rng(seed)
    # area-uniform on the round sphere
    y = rng.standard_normal((_BASE_RESTARTS + _RESTARTS_PER_DIM * m, m))
    y /= np.linalg.norm(y, axis=1)[:, None]
    vals, grads = _cubic_and_gradient(t2, y)
    step = np.full(len(y), 0.5)
    live = np.arange(len(y))  # the starts still moving
    for _ in range(200):
        tang = grads[live] - 3.0 * vals[live, None] * y[live]  # y . grad c = 3 c
        moving = np.max(np.abs(tang), axis=1) >= 1e-9
        live, tang = live[moving], tang[moving]
        if not len(live):
            break
        trial = y[live] + step[live, None] * tang
        trial /= np.linalg.norm(trial, axis=1)[:, None]
        tvals, tgrads = _cubic_and_gradient(t2, trial)
        better = tvals > vals[live]
        up, down = live[better], live[~better]
        y[up], vals[up], grads[up] = trial[better], tvals[better], tgrads[better]
        step[up] = np.minimum(step[up] * 1.3, 2.0)
        step[down] = np.maximum(step[down] * 0.5, 1e-6)
    # cluster ascent endpoints, then polish one representative per cluster
    reps = y[:0]
    for i in np.argsort(-vals):
        if np.all(np.max(np.abs(reps - y[i]), axis=1) > 1e-3):
            reps = np.vstack([reps, y[i]])
    # points on a degenerate critical manifold carry a near-zero Hessian
    # whose sign is set by how far Newton stalled from the manifold; genuine
    # maxima curve at unit scale (gap of several orders).  Frame-change noise
    # delta (relative) in t makes critical points ~sqrt(delta) off the
    # manifold, curving at ~sqrt(delta).
    floor = max(1e-4, np.sqrt(_frame_noise(qevals)))
    points, values = [], []
    any_converged = False
    for r in reps:
        yr, alpha, ok = _newton_polish(t2, r)
        if not ok:
            continue
        any_converged = True
        basis = np.linalg.svd(yr[None, :])[2][1:].T  # tangent plane at yr
        hess = basis.T @ (6.0 * (t2 @ yr).reshape(m, m) - alpha * np.eye(m)) @ basis
        evals = np.linalg.eigvalsh(hess)
        if np.max(evals) >= -1e-8 or np.max(np.abs(evals)) < floor:
            continue
        if all(np.max(np.abs(yr - p)) > _DEDUP_TOL for p in points):
            points.append(yr)
            values.append(float(_cubic_and_gradient(t2, yr[None])[0][0]))
    if not any_converged:
        raise RuntimeError(
            "sphere optimizer failed to converge; best candidates: %r" % (reps[:3] @ inv_sqrt.T,)
        )
    order = np.argsort(-np.asarray(values))
    pts = np.reshape(points, (-1, m))[order] @ inv_sqrt.T
    return SphereMaxima(pts, np.asarray(values)[order] * scale)


def recover_cusp_from_shape(shape):
    """Invert the shape invariant: a marked cusp whose canonical shape matches
    ``shape`` to SHAPE_TOL = 1e-5, by one odeco lift (Robeva 2016;
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
    is a null direction; the zero cubic has no live direction and rebuilds
    the type-0 cusp.  Every floor is relative to the cubic's own size.  The
    rebuilt cusp's shape must match to SHAPE_TOL.

    A cubic off the shape cone (varpi < 0, or lifted weights that do not
    realize) raises ``NotRealizable``.  A rebuilt cusp that misses the shape
    raises a plain ValueError: that is a numerical failure, seen on genuine
    shapes of ill-conditioned markings.
    """
    dim = shape.q.shape[0]
    n = dim + 1
    if n < 3:
        raise NotRealizable("shape recovery requires n >= 3, got n = %d" % n)
    root, inv_root, evals = sqrt_forms(shape.q)
    cy = shape.c.compose_linear(inv_root).tensor
    size = 3.0 * float(np.max(np.abs(cy)))  # the largest |b_i|, roughly
    # Noise floor, relative to size; without the frame-change factor,
    # markings R diag(1, 3e3) R^T fail.  It is at least realize_weight_data's
    # default REALIZE_TOL: shapes read back from 12-digit JSON carry noise of
    # ~1e-12, and a weight this small moves c by less.
    floor = max(_frame_noise(evals), REALIZE_TOL)
    # comm[k, l] is the (k, l) entry of [C_k, C_l], each one -varpi/9
    comm = np.einsum("kak,all->kl", cy, cy) - np.einsum("kal,alk->kl", cy, cy)
    varpi = -9.0 * float(np.mean(comm[~np.eye(dim, dtype=bool)]))
    # varpi is a dual pairing of weights, so it is measured against |b|^2.
    # A negative one has no real orthogonal lift.  Within the floor it is
    # noise around varpi = 0 and snaps there: its square root would couple
    # the s slot to every null direction at the much larger sqrt(noise).
    if varpi < -floor * size ** 2:
        raise NotRealizable("slice commutators give varpi = %g < 0: not a cusp shape" % varpi)
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
    # realize_weight_data reads tol relative to the largest dual norm, ~size^2;
    # a snapped varpi leaves a spread below itself
    try:
        cusp = realize_weight_data(WeightData(xi, shape.q), tol=floor)
    except ValueError as exc:
        raise NotRealizable("lifted weights are unrealizable (%s): not a cusp shape" % exc) from None
    return _verified(cusp, shape)


def _verified(cusp, shape):
    got = shape_invariant(cusp, method="closed")
    resid = got.distance(shape)
    if resid > SHAPE_TOL:
        raise ValueError(
            "recovered cusp reproduces the shape only to %g (tolerance %g)"
            % (resid, SHAPE_TOL)
        )
    return cusp
