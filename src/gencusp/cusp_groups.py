"""Parameter spaces and canonical matrix models of marked torus-cusp
translation groups.

Conventions used throughout the package:

* ``V = R^(n-1)`` is the domain of the extended holonomy; affine n-space is
  embedded in ``R^(n+1)`` as the hyperplane where the last coordinate is 1.
* The first affine coordinate is the "height" direction: canonical orbit
  surfaces are graphs ``y = F(lambda, kappa, x)`` over the remaining n-1
  coordinates.
* ``lambda`` is stored ascending (``0 <= lam[0] <= ... <= lam[n-1]``) in the
  blown-up flavor; the diagonal flavor allows arbitrary order with all
  entries positive.  Inputs violating the ordering are rejected, never
  silently sorted: marked data is order-sensitive.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import DET_TOL, expm, f_k, g_surface, h_log, nonzero

__all__ = [
    "PsiParameter",
    "BlownUpWeylPoint",
    "MarkedCusp",
    "lie_algebra_zeta",
    "lie_algebra_phi",
    "preferred_sqrt",
    "lambda_to_psi",
    "psi_to_lambda",
    "build_marked_cusp",
    "rho",
    "orbit_point",
    "character_closed_form",
    "diag_conjugator",
    "hypersurface_F",
    "flow_center",
    "radial_flow",
]

_CONSTRAINT_TOL = 1e-12

# Residual tolerance of flow_center's least-squares solve, and the relative
# singular-value floor below which the solve is refused.
_CENTER_TOL = 1e-8


def _type_count(values):
    return int(np.sum(nonzero(values)))


@dataclass(frozen=True, eq=False)
class PsiParameter:
    """Diagonal-model parameter: n non-negative reals.

    ``ordered=True`` means non-increasing; ``ordered=False`` is the unordered
    flavor where the positive entries precede the zeros (in any order).
    """

    n: int
    psi: np.ndarray
    ordered: bool = True

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        if psi.shape != (self.n,):
            raise ValueError("psi must have length n=%d, got %r" % (self.n, psi.shape))
        if np.any(psi < 0):
            raise ValueError("psi entries must be non-negative")
        scale = max(1.0, float(np.max(psi, initial=0.0)))
        pos = nonzero(psi)
        t = int(np.sum(pos))
        if self.ordered:
            if np.any(np.diff(psi) > _CONSTRAINT_TOL * scale):
                raise ValueError("ordered psi must be non-increasing")
        elif not np.array_equal(pos, np.arange(self.n) < t):
            raise ValueError("unordered psi must have its positive entries first")
        psi = psi.copy()
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @property
    def type_t(self):
        return _type_count(self.psi)

    @property
    def rank_r(self):
        return min(self.type_t, self.n - 1)

    @property
    def unipotent_u(self):
        return self.n - 1 - self.rank_r


@dataclass(frozen=True, eq=False)
class BlownUpWeylPoint:
    """The pair (lambda, kappa) with lambda[0] = lambda[i] * kappa[i].

    flavor "blownup": 0 <= lam[0] <= ... <= lam[n-1] and kappa in [0,1]^(n-1).
    flavor "diagonal": all lam positive, arbitrary order (kappa <= 1 still
    forces lam[0] to be the minimum).
    """

    n: int
    lam: np.ndarray
    kappa: np.ndarray
    flavor: str = "blownup"

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        kap = np.asarray(self.kappa, dtype=float)
        if lam.shape != (self.n,):
            raise ValueError("lambda must have length n=%d, got %r" % (self.n, lam.shape))
        if kap.shape != (self.n - 1,):
            raise ValueError("kappa must have length n-1=%d, got %r" % (self.n - 1, kap.shape))
        scale = max(1.0, float(np.max(np.abs(lam))))
        if self.flavor == "blownup":
            if lam[0] < -_CONSTRAINT_TOL or np.any(np.diff(lam) < -_CONSTRAINT_TOL * scale):
                raise ValueError("blownup flavor requires 0 <= lam[0] <= ... <= lam[n-1]")
            if np.any(kap < -_CONSTRAINT_TOL) or np.any(kap > 1 + _CONSTRAINT_TOL):
                raise ValueError("kappa entries must lie in [0,1]")
        elif self.flavor == "diagonal":
            if np.any(lam <= 0):
                raise ValueError("diagonal flavor requires all lambda positive")
        else:
            raise ValueError("unknown flavor %r" % (self.flavor,))
        resid = np.max(np.abs(lam[0] - lam[1:] * kap))
        if resid > _CONSTRAINT_TOL * scale:
            raise ValueError(
                "constraint lam[0] = lam[i]*kappa[i] violated (residual %g)" % resid
            )
        lam = lam.copy()
        kap = kap.copy()
        lam.setflags(write=False)
        kap.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "kappa", kap)

    @property
    def type_t(self):
        return _type_count(self.lam)

    @property
    def unipotent_u(self):
        return self.n - 1 - min(self.type_t, self.n - 1)

    def scaled(self, s):
        """(s*lambda, kappa): same kappa, every lambda scaled by s > 0."""
        return BlownUpWeylPoint(self.n, s * self.lam, self.kappa, self.flavor)


def lie_algebra_zeta(psi, v):
    """Lie-algebra element of the diagonal-model group for parameter psi at v.

    The (n+1)x(n+1) matrix has one of three block shapes depending on whether
    the type t is < n-1, = n-1, or = n.
    """
    if not isinstance(psi, PsiParameter):
        psi = PsiParameter(len(psi), np.asarray(psi, dtype=float), ordered=False)
    n = psi.n
    v = np.asarray(v, dtype=float)
    if v.shape != (n - 1,):
        raise ValueError("v must have length n-1=%d" % (n - 1))
    t, r, u = psi.type_t, psi.rank_r, psi.unipotent_u
    p = psi.psi
    psi_minus = 0.0 if t == 0 else -float(np.dot(p[: n - 1], v))
    psi_t = p[t - 1] if t > 0 else 0.0
    m = np.zeros((n + 1, n + 1))
    for i in range(r):
        m[i, i] = psi_t * v[i]
    if t == n:
        m[n - 1, n - 1] = psi_minus
    elif t == n - 1:
        m[n - 1, n] = psi_minus
    else:
        # rows r..n hold the unipotent block of size u+2
        for j in range(u):
            m[r, r + 1 + j] = v[r + j]
            m[r + 1 + j, n] = v[r + j]
        m[r, n] = psi_minus
    return m


def lie_algebra_phi(p, v):
    """Lie-algebra element of the blown-up model at v: the structural
    upper-triangular part plus <v,kappa> times the rank-one part."""
    if not isinstance(p, BlownUpWeylPoint):
        raise TypeError("expected a BlownUpWeylPoint")
    n = p.n
    v = np.asarray(v, dtype=float)
    if v.shape != (n - 1,):
        raise ValueError("v must have length n-1=%d" % (n - 1))
    lam, kap = p.lam, p.kappa
    vk = float(np.dot(v, kap))
    m = np.zeros((n + 1, n + 1))
    m[0, 0] = -lam[0] * vk
    m[0, 1:n] = v + vk * kap
    for i in range(1, n):
        m[i, i] = lam[i] * v[i - 1]
        m[i, n] = v[i - 1]
    return m


def preferred_sqrt(kappa):
    """Symmetric positive square root of I + kappa (x) kappa in closed form:
    I + ((sqrt(1+a)-1)/a) * kappa (x) kappa with a = |kappa|^2."""
    kap = np.asarray(kappa, dtype=float)
    k = kap.shape[0]
    alpha = float(np.dot(kap, kap))
    if alpha == 0.0:
        return np.eye(k)
    return np.eye(k) + ((np.sqrt(1.0 + alpha) - 1.0) / alpha) * np.outer(kap, kap)


def lambda_to_psi(p):
    """Diagonal-model parameter attached to (lambda, kappa).

    Type t < n: psi = (lam[u+1]^-2, ..., lam[n-1]^-2, 0, ..., 0).
    Type t = n: psi_i = lam[i]^-2 for i < n and psi_n = lam[0]^-2.
    Both land in the unordered flavor (positives first).
    """
    n = p.n
    t = p.type_t
    lam = p.lam
    psi = np.zeros(n)
    if t == 0:
        pass
    elif t < n:
        u = p.unipotent_u
        psi[:t] = lam[u + 1:] ** -2.0
    else:
        psi[: n - 1] = lam[1:] ** -2.0
        psi[n - 1] = lam[0] ** -2.0
    return PsiParameter(n, psi, ordered=False)


def psi_to_lambda(psi):
    """Inverse of lambda_to_psi up to the canonical ascending ordering of
    lambda; kappa is recomputed as lam[0]/lam[i] (zero when lam[i]=0)."""
    if not isinstance(psi, PsiParameter):
        psi = PsiParameter(len(psi), np.asarray(psi, dtype=float), ordered=False)
    n, t = psi.n, psi.type_t
    if t == 0:
        return BlownUpWeylPoint(n, np.zeros(n), np.zeros(n - 1))
    if t < n:
        lam = np.zeros(n)
        lam[n - t:] = np.sort(psi.psi[:t] ** -0.5)
        kap = np.zeros(n - 1)
        return BlownUpWeylPoint(n, lam, kap)
    lam = np.sort(psi.psi ** -0.5)
    kap = lam[0] / lam[1:]
    return BlownUpWeylPoint(n, lam, kap)


@dataclass(frozen=True, eq=False)
class MarkedCusp:
    """A marked cusp representation: parameters, a |det| = 1 marking, and the
    cached Lie-algebra generators of the marked holonomy."""

    params: BlownUpWeylPoint
    marking: np.ndarray
    orthonormalized: bool = False
    rescaled: bool = False
    generators: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n = self.params.n
        b = np.asarray(self.marking, dtype=float)
        if b.shape != (n - 1, n - 1):
            raise ValueError("marking must be (n-1)x(n-1)")
        det = abs(np.linalg.det(b))
        if abs(det - 1.0) > DET_TOL:
            raise ValueError("marking must have |det| = 1, got %g" % det)
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "marking", b)
        eff = self.effective_marking
        gens = tuple(lie_algebra_phi(self.params, eff[:, i]) for i in range(n - 1))
        for g in gens:
            g.setflags(write=False)
        object.__setattr__(self, "generators", gens)

    @property
    def n(self):
        return self.params.n

    @property
    def effective_marking(self):
        """The matrix actually composed into the model: S^-1 B for the
        orthonormalized variant, B otherwise."""
        if self.orthonormalized:
            s = preferred_sqrt(self.params.kappa)
            return np.linalg.solve(s, self.marking)
        return np.asarray(self.marking)


def build_marked_cusp(p, marking=None, orthonormalized=False):
    """Construct a MarkedCusp, normalizing |det B| to 1.

    A marking with |det B| = d != 1 is folded away by the scaling identity of
    the models: the cusp (lambda, kappa, B) equals (d^(1/(n-1)) * lambda,
    kappa, B / d^(1/(n-1))) up to conjugacy, so the returned cusp carries the
    rescaled parameters and a |det| = 1 marking (flagged ``rescaled``).
    """
    n = p.n
    b = np.eye(n - 1) if marking is None else np.asarray(marking, dtype=float)
    if b.shape != (n - 1, n - 1):
        raise ValueError("marking must be (n-1)x(n-1)")
    det = abs(np.linalg.det(b))
    if det < 1e-12:
        raise ValueError("marking is singular (|det| = %g)" % det)
    rescaled = abs(det - 1.0) > DET_TOL
    if rescaled:
        s = det ** (1.0 / (n - 1))
        b = b / s
        p = p.scaled(s)
    return MarkedCusp(p, b, orthonormalized=orthonormalized, rescaled=rescaled)


def rho(cusp, v):
    """Holonomy matrix of the marked cusp at v in V."""
    v = np.asarray(v, dtype=float)
    a = np.zeros((cusp.n + 1, cusp.n + 1))
    for vi, g in zip(v, cusp.generators):
        a += vi * g
    return expm(a)


def orbit_point(cusp, v):
    """Affine coordinates (height, x_1..x_{n-1}) of the orbit of the origin.

    The last homogeneous coordinate of rho(v) * e_{n+1} is exactly 1 because
    the generators have a zero bottom row.
    """
    return rho(cusp, v)[: cusp.n, cusp.n]


def character_closed_form(cusp, v):
    """trace(rho(v)) via the model's diagonal:
    1 + exp(-lam[0]<kappa, Mv>) + sum_i exp(lam[i] (Mv)_i)."""
    p = cusp.params
    w = cusp.effective_marking @ np.asarray(v, dtype=float)
    return 1.0 + np.exp(-p.lam[0] * float(np.dot(p.kappa, w))) + float(
        np.sum(np.exp(p.lam[1:] * w))
    )


def diag_conjugator(p):
    """For all-positive lambda, the pair (Q, f) with
    Q * Phi(v) * Q^-1 = Zeta(f v): Q = M P with P the shear-and-translate
    matrix, M the coordinate cycle, and f = Diag(lam0^2 * lam_i).

    The matching diagonal-model parameter is lambda_to_psi(p).
    """
    n = p.n
    lam = p.lam
    if np.any(lam <= 0):
        raise ValueError("diag_conjugator needs all lambda positive")
    pmat = np.eye(n + 1)
    pmat[0, 1:n] = -1.0 / lam[1:]
    pmat[0, n] = lam[0] ** -2.0
    pmat[1:n, n] = 1.0 / lam[1:]
    # coordinate cycle aligning the dependent-weight slot: e_1 -> e_n,
    # e_i -> e_(i-1) otherwise, fixing the homogeneous coordinate
    m = np.zeros((n + 1, n + 1))
    m[n - 1, 0] = 1.0
    for i in range(1, n):
        m[i - 1, i] = 1.0
    m[n, n] = 1.0
    q = m @ pmat
    frak_f = np.diag(lam[0] ** 2 * lam[1:])
    return q, frak_f


def hypersurface_F(p, x):
    """Height of the canonical orbit surface over x in prod (-1/lam_i, inf):

        F = f_2(lam0, -sum_i kap_i h(lam_i, x_i)) + sum_i g(lam_i, x_i)
    """
    n = p.n
    x = np.asarray(x, dtype=float)
    if x.shape != (n - 1,):
        raise ValueError("x must have length n-1")
    lam, kap = p.lam, p.kappa
    acc = 0.0
    hsum = 0.0
    for i in range(n - 1):
        acc += g_surface(lam[i + 1], x[i])
        hsum += kap[i] * h_log(lam[i + 1], x[i])
    return acc + f_k(2, lam[0], -hsum)


def flow_center(cusp):
    """Common affine fixed point of all generators (diagonalizable type only),
    by least squares on the stacked (rho(e_i) - I), to the relative residual
    _CENTER_TOL = 1e-8."""
    n = cusp.n
    rows = []
    rhs = []
    for i in range(n - 1):
        a = rho(cusp, np.eye(n - 1)[i])
        rows.append(a[:n, :n] - np.eye(n))
        rhs.append(-a[:n, n])
    mat = np.vstack(rows)
    vec = np.concatenate(rhs)
    sing = np.linalg.svd(mat, compute_uv=False)
    if sing[-1] < _CENTER_TOL * max(1.0, sing[0]):
        raise ValueError(
            "flow center is ill-conditioned (smallest singular value %g); "
            "lambda[0] is at or near zero" % sing[-1]
        )
    center, *_ = np.linalg.lstsq(mat, vec, rcond=None)
    resid = float(np.max(np.abs(mat @ center - vec)))
    if resid > _CENTER_TOL * max(1.0, float(np.max(np.abs(vec)))):
        raise ValueError("flow center solve residual %g exceeds %g" % (resid, _CENTER_TOL))
    return center


def radial_flow(cusp, time, x):
    """Flow a point of affine n-space along the radial direction.

    Non-diagonalizable type: translation by -time along the height axis.
    Diagonalizable type: contraction exp(-time) toward the common fixed
    point of the holonomy.
    """
    x = np.asarray(x, dtype=float)
    if cusp.params.type_t < cusp.n:
        out = x.copy()
        out[0] -= time
        return out
    c = flow_center(cusp)
    return np.exp(-time) * (x - c) + c
