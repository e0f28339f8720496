"""Parameter spaces and canonical matrix models of marked torus-cusp
translation groups.

Conventions used throughout the package:

* ``V = R^(n-1)`` is the domain of the extended holonomy; affine n-space is
  embedded in ``R^(n+1)`` as the hyperplane where the last coordinate is 1.
* The first affine coordinate is the "height" direction: canonical orbit
  surfaces are graphs ``y = F(lambda, kappa, x)`` over the remaining n-1
  coordinates.
* ``lambda`` is stored ascending (``0 <= lam[0] <= ... <= lam[n-1]``).
  Inputs violating the ordering are rejected, never silently sorted: marked
  data is order-sensitive, and a permuted lambda is the same marked cusp
  with a permuted marking.
"""

import math
import sys

import numpy as np

from .linalg import DET_TOL, SLACK, ZERO, Frozen, _identity, expm, f_k, g_surface, h_log

__all__ = [
    "PsiParameter",
    "BlownUpWeylPoint",
    "MarkedCusp",
    "lie_algebra_zeta",
    "lie_algebra_phi",
    "preferred_sqrt",
    "build_marked_cusp",
    "rho",
    "orbit_point",
    "hypersurface_F",
]


class PsiParameter(Frozen):
    """Diagonal-model parameter: n non-negative reals.

    ``ordered=True`` means non-increasing; ``ordered=False`` is the unordered
    flavor where the positive entries precede the zeros (in any order).

    Its zeros are structural, written exactly by every route that builds a
    psi, so the type counts the entries above 0: psi = lambda^-2 squares
    lambda's range, and next to psi = 1e10 a relative test reads 0.16 as 0.
    """

    __slots__ = _fields = ("n", "psi", "ordered")

    def __init__(self, n, psi, ordered=True):
        psi = np.asarray(psi, dtype=float)
        if psi.shape != (n,):
            raise ValueError("psi must have length n=%d, got %r" % (n, psi.shape))
        if np.any(psi < 0):
            raise ValueError("psi entries must be non-negative")
        pos = psi > 0
        t = int(np.count_nonzero(pos))
        if ordered:
            if np.any(np.diff(psi) > SLACK * np.max(psi, initial=0.0)):
                raise ValueError("ordered psi must be non-increasing")
        elif not np.array_equal(pos, np.arange(n) < t):
            raise ValueError("unordered psi must have its positive entries first")
        psi = psi.copy()
        psi.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "ordered", ordered)

    @property
    def type_t(self):
        return int(np.count_nonzero(self.psi > 0))

    @property
    def rank_r(self):
        return min(self.type_t, self.n - 1)

    @property
    def unipotent_u(self):
        return self.n - 1 - self.rank_r


class BlownUpWeylPoint(Frozen):
    """The pair (lambda, kappa) with lambda[0] = lambda[i] * kappa[i],
    0 <= lam[0] <= ... <= lam[n-1] and kappa in [0,1]^(n-1).

    Slotted: a point carries no instance dict, a third of its footprint
    besides its two arrays, since callers hold many of them.  For the same
    reason it memoizes nothing but its type, an int taken while it is
    validated; what is read per cusp lives on the ``MarkedCusp``.
    """

    _fields = ("n", "lam", "kappa")
    __slots__ = _fields + ("_type",)

    def __init__(self, n, lam, kappa):
        if n < 2:
            raise ValueError("a blown-up Weyl point needs n >= 2, got n = %r" % (n,))
        lam = np.asarray(lam, dtype=float)
        kap = np.asarray(kappa, dtype=float)
        if lam.shape != (n,):
            raise ValueError("lambda must have length n=%d, got %r" % (n, lam.shape))
        if kap.shape != (n - 1,):
            raise ValueError("kappa must have length n-1=%d, got %r" % (n - 1, kap.shape))
        # the checks run over Python floats: the vectors are short, and
        # numpy's per-call overhead would dominate
        ls, ks = lam.tolist(), kap.tolist()
        # every order and range test below is False on NaN
        if not all(map(math.isfinite, ls + ks)):
            raise ValueError("lambda and kappa must be finite")
        scale = max(map(abs, ls))
        if ls[0] < -SLACK * scale or any(b - a < -SLACK * scale for a, b in zip(ls, ls[1:])):
            raise ValueError("lambda must satisfy 0 <= lam[0] <= ... <= lam[n-1]")
        if any(k < -SLACK or k > 1 + SLACK for k in ks):
            raise ValueError("kappa entries must lie in [0,1]")
        resid = max(abs(ls[0] - v * k) for v, k in zip(ls[1:], ks))
        if resid > SLACK * scale:
            raise ValueError(
                "constraint lam[0] = lam[i]*kappa[i] violated (residual %g)" % resid
            )
        # linalg.nonzero(lam), the type, over the same Python floats
        floor = ZERO * max(ls)
        object.__setattr__(self, "_type", sum(v > floor for v in ls))
        lam = lam.copy()
        kap = kap.copy()
        lam.setflags(write=False)
        kap.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "kappa", kap)

    @property
    def type_t(self):
        return self._type

    @property
    def unipotent_u(self):
        return self.n - 1 - min(self.type_t, self.n - 1)

    @property
    def coefficients(self):
        """(-lam[0], lam[1], ..., lam[n-1]): the weights of the model are the
        rows of its calibration frame scaled by these (``_calibration_frame``)."""
        a = self.lam.copy()
        a[0] = -a[0]
        return a

    def scaled(self, s):
        """(s*lambda, kappa): same kappa, every lambda scaled by s > 0."""
        return BlownUpWeylPoint(self.n, s * self.lam, self.kappa)


def lie_algebra_zeta(psi, v):
    """Lie-algebra element of the diagonal-model group for parameter psi at v.

    The (n+1)x(n+1) matrix has one of three block shapes depending on whether
    the type t is < n-1, = n-1, or = n.
    """
    if not isinstance(psi, PsiParameter):
        raise TypeError("expected a PsiParameter")
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


def _calibration_frame(p, rows):
    """The frame of the blown-up model at the k rows v (k, n-1) of ``rows``:
    its rows are (<v,kappa>, v).

    At the columns of a marking M the frame is C^T, C = [kappa^T; I] M.
    Scaled by the ``coefficients`` a, its rows are the generators' diagonals
    and C's rows the weights; C^T C is the horosphere metric and
    sum_i a_i (C_i x)^3 / 3 the shape's cubic.  Every one of them reads
    this frame, so the weights are the stack's diagonal bit for bit; a
    ``MarkedCusp`` builds it once (``MarkedCusp.calibration_frame``).
    """
    # one dot per row, by np.dot's own kernel: bit for bit the np.dot of
    # each row, where a matmul would sum in another order, off by an ulp
    vk = np.vecdot(rows, p.kappa)
    frame = np.empty((len(rows), p.n))
    frame[:, 0] = vk
    frame[:, 1:] = rows
    return frame


def _phi_stack(p, rows, frame):
    """``lie_algebra_phi`` at ``rows`` from their ``_calibration_frame``:
    the diagonals, and the top rows past the corner, v + <v,kappa> kappa."""
    n = p.n
    m = np.zeros((len(rows), n + 1, n + 1))
    every = np.arange(n)
    m[:, every, every] = p.coefficients * frame
    m[:, 0, 1:n] = rows + frame[:, :1] * p.kappa
    m[:, 1:n, n] = rows
    return m


def lie_algebra_phi(p, v):
    """Lie-algebra elements of the blown-up model at the rows (k, n-1) of v:
    the (k, n+1, n+1) stack of the structural upper-triangular part plus
    <v,kappa> times the rank-one part."""
    if not isinstance(p, BlownUpWeylPoint):
        raise TypeError("expected a BlownUpWeylPoint")
    rows = np.asarray(v, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != p.n - 1:
        raise ValueError("v must be a stack (k, n-1) of rows, n-1=%d, got %r"
                         % (p.n - 1, rows.shape))
    return _phi_stack(p, rows, _calibration_frame(p, rows))


def preferred_sqrt(kappa):
    """Symmetric positive square root S of I + kappa (x) kappa in closed form:
    I + kappa (x) kappa / (1 + r), r = sqrt(1 + |kappa|^2) = det S."""
    kap = np.asarray(kappa, dtype=float)
    r = math.sqrt(1.0 + float(np.dot(kap, kap)))
    return _identity(kap.shape[0]) + (kap[:, None] * kap) / (1.0 + r)


def _inverse_sqrt(kappa):
    """S^-1 for S = ``preferred_sqrt(kappa)``, in closed form:
    I - kappa (x) kappa / (r (1 + r))."""
    r = math.sqrt(1.0 + float(np.dot(kappa, kappa)))
    return _identity(kappa.shape[0]) - (kappa[:, None] * kappa) / (r * (1.0 + r))


def _marking_log_det(b):
    """(log|det B|, |det B^|, e) of a finite marking, with |det B| =
    |det B^| 2^e; raises on a singular one.

    log|det B| = log|det B^| + e log 2, from the LU of B^ = B 2^-E: each
    column b_j scaled by the power of 2, 2^-e_j, that brings its norm into
    [1/2, 1), and e = sum_j e_j.  By Hadamard, |det B^| < 1, so that LU stays
    in range at any size of B; the scaling is exact, so it pivots and rounds
    as B's own LU does.  B is singular when |det B| is at most ZERO times
    Hadamard's bound on it, the product of B's column norms: a ratio that
    B -> sB leaves alone, and the one the refusal prints.
    """
    # hypot sums the squares without under- or overflow
    mant, exps = np.frexp(np.hypot.reduce(b, axis=0))
    det = abs(np.linalg.det(np.ldexp(b, -exps)))
    mant = mant.tolist()
    ratio = det / math.prod(mant) if all(mant) else 0.0
    if ratio <= ZERO:
        raise ValueError("marking is singular (|det| / Hadamard's bound = %.3g)" % ratio)
    e = sum(exps.tolist())
    return math.log(det) + e * math.log(2.0), det, e


def _checked_marking(n, marking):
    """The marking as a float array and its ``_marking_log_det``; refuses
    one of the wrong shape, a non-finite one and a singular one."""
    b = np.asarray(marking, dtype=float)
    if b.shape != (n - 1, n - 1):
        raise ValueError("marking must be (n-1)x(n-1)")
    if not np.isfinite(b).all():
        raise ValueError("marking must be finite")
    return b, _marking_log_det(b)


class MarkedCusp(Frozen):
    """A marked cusp representation: parameters, a nonsingular (see
    ``_marking_log_det``) |det| = 1 marking, and what every invariant reads
    from them, each computed once here and read-only:

    * ``effective_marking``, the matrix composed into the model: S^-1 B for
      the orthonormalized variant (S the preferred square root of
      I + kappa kappa^T, inverted in closed form), B itself otherwise;
    * ``calibration_frame``, C^T for C = [kappa^T; I] M at the effective
      marking M (``_calibration_frame``), built on first read: the weights,
      the metric, the closed cubic and the generator diagonals all read
      this one array;
    * ``gram_log_det``, log det(C^T C), the metric's det-1 scale, from the
      marking's own log|det B|;
    * ``generators``, the (n-1, n+1, n+1) stack of Lie-algebra generators of
      the marked holonomy, ``lie_algebra_phi`` at the effective marking's
      columns, built on first read from the same frame: the complete
      invariant does not read it.

    ``log_det``, log|det B|, is given by build_marked_cusp, which has already
    checked the marking (``_checked_marking``), so that its LU is not taken
    twice.
    """

    _fields = ("params", "marking", "orthonormalized", "rescaled")
    # the calibration frame, the generator stack, the unimodular metric and
    # its scale, and the complete invariant, each filled on first use
    # (``calibration_frame``, ``generators``, invariants.metric_and_scale,
    # invariants.complete_invariant); they live and die with this instance
    __slots__ = _fields + ("log_det", "effective_marking",
                           "_frame", "_generators", "_metric", "_invariant")

    def __init__(self, params, marking, orthonormalized=False, rescaled=False, log_det=None):
        b = marking
        if log_det is None:
            b, (log_det, _, _) = _checked_marking(params.n, b)
        if abs(log_det) > DET_TOL:
            raise ValueError("marking must have |det| = 1, got log|det| = %g" % log_det)
        b = b.copy()
        b.setflags(write=False)
        eff = b
        if orthonormalized:
            eff = _inverse_sqrt(params.kappa) @ b
            eff.setflags(write=False)
        for name, value in (("params", params), ("marking", b),
                            ("orthonormalized", orthonormalized), ("rescaled", rescaled),
                            ("log_det", log_det), ("effective_marking", eff), ("_frame", None),
                            ("_generators", None), ("_metric", None), ("_invariant", None)):
            object.__setattr__(self, name, value)

    @property
    def calibration_frame(self):
        frame = self._frame
        if frame is None:
            frame = _calibration_frame(self.params, self.effective_marking.T)
            frame.setflags(write=False)
            object.__setattr__(self, "_frame", frame)
        return frame

    @property
    def gram_log_det(self):
        """log det(C^T C) by the matrix determinant lemma, det(M)^2 (1 +
        |kappa|^2), det(B)^2 for the orthonormalized M = S^-1 B: off by
        about eps cond(B), where an LU of C^T C errs by eps cond(B)^2."""
        kap = self.params.kappa
        lemma = 0.0 if self.orthonormalized else math.log1p(float(np.dot(kap, kap)))
        return 2.0 * self.log_det + lemma

    @property
    def generators(self):
        gens = self._generators
        if gens is None:
            gens = _phi_stack(self.params, self.effective_marking.T, self.calibration_frame)
            gens.setflags(write=False)
            object.__setattr__(self, "_generators", gens)
        return gens

    @property
    def n(self):
        return self.params.n


def build_marked_cusp(p, marking=None, orthonormalized=False):
    """Construct a MarkedCusp, normalizing |det B| to 1.

    A marking with |det B| = d != 1 is folded away by the scaling identity of
    the models: the cusp (lambda, kappa, B) equals (s * lambda, kappa, B / s),
    s = d^(1/(n-1)), up to conjugacy, so the returned cusp carries the
    rescaled parameters and a |det| = 1 marking (flagged ``rescaled``).  With
    |det B| = |det B^| 2^e from ``_marking_log_det`` and e = (n-1) a + r,
    s = (|det B^| 2^r)^(1/(n-1)) 2^a: the power of 2 is taken out whole, so
    s carries one root's rounding at any size of B.

    log|det(B / s)| = log(|det B^| 2^r) - (n-1) log(s 2^-a), free of B's
    size, needs no LU of B / s but where a nonzero entry of B / s is
    subnormal and keeps fewer digits: that B / s is checked by its own LU.

    A singular B is rejected (see ``_marking_log_det``), and so is a fold
    out of the float range: s lambda or B / s overflows, or s lambda
    underflows into another type (lambda at 1e-300 folded by 1e-30 I reads
    type 0), where scaling leaves the type alone.
    """
    n = p.n
    b, (logdet, det, e) = _checked_marking(n, np.eye(n - 1) if marking is None else marking)
    if abs(logdet) <= DET_TOL:
        return MarkedCusp(p, b, orthonormalized=orthonormalized, log_det=logdet)
    a, r = divmod(e, n - 1)
    x = det * 2.0 ** r
    root = x ** (1.0 / (n - 1))
    s = math.ldexp(root, a)
    # in Python floats, so that nothing overflows before the refusal
    mags = [abs(v) for v in b.ravel().tolist() if v]
    if not (s > 0.0 and math.isfinite(max(mags) / s) and math.isfinite(float(p.lam[-1]) * s)):
        raise ValueError("marking (log|det| = %g) overflows lambda or B when folded" % logdet)
    folded = p.scaled(s)
    if folded.type_t != p.type_t:
        raise ValueError(
            "marking (log|det| = %g) underflows lambda: type %d reads as %d"
            % (logdet, p.type_t, folded.type_t)
        )
    logdet = math.log(x) - (n - 1) * math.log(root)
    if min(mags) / s < sys.float_info.min:
        logdet = None
    return MarkedCusp(folded, b / s, orthonormalized=orthonormalized, rescaled=True,
                      log_det=logdet)


def rho(cusp, v):
    """Holonomy matrix of the marked cusp at v in V."""
    v = np.asarray(v, dtype=float)
    if v.shape != (cusp.n - 1,):
        raise ValueError("v must have length n-1=%d" % (cusp.n - 1))
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


def hypersurface_F(p, x):
    """Height of the canonical orbit surface over x in prod (-1/lam_i, inf):

        F = f_2(lam0, -sum_i kap_i h(lam_i, x_i)) + sum_i g(lam_i, x_i)

    x holds points along its last axis, of length n - 1; the heights have
    x's other axes (a scalar for one point).
    """
    n = p.n
    x = np.asarray(x, dtype=float)
    if x.ndim < 1 or x.shape[-1] != n - 1:
        raise ValueError("x must have length n-1")
    lam, kap = p.lam, p.kappa
    acc = 0.0
    hsum = 0.0
    for i in range(n - 1):
        acc += g_surface(lam[i + 1], x[..., i])
        hsum += kap[i] * h_log(lam[i + 1], x[..., i])
    return acc + f_k(2, lam[0], -hsum)

