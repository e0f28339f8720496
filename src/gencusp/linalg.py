"""Small dense linear-algebra kernels shared by every other module.

Everything here is pure and deterministic: a fixed-order scaling-and-squaring
matrix exponential, the entire-function family f_k appearing in the closed-form
orbit surfaces, Newton's identities, an upper Cholesky factor, and the square
roots of a positive-definite form.

It also holds the library's tolerance policy for its two basic decisions:
whether a magnitude is zero (``nonzero``: the type t of a cusp counts its
nonzero weights) and whether a form is unimodular (``check_unimodular``).
"""

import numpy as np

__all__ = [
    "ZERO",
    "ROUNDOFF",
    "DET_TOL",
    "nonzero",
    "check_unimodular",
    "sqrt_forms",
    "expm",
    "f_k",
    "h_log",
    "g_surface",
    "newton_to_elementary",
    "cholesky_upper",
    "unimodular",
    "check_symmetric",
    "maxerr",
]

# A magnitude is zero when it is at most ZERO times the largest magnitude it
# is compared with (or times 1, when that is smaller).  Magnitudes are norms,
# never squared norms: a weight of size m has dual norm m^2, which would sink
# below the threshold at m = 1e-5.
ZERO = 1e-10

# Roundoff multiple for tests whose noise grows with cond(q): the unimodular
# check here and the noise floor of the shape lift.
ROUNDOFF = 64.0

# Absolute slack of |det - 1| for a well-conditioned form, and of |det B| = 1
# for a marking.
DET_TOL = 1e-9

# expm's Taylor order, and check_symmetric's input-validation slack relative
# to the largest entry.
_EXPM_ORDER = 14
_SYMMETRY_TOL = 1e-12

# Switch f_1, f_2, h, g to their Taylor branch below this |s*t|; the closed
# forms lose every digit to cancellation as s -> 0.
_SERIES_CUT = 1e-4


def nonzero(mags):
    """Mask of the magnitudes above ZERO * max(1, max(mags))."""
    mags = np.asarray(mags, dtype=float)
    return mags > ZERO * max(1.0, float(np.max(mags, initial=0.0)))


def check_unimodular(q, what):
    """Validate a unimodular positive-definite form; returns it symmetrized
    and read-only.

    ``what`` names the form in the error.  The determinant may miss 1 by
    max(DET_TOL, ROUNDOFF * eps * cond(q)): its computed value carries
    roundoff of about eps * cond(q), so an ill-conditioned form that is
    unimodular to working precision passes.
    """
    q = check_symmetric(q)
    evals = np.linalg.eigvalsh(q)
    if evals[0] <= 0:
        raise ValueError("%s must be positive definite" % what)
    det = np.linalg.det(q)
    slack = max(DET_TOL, ROUNDOFF * np.finfo(float).eps * evals[-1] / evals[0])
    if abs(det - 1.0) > slack:
        raise ValueError("%s must be unimodular (det %g)" % (what, det))
    q.setflags(write=False)
    return q


def sqrt_forms(q):
    """(q^(1/2), q^(-1/2), eigenvalues of q, ascending) of a positive-definite
    form, from one eigendecomposition."""
    evals, evecs = np.linalg.eigh(q)
    if evals[0] <= 0:
        raise ValueError("form is not positive definite")
    root = np.sqrt(evals)
    return (evecs * root) @ evecs.T, (evecs / root) @ evecs.T, evals


def maxerr(a, b):
    """Worst entrywise deviation of ``a`` from ``b``, relative on magnitudes
    above 1 and absolute below."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def expm(m):
    """Matrix exponential by scaling-and-squaring with a truncated Taylor
    series of order _EXPM_ORDER = 14 (Horner form).

    The matrix is scaled so its inf-norm is <= 0.5 before the series is
    evaluated, which keeps the truncation error near roundoff for spectral
    radius up to ~50 and makes the result exact (to rounding) for nilpotent
    matrices of degree below the series order.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm requires a square matrix, got shape %r" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise ValueError("expm requires finite entries")
    n = a.shape[0]
    norm = np.linalg.norm(a, np.inf)
    nsq = 0
    if norm > 0.5:
        nsq = int(np.ceil(np.log2(norm / 0.5)))
    s = a / (2.0 ** nsq)
    acc = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_EXPM_ORDER, 0, -1):
            acc = np.eye(n) + (s @ acc) / k
        for _ in range(nsq):
            acc = acc @ acc
    if not np.all(np.isfinite(acc)):
        raise OverflowError("expm overflowed double precision (entries too large)")
    return acc


def f_k(k, s, t):
    """f_k(s,t) = sum_{j>=k} s^(j-k) t^j / j!  for k in {0,1,2}.

    f_0 = exp(st); f_1 = (e^{st}-1)/s; f_2 = (e^{st}-1-st)/s^2, with the
    analytic values t and t^2/2 at s=0.
    """
    if k not in (0, 1, 2):
        raise ValueError("f_k defined for k in {0,1,2}, got %r" % (k,))
    z = s * t
    if k == 0:
        return float(np.exp(z))
    if k == 1:
        if abs(z) < _SERIES_CUT:
            return t * (1.0 + z * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120 + z / 720)))))
        return t * np.expm1(z) / z
    if abs(z) < _SERIES_CUT:
        return t * t * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120 + z * (1 / 720 + z / 5040)))))
    return t * t * (np.expm1(z) - z) / (z * z)


def h_log(ell, x):
    """Inverse of x = f_1(ell, v): h(ell,x) = log(1+ell*x)/ell, h(0,x) = x.

    Defined for 1 + ell*x > 0.
    """
    z = ell * x
    if z <= -1.0:
        raise ValueError("h_log domain violation: 1 + ell*x <= 0")
    if abs(z) < _SERIES_CUT:
        return x * (1.0 - z * (1 / 2 - z * (1 / 3 - z * (1 / 4 - z * (1 / 5 - z / 6)))))
    return np.log1p(z) / ell


def g_surface(ell, x):
    """g(ell,x) = (ell*x - log(1+ell*x))/ell^2, g(0,x) = x^2/2.

    Strictly convex and proper in x on 1 + ell*x > 0; the per-coordinate
    height profile of the canonical orbit surfaces.
    """
    z = ell * x
    if z <= -1.0:
        raise ValueError("g_surface domain violation: 1 + ell*x <= 0")
    if abs(z) < _SERIES_CUT:
        return x * x * (1 / 2 - z * (1 / 3 - z * (1 / 4 - z * (1 / 5 - z * (1 / 6 - z / 7)))))
    return (z - np.log1p(z)) / (ell * ell)


def newton_to_elementary(power_sums):
    """Elementary symmetric polynomials e_1..e_m from power sums p_1..p_m
    via Newton's identities: k*e_k = sum_{i=1}^k (-1)^(i-1) e_{k-i} p_i."""
    p = [float(v) for v in power_sums]
    if len(p) < 1:
        raise ValueError("need at least one power sum")
    e = [1.0]
    for k in range(1, len(p) + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1.0) ** (i - 1) * e[k - i] * p[i - 1]
        e.append(acc / k)
    return np.array(e[1:])


def check_symmetric(q):
    """Validate symmetry of a form to _SYMMETRY_TOL = 1e-12 relative to its
    largest entry; returns the symmetrized matrix."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (q.shape,))
    scale = max(1.0, float(np.max(np.abs(q))))
    if np.max(np.abs(q - q.T)) > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within %g" % _SYMMETRY_TOL)
    return 0.5 * (q + q.T)


def cholesky_upper(q):
    """Unique upper-triangular A with positive diagonal and A^T A = Q.

    Q must be symmetric to check_symmetric's slack.  Raises ValueError naming
    the failing pivot index (0-based) when Q is not positive definite.
    """
    q = check_symmetric(q)
    n = q.shape[0]
    low = np.zeros_like(q)
    for i in range(n):
        for j in range(i + 1):
            acc = q[i, j] - np.dot(low[i, :j], low[j, :j])
            if i == j:
                if acc <= 0.0:
                    raise ValueError("not positive definite: pivot %d is %g" % (i, acc))
                low[i, i] = np.sqrt(acc)
            else:
                low[i, j] = acc / low[j, j]
    # L L^T = Q, so A = L^T is the upper factor with A^T A = Q.
    return low.T


def unimodular(q):
    """Scale a positive-definite form to determinant one."""
    q = check_symmetric(q)
    det = np.linalg.det(q)
    if det <= 0.0:
        raise ValueError("unimodular normalization needs positive determinant, got %g" % det)
    return q * det ** (-1.0 / q.shape[0])
