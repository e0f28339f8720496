"""Small dense linear-algebra kernels shared by every other module.

Everything here is pure and deterministic: a fixed-order scaling-and-squaring
matrix exponential, the entire-function family f_k appearing in the closed-form
orbit surfaces, Newton's identities, and an upper Cholesky factor.
"""

import numpy as np

__all__ = [
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

# Switch f_1, f_2, h, g to their Taylor branch below this |s*t|; the closed
# forms lose every digit to cancellation as s -> 0.
_SERIES_CUT = 1e-4


def maxerr(a, b):
    """Worst entrywise deviation of ``a`` from ``b``, relative on magnitudes
    above 1 and absolute below."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def expm(m, order=14):
    """Matrix exponential by scaling-and-squaring with an order-``order``
    truncated Taylor series (Horner form).

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
        for k in range(order, 0, -1):
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


def check_symmetric(q, tol=1e-12):
    """Validate symmetry of a form; returns the symmetrized matrix."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (q.shape,))
    scale = max(1.0, float(np.max(np.abs(q))))
    if np.max(np.abs(q - q.T)) > tol * scale:
        raise ValueError("matrix is not symmetric within %g" % tol)
    return 0.5 * (q + q.T)


def cholesky_upper(q, tol=1e-12):
    """Unique upper-triangular A with positive diagonal and A^T A = Q.

    Raises ValueError naming the failing pivot index (0-based) when Q is not
    positive definite.
    """
    q = check_symmetric(q, tol)
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
