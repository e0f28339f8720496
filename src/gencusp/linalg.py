"""Small dense linear-algebra kernels shared by every other module.

Everything here is pure and deterministic: a fixed-order scaling-and-squaring
matrix exponential, the entire-function family f_k appearing in the closed-form
orbit surfaces, Newton's identities, and the square roots of a
positive-definite form.

It also states the library's tolerance policy, and it alone enters
``np.errstate``.  Every zero, singularity and roundoff-slack test of the
other modules reads one of these names:

* ``ZERO``, for whether a magnitude is zero or a matrix singular, relative
  to the largest magnitude it is compared with, so free of absolute size:
  ``nonzero`` (the type t of a cusp counts its nonzero weights), the Newton
  residual of the sphere search at unit scale, a degenerate tangent frame
  (its smallest singular value against its largest), a singular marking
  (its |det| against the product of its column norms);
* ``SLACK``, for an identity that holds exactly in exact arithmetic, relative
  to the largest magnitude in it: a symmetric form (``check_symmetric``),
  the order and the constraint of the parameters, equal lambdas;
* ``DET_TOL`` and ``ROUNDOFF``, for whether a form is unimodular
  (``check_unimodular``) and a marking has |det| = 1 (|log|det|| at most
  ``DET_TOL``); ``ROUNDOFF`` also sets the noise floor of tests whose
  roundoff grows with cond(q).
"""

import math
import weakref
from functools import lru_cache

import numpy as np

__all__ = [
    "ZERO",
    "ROUNDOFF",
    "DET_TOL",
    "SLACK",
    "nonzero",
    "check_unimodular",
    "sqrt_forms",
    "expm",
    "f_k",
    "h_log",
    "g_surface",
    "newton_to_elementary",
    "unimodular",
    "unimodular_scale",
    "unimodular_from_log_det",
    "check_symmetric",
    "maxerr",
    "maxerr_symmetric",
]

# A magnitude is zero when it is at most ZERO times the largest magnitude it
# is compared with: scaling all of them leaves the verdict.  Magnitudes are norms,
# never squared norms: a weight of size m has dual norm m^2, which would sink
# below the threshold at m = 1e-5.
ZERO = 1e-10

# Roundoff multiple for tests whose noise grows with cond(q): the unimodular
# check here and the noise floor of the shape lift.
ROUNDOFF = 64.0

# Absolute slack of |det - 1| for a well-conditioned form, and of
# log|det B| = 0 for a marking.
DET_TOL = 1e-9

# Slack of an identity that holds exactly in exact arithmetic (a symmetric
# form, an order or a constraint among parameters, two equal lambdas),
# relative to the largest magnitude in it.
SLACK = 1e-12

# The unit roundoff of a double, read once: np.finfo costs a call.
_EPS = float(np.finfo(float).eps)

# expm's Taylor order
_EXPM_ORDER = 14

# Switch f_1, f_2, h, g to their Taylor branch below this |s*t|; the closed
# forms lose every digit to cancellation as s -> 0.
_SERIES_CUT = 1e-4


def _series_or_closed(z, series, closed):
    """``series()`` where |z| < _SERIES_CUT, else ``closed()``, elementwise; a
    scalar z gives a scalar.  Both branches are evaluated at every point with
    floating-point warnings off: the branch a point does not take may divide
    by zero or overflow there, and its value is discarded.  An overflow in
    the branch taken still gives inf, without a warning."""
    with np.errstate(all="ignore"):
        return np.where(np.abs(z) < _SERIES_CUT, series(), closed())[()]


def nonzero(mags, largest=None):
    """Mask of the magnitudes above ZERO * max(mags): a magnitude that is
    itself the largest is nonzero unless it is 0.  ``largest``, when given,
    is max(mags) (0 for none), already taken by the caller."""
    mags = np.asarray(mags, dtype=float)
    if largest is None:
        largest = mags.max(initial=0.0)
    return mags > ZERO * largest


# The forms check_unimodular and unimodular_scale returned, keyed by id and
# content while they live: the memo holds no reference, so an entry goes
# with its form, and a form altered since its check misses its entry.
_VALIDATED = weakref.WeakValueDictionary()


def check_unimodular(q, what):
    """Validate a unimodular positive-definite form; returns it symmetrized
    and read-only.

    ``what`` names the form in the error.  The determinant may miss 1 by
    max(DET_TOL, ROUNDOFF * eps * cond(q)): its computed value carries
    roundoff of about eps * cond(q), so an ill-conditioned form that is
    unimodular to working precision passes.

    Positivity and the determinant both come from one eigendecomposition.
    A form this function or ``unimodular_scale`` returned, still read-only
    and unaltered, is returned as it is; any other input is checked in full.
    """
    if (isinstance(q, np.ndarray) and not q.flags.writeable
            and _VALIDATED.get((id(q), q.tobytes())) is q):
        return q
    return _validated(check_symmetric(q), what)


def _validated(q, what):
    """check_unimodular on a finite, bitwise-symmetric form of our own."""
    evals = np.linalg.eigvalsh(q).tolist()
    if evals[0] <= 0:
        raise ValueError("%s must be positive definite" % what)
    det = math.prod(evals)
    slack = max(DET_TOL, ROUNDOFF * _EPS * evals[-1] / evals[0])
    if abs(det - 1.0) > slack:
        raise ValueError("%s must be unimodular (det %g)" % (what, det))
    q.setflags(write=False)
    _VALIDATED[id(q), q.tobytes()] = q
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
    return float((np.abs(a - b) / np.maximum(1.0, np.abs(b))).max())


def maxerr_symmetric(a, b):
    """``maxerr`` relative to the larger of |a| and |b| in each entry, so
    symmetric in a and b: for unimodular forms, which have no size."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float((np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))).max())


# expm's cap on a scaled inf-norm, half the largest double
_NORM_CAP = 0.5 * np.finfo(float).max


@lru_cache(maxsize=None)
def _identity(k):
    """The k x k identity, read-only: one per size, shared by expm calls."""
    eye = np.eye(k)
    eye.setflags(write=False)
    return eye


def expm(m):
    """Matrix exponential of one square matrix by scaling-and-squaring with a
    truncated Taylor series of order _EXPM_ORDER = 14 (Horner form).

    The matrix is scaled so its inf-norm is <= 0.5 before the series is
    evaluated, which keeps the truncation error near roundoff for spectral
    radius up to ~50 and makes the result exact (to rounding) for nilpotent
    matrices of degree below the series order.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm requires a square matrix, got shape %r" % (a.shape,))
    if not np.isfinite(a).all():
        raise ValueError("expm requires finite entries")
    eye = _identity(a.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(a).sum(axis=-1).max(initial=0.0)
        # an inf-norm that overflows is capped, so nsq stays finite
        norm = min(max(norm, 0.5), _NORM_CAP)
        nsq = int(np.ceil(np.log2(norm / 0.5)))
        s = np.ldexp(a, -nsq)  # exact, and no 2^nsq to overflow
        # s @ eye is s exactly, so the first Horner step needs no product
        acc = eye + s / _EXPM_ORDER
        for j in range(_EXPM_ORDER - 1, 0, -1):
            acc = eye + (s @ acc) / j
        for _ in range(nsq):
            acc = acc @ acc
    if not np.isfinite(acc).all():
        raise OverflowError("expm overflowed double precision (entries too large)")
    return acc


def f_k(k, s, t):
    """f_k(s,t) = sum_{j>=k} s^(j-k) t^j / j!  for k in {0,1,2}, elementwise
    in s and t.

    f_0 = exp(st); f_1 = (e^{st}-1)/s; f_2 = (e^{st}-1-st)/s^2, with the
    analytic values t and t^2/2 at s=0.
    """
    if k not in (0, 1, 2):
        raise ValueError("f_k defined for k in {0,1,2}, got %r" % (k,))
    z = np.multiply(s, t)
    if k == 0:
        return np.exp(z)
    if k == 1:
        return _series_or_closed(
            z,
            lambda: t * (1.0 + z * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120 + z / 720))))),
            lambda: t * np.expm1(z) / z,
        )
    return _series_or_closed(
        z,
        lambda: t * t * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120 + z * (1 / 720 + z / 5040))))),
        lambda: t * t * (np.expm1(z) - z) / (z * z),
    )


def _domain_product(ell, x, name):
    """ell * x, which must stay above -1 at every point."""
    z = np.multiply(ell, x)
    if np.any(z <= -1.0):
        raise ValueError("%s domain violation: 1 + ell*x <= 0" % name)
    return z


def h_log(ell, x):
    """Inverse of x = f_1(ell, v): h(ell,x) = log(1+ell*x)/ell, h(0,x) = x,
    elementwise in ell and x.

    Defined for 1 + ell*x > 0.
    """
    z = _domain_product(ell, x, "h_log")
    return _series_or_closed(
        z,
        lambda: x * (1.0 - z * (1 / 2 - z * (1 / 3 - z * (1 / 4 - z * (1 / 5 - z / 6))))),
        lambda: np.log1p(z) / ell,
    )


def g_surface(ell, x):
    """g(ell,x) = (ell*x - log(1+ell*x))/ell^2, g(0,x) = x^2/2, elementwise
    in ell and x.

    Strictly convex and proper in x on 1 + ell*x > 0; the per-coordinate
    height profile of the canonical orbit surfaces.
    """
    z = _domain_product(ell, x, "g_surface")
    return _series_or_closed(
        z,
        lambda: x * x * (1 / 2 - z * (1 / 3 - z * (1 / 4 - z * (1 / 5 - z * (1 / 6 - z / 7))))),
        lambda: (z - np.log1p(z)) / (ell * ell),
    )


def newton_to_elementary(power_sums):
    """Elementary symmetric polynomials e_1..e_m from one row of power sums
    p_1..p_m by Newton's identities, k*e_k = sum_{i=1}^k (-1)^(i-1) e_{k-i}
    p_i, over Python floats: numpy's per-call overhead would dominate."""
    p = np.asarray(power_sums, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("need one row of at least one power sum")
    row = p.tolist()
    e = [1.0]
    for k in range(1, len(row) + 1):
        acc = 0.0
        # the sign (-1)^(i-1) as an add or a subtract: exact either way
        for i in range(1, k + 1):
            if i % 2:
                acc += e[k - i] * row[i - 1]
            else:
                acc -= e[k - i] * row[i - 1]
        e.append(acc / k)
    return np.array(e[1:])


def check_symmetric(q):
    """Validate a finite form, symmetric to SLACK = 1e-12 relative to its
    largest entry; returns the symmetrized matrix, a new array."""
    return _symmetrized(q)[0]


def _symmetrized(q):
    """(check_symmetric(q), max|q|): the form's largest magnitude is taken
    once, for the finiteness and symmetry tests and for the caller."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("expected a square matrix, got shape %r" % (q.shape,))
    # the largest magnitude is non-finite exactly when some entry is
    largest = float(np.abs(q).max())
    if not math.isfinite(largest):
        raise ValueError("matrix entries must be finite")
    # bitwise symmetric (signed zeros included): 0.5 (q + q^T) is q itself
    if q.tobytes() == q.T.tobytes():
        return q.copy(), largest
    if np.abs(q - q.T).max() > SLACK * largest:
        raise ValueError("matrix is not symmetric within %g" % SLACK)
    return 0.5 * (q + q.T), largest


def unimodular_scale(q, what):
    """(s q, s): q scaled to det 1 by s = det(q)^(-1/dim) and checked as
    ``check_unimodular`` checks, read-only (errors name ``what``).  s q of
    the symmetrized q is bitwise symmetric: it is not symmetrized again."""
    q, largest = _symmetrized(q)
    det = np.linalg.det(q)
    if det <= 0.0:
        raise ValueError("%s must be positive definite (det %g)" % (what, det))
    return _scaled(q, largest, det ** (-1.0 / q.shape[0]), what)


def unimodular_from_log_det(q, log_det, what):
    """``unimodular_scale`` by s = exp(-log_det / dim), log_det = log det q
    known by another route than an LU of q; the eigenvalues still check it."""
    q, largest = _symmetrized(q)
    return _scaled(q, largest, math.exp(-log_det / q.shape[0]), what)


def _scaled(q, largest, s, what):
    """(s q, s) checked, q our own symmetrized copy and largest its max|q|."""
    # max|s q| is at most fl(s max|q|), max|q| of the form before it was
    # symmetrized (its very value for a symmetric one): tested before any
    # entry can overflow
    if not math.isfinite(float(s) * largest):
        raise ValueError("matrix entries must be finite")
    q *= s  # _symmetrized's own copy; q * s bit for bit
    return _validated(q, what), s


def unimodular(q):
    """A positive-definite form scaled to det 1, checked (``unimodular_scale``)."""
    return unimodular_scale(q, "form")[0]
