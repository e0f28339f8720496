"""Conjugacy invariants of marked cusps and their inversions.

The complete invariant is the pair (character, unimodular horosphere metric);
the character is handled through its multiset of Lie-algebra weight covectors,
never by pointwise sampling (exp blowup makes pointwise comparison fragile).
"""

import math
import sys
from functools import lru_cache

import numpy as np

from .cusp_groups import (
    BlownUpWeylPoint,
    PsiParameter,
    _calibration_frame,
    build_marked_cusp,
)
from .linalg import (
    Frozen,
    check_unimodular,
    expm,
    maxerr,
    maxerr_symmetric,
    nonzero,
    sqrt_forms,
    unimodular_from_log_det,
)

__all__ = [
    "CharacterData",
    "CompleteInvariant",
    "WeightData",
    "NotRealizable",
    "CONJUGATE_TOL",
    "REALIZE_TOL",
    "weights_of",
    "metric_and_scale",
    "horosphere_metric",
    "complete_invariant",
    "eta_distance",
    "are_conjugate",
    "recover_psi_from_invariant",
    "marked_psi_normal_form",
    "weight_data",
    "realize_weight_data",
    "stratum_dim",
    "limit_demo_rows",
]

# The default gates of are_conjugate, on eta_distance, and of
# realize_weight_data, on the weights-equation residual.
CONJUGATE_TOL = 1e-8
REALIZE_TOL = 1e-8


class NotRealizable(ValueError):
    """Input that a recovery map rejects as data, not as a numerical failure:
    what no marked cusp realizes (weight data off the weights equation, also
    as the weight data of a complete invariant, and a cubic off the shape
    cone), and an invariant with n < 3, below the range of
    ``recover_psi_from_invariant`` and ``recover_cusp_from_shape``."""


def _canonical_rows(w):
    """(rows, sizes, size): w's rows in canonical order, each row's max-abs
    coordinate in the same order (what ``_live_rows`` tests), and max|w|,
    the largest of them: taken once, for every caller.

    The canonical order is lexicographic by coordinates rounded to 12
    decimals of w / 2^e, 2^e the power of 2 just above max|w| (exact, so
    free of the weights' size).  Weights that are not a matrix of rows, or
    not finite, raise ValueError."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValueError("weights must be a matrix of rows, got shape %r" % (w.shape,))
    sizes = np.abs(w).max(axis=1, initial=0.0)
    size = float(sizes.max(initial=0.0))  # NaN or inf if any entry is
    if not math.isfinite(size):
        raise ValueError("weights must be finite")
    if w.shape[1] == 0:
        # lexsort needs at least one key; rows with no coordinates all tie
        return w.copy(), sizes, size
    # lexsort's last key is the primary one, so the columns go in reverse
    order = np.lexsort(np.ldexp(w, -math.frexp(size)[1]).round(12).T[::-1])
    return w[order], sizes[order], size


class CharacterData(Frozen):
    """Multiset of the n+1 Lie-algebra weight covectors (rows) of the affine
    character, stored in canonical order.  The translation line contributes
    a zero covector, so a multiset without one is rejected.

    Each row's max-abs coordinate (``sizes``) and their largest (``size``,
    max|w|) are taken once here, with the order, and read by
    ``eta_distance`` and the weight data.
    """

    _fields = ("weights",)
    __slots__ = _fields + ("sizes", "size")

    def __init__(self, weights):
        w, sizes, size = _canonical_rows(weights)
        if _live_rows(w, sizes, size).all():
            raise ValueError("affine character data must contain a zero covector")
        for name, a in (("weights", w), ("sizes", sizes)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "size", size)

    def chi(self, v):
        return float(np.sum(np.exp(self.weights @ np.asarray(v, dtype=float))))


class CompleteInvariant(Frozen):
    __slots__ = _fields = ("character", "metric")

    def __init__(self, character, metric):
        object.__setattr__(self, "metric", _metric_of(character.weights, metric, 2))
        object.__setattr__(self, "character", character)


def _metric_of(weights, metric, extra):
    """The metric checked (``check_unimodular``) for weight rows of as many
    coordinates as it has rows, and ``extra`` more rows than coordinates:
    the n + 1 weights of a character (2) or the n of weight data (1), each
    of n - 1 coordinates."""
    metric = check_unimodular(metric, "metric")
    rows, coords = weights.shape
    if coords != metric.shape[0]:
        raise ValueError("weights have %d coordinates, the metric is %d x %d"
                         % (coords, *metric.shape))
    if rows != coords + extra:
        raise ValueError("expected %s weights of n - 1 coordinates, got %d of %d"
                         % ("n + 1" if extra == 2 else "n", rows, coords))
    return metric


class WeightData(Frozen):
    """The n linear-part weight covectors plus the unimodular metric, read
    once at unit size: the rows w' = w / 2^e (``unit_weights``), 2^e the
    power of 2 just above max|w| (``exponent``, ``_canonical_rows``' own), and
    their ``dual_gram`` (``unit_gram``).  Every reader of the data's dual
    Gram data reads these and scales back by a power of 2, exactly, so none
    under- or overflows at any size of the weights."""

    _fields = ("weights", "metric")
    __slots__ = _fields + ("unit_weights", "exponent", "unit_gram")

    def __init__(self, weights, metric):
        w, _, size = _canonical_rows(weights)
        self._read(w, metric, size)

    @classmethod
    def _from_canonical(cls, weights, metric, size):
        """Weight data from rows already finite and in canonical order, and
        their max|w| ``size``, taken as they are where the constructor would
        sort them again: a character's weights less its smallest row, which
        a stable sort leaves in place and whose removal leaves its size."""
        data = object.__new__(cls)
        data._read(weights, metric, size)
        return data

    def _read(self, weights, metric, size):
        metric = _metric_of(weights, metric, 1)
        e = math.frexp(size)[1]
        unit = np.ldexp(weights, -e)
        gram = dual_gram(unit, metric)
        for a in (weights, unit) + gram[:2]:
            a.setflags(write=False)
        for name, value in (("weights", weights), ("metric", metric), ("unit_weights", unit),
                            ("exponent", e), ("unit_gram", gram)):
            object.__setattr__(self, name, value)

    def _scaled_back(self, x, what):
        """x, a square of the weights at unit size, times 4^e, or refused."""
        try:
            return math.ldexp(x, 2 * self.exponent)
        except OverflowError:
            raise ValueError("%s is out of the float range: %.6g times 2^%d"
                             % (what, x, 2 * self.exponent)) from None

    @property
    def varpi(self):
        """Negated mean of the off-diagonal dual pairings (symmetric,
        unbiased estimate of the weights-equation constant)."""
        return self._scaled_back(self.unit_gram[2], "varpi")

    @property
    def residual_ratio(self):
        """The weights-equation residual over the largest dual norm, both
        read at unit size, so free of the weights' size: the ratio that
        ``realize_weight_data`` gates on (0 when the residual is)."""
        norms, off, varpi = self.unit_gram
        resid = _equation_residual(off, varpi)
        return resid / float(norms.max()) if resid else 0.0

    @property
    def type_t(self):
        """The type ``realize_weight_data`` builds (``_realized_type``)."""
        return _realized_type(self.unit_weights, *self.unit_gram[1:])


@lru_cache(maxsize=None)
def _off_diagonal(k):
    """Mask of the entries off the diagonal of a k x k matrix, read-only."""
    mask = ~np.eye(k, dtype=bool)
    mask.setflags(write=False)
    return mask


def dual_gram(weights, metric):
    """(N, off, varpi) of the weight rows W under ``metric``, from its one
    inverse and one product W q^-1 W^T: the dual norms, its diagonal, the
    off-diagonal pairings, and varpi, their negated mean (zero for one
    row).  A row's N can depend on the other rows (at n = 3 it does): pass
    only the rows whose N you need."""
    gram = weights @ np.linalg.inv(metric) @ weights.T
    norms = gram.diagonal()
    off = gram[_off_diagonal(gram.shape[0])]
    # np.mean's own sum and division, without its per-call overhead
    return norms, off, -float(np.add.reduce(off) / max(off.size, 1))


def weights_of(cusp):
    """All n+1 affine weight covectors: the rows of the cusp's calibration
    frame C = [kappa^T; I] M at its effective marking M (the cusp's one
    ``calibration_frame``) scaled by the model's ``coefficients``, and the
    zero row of the translation line.  They are the products
    ``lie_algebra_phi`` puts on the stack's diagonal, so the reading is that
    diagonal bit for bit whether or not the stack is ever built.

    The reading is refused, with 'character cross-check failed', when an
    entry the stack would hold is non-finite: then the diagonal need not be
    the spectrum.  That is decided before numpy forms a product that could
    overflow, in Python floats, by a bound per column m_g of the marking:
    (lam_max + 2|lam_0| + 4) sum_i |m_ig| is at least each product lam_i m_ig
    and twice each entry that reads <m_g, kappa>, kappa being in [0, 1].
    The character itself is checked in the battery (``verify``'s
    ``character-trace-newton``): Newton's identities on the traces of a
    conjugated holonomy, in a basis where it is not triangular, against the
    eigenvalues this reading gives.
    """
    p, m = cusp.params, cusp.effective_marking.T
    lam = p.lam.tolist()
    grow = abs(lam[-1]) + 2.0 * abs(lam[0]) + 4.0
    for g, col in enumerate(m.tolist()):
        if not math.isfinite(grow * sum(map(abs, col))):
            raise ValueError(
                "character cross-check failed: generator %d has a non-finite entry" % g)
    weights = np.zeros((p.n + 1, p.n - 1))
    weights[:-1] = (p.coefficients * cusp.calibration_frame).T
    return CharacterData(weights)


def metric_and_scale(cusp):
    """(q, s): the unimodular metric q = s C^T C = s M^T (I + kappa kappa^T) M,
    with C the cusp's ``calibration_frame`` at the effective marking M, and
    its scale s = det(C^T C)^(-1/(n-1)) from the cusp's ``gram_log_det``,
    memoized on the cusp.  q is built and checked in full once per cusp
    instance (``linalg.unimodular_from_log_det``), and is read-only:
    ``horosphere_metric``, ``complete_invariant`` and the closed shape route
    share it."""
    memo = cusp._metric
    if memo is None:
        frame = cusp.calibration_frame
        memo = unimodular_from_log_det(frame @ frame.T, cusp.gram_log_det, "metric")
        object.__setattr__(cusp, "_metric", memo)
    return memo


def horosphere_metric(cusp):
    """Unimodular second-order part of the height function at the basepoint,
    in closed form: the Gram matrix C^T C = M^T (I + kappa kappa^T) M of the
    calibration frame at the effective marking M, scaled to det 1
    (``metric_and_scale``, so the same read-only array on every call for one
    cusp).

    The independent route is the quadratic part of the exact series jet,
    ``unimodular(shape.fit_height_jet(cusp)[0])``.
    """
    return metric_and_scale(cusp)[0]


def complete_invariant(cusp):
    """The pair (character, unimodular metric), memoized on the cusp:
    ``weights_of`` and its structural refusals run once per cusp instance,
    and ``weight_data`` and ``are_conjugate`` share the result.  The metric
    is the cusp's ``horosphere_metric`` itself."""
    eta = cusp._invariant
    if eta is None:
        eta = CompleteInvariant(weights_of(cusp), horosphere_metric(cusp))
        object.__setattr__(cusp, "_invariant", eta)
    return eta


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
    the assignment that minimizes the sum of the deviations.

    Both sides arrive in ``_canonical_rows``' order, and for conjugate
    cusps that order is almost always an optimal matching already.  It is
    taken without the Hungarian method when it is certified: every diagonal
    entry is finite and is the minimum of its row.  Then the diagonal's sum
    is the sum of the row minima, a lower bound on every assignment, so the
    identity is optimal; and any other optimal assignment also reaches that
    bound, so it too picks each row's minimum, which is that row's diagonal
    entry.  Every optimal matching therefore has the same matched costs row
    by row, and the max over them is the diagonal's max, exactly.  A finite
    diagonal means every row of ``a`` and of ``b`` is finite (a non-finite
    coordinate makes its whole row or column of ``cost`` inf or NaN), so a
    non-finite weight always falls through to ``linear_sum_assignment``,
    which raises ValueError; NaN would fail ``<=`` anyway, but an inf
    diagonal is "row-minimal".
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.inf
    cost = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    diag = cost.diagonal()
    if np.isfinite(diag).all() and (diag <= cost.min(axis=1)).all():
        return float(diag.max())
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def eta_distance(e1, e2):
    """Distance between complete invariants, symmetric in e1 and e2: the
    larger of the metric deviation (``maxerr_symmetric``: a unimodular
    metric has no size) and the weight deviation, the max over the pairs
    matched by the min-sum assignment, relative to the larger multiset's
    largest |w| (0 when both are zero).
    Different n are infinitely far apart; the metrics are not compared."""
    w1, w2 = e1.character.weights, e2.character.weights
    if w1.shape != w2.shape:
        return np.inf
    size = max(e1.character.size, e2.character.size)
    dw = _match_multisets(w1, w2) / size if size else 0.0
    return max(dw, maxerr_symmetric(e1.metric, e2.metric))


def are_conjugate(c1, c2, tol=CONJUGATE_TOL):
    """Marked cusps are conjugate iff their complete invariants agree."""
    if c1.n != c2.n:
        return False
    return eta_distance(complete_invariant(c1), complete_invariant(c2)) <= tol


def _live_rows(w, sizes=None, size=None):
    """Mask of the nonzero covectors (rows) of the weights w, by
    ``linalg.nonzero`` on each row's max-abs coordinate: the one such test.
    ``sizes`` and ``size``, when given, are those coordinates and their
    largest, already taken by the caller (``_canonical_rows``)."""
    if sizes is None:
        sizes = np.abs(w).max(axis=1, initial=0.0)
    return nonzero(sizes, size)


def _linear_weights(chi):
    """The linear-part weights of the character ``chi``: its rows less the
    smallest (by max-abs coordinate), which is dead, as a character has a
    dead row.  It is the translation line's exact zero when there is one,
    so a tiny weight ~lambda0^2 stays."""
    smallest = int(chi.sizes.argmin())
    return np.concatenate((chi.weights[:smallest], chi.weights[smallest + 1:]))


def _realized_type(weights, off, varpi):
    """The type of weight data from its reading at unit size (``WeightData``):
    n when varpi is above the pairings' spread, the weights-equation
    residual, else the number of live rows, at most n - 1.
    ``WeightData.type_t``, ``realize_weight_data`` and through it
    ``recover_psi_from_invariant`` all read it.

    A zero weight pairs to exactly 0 with every other, so data with one has a
    spread of at least varpi, at any size of the rest.  Data with n live
    weights reads type n - 1 only when varpi ~ lambda0^2 has sunk into the
    pairings' spread; the dependent weight, of size ~lambda0^2 kappa, is then
    the smallest of the n and is taken as the zero one.  Data with n
    genuinely nonzero weights fails the weights equation instead: n vectors
    in R^(n-1) whose pairings all lie within the slack of each other include
    a tiny one.
    """
    n = weights.shape[0]
    if varpi > _equation_residual(off, varpi):
        return n
    return min(int(np.count_nonzero(_live_rows(weights))), n - 1)


def recover_psi_from_invariant(eta):
    """The unique ordered diagonal-model parameter with complete invariant
    ``eta``: the normal form (``marked_psi_normal_form``) of the cusp that
    its weight data realizes (``realize_weight_data``), whose refusals it
    shares.  The battery's ``psi-recovery-roundtrip`` checks it against the
    weights' own relations as well.
    """
    n = eta.character.weights.shape[0] - 1
    if n < 3:
        raise NotRealizable("recovery requires n >= 3, got n = %d" % n)
    return marked_psi_normal_form(realize_weight_data(_weight_data_of(eta)).params)


def marked_psi_normal_form(p):
    """The unique ordered diagonal-model parameter of the *marked* class of a
    canonical build on (lambda, kappa) with a |det| = 1 marking.

    The conjugations taking the blown-up model to the diagonal model carry
    non-unimodular reparametrizations, whose determinants fold into a scale
    on psi: for type t = n the factor is |det f|^(1/(n-1)) with
    f = Diag(lam0^2 lam_i); for 0 < t < n it is
    (vk^((n-1)/2) / prod c_i)^(1/t) with c_i the diagonal reparametrization
    of the standardized model and vk^(n-1) = 1 + |kappa|^2.  Everything is
    taken in logs, from lambda itself: log psi0 = -2 log lam over the t live
    lambdas (psi0 = lam^-2 itself leaves the float range with lambda
    beyond 1e+-154), the factor as 2 log lam0 + mean log lam_i or
    log prod c_i.  So the normal form is refused only where psi itself is
    out of the float range.
    """
    n = p.n
    t = p.type_t
    psi = np.zeros(n)
    if t == 0:
        return PsiParameter(n, psi, ordered=True)
    # lambda ascends, so its live tail gives psi0's positive entries descending
    logs = -2.0 * np.log(p.lam[n - t:])
    if t == n:
        log_s = 2.0 * math.log(p.lam[0]) + float(np.log(p.lam[1:]).mean())
    else:
        u = n - 1 - t
        log_det_c = (t + u / 2.0) * logs[-1] + 0.5 * float(logs.sum())
        log_s = (0.5 * math.log1p(float(np.dot(p.kappa, p.kappa))) - log_det_c) / t
    log_psi = log_s + logs
    lo, hi = float(log_psi.min()), float(log_psi.max())
    if not (math.log(sys.float_info.min) <= lo and hi < math.log(sys.float_info.max)):
        raise ValueError("psi is out of the float range: log psi in [%.6g, %.6g]" % (lo, hi))
    psi[:t] = np.exp(log_psi)
    return PsiParameter(n, psi, ordered=True)


def weight_data(cusp):
    return _weight_data_of(complete_invariant(cusp))


def _weight_data_of(eta):
    """The weight data of a complete invariant."""
    chi = eta.character
    return WeightData._from_canonical(_linear_weights(chi), eta.metric, chi.size)


def _equation_residual(off, varpi):
    """The weights-equation residual from the pairings and varpi: the max
    deviation of the off-diagonal dual pairings from the constant -varpi
    (the defining equation of realizable weight data), or -varpi itself
    when varpi is negative, since realizable data has varpi >= 0."""
    resid = float(np.abs(off + varpi).max(initial=0.0))
    if varpi < 0:
        resid = max(resid, -varpi)
    return resid


def _complete_orthonormal(rows):
    """Orthonormal matrix whose trailing rows are the k orthonormal ``rows``
    (k, dim) and whose leading rows are Q[:, k:dim] of the Householder QR
    of [rows^T | I]: the coordinate axes orthogonalized against the rows in
    a fixed order.  Any orthonormal basis of the complement would do, but
    this one is a fixed function of the rows, so rows moved by roundoff move
    the rebuilt marking by roundoff."""
    k, dim = rows.shape
    q = np.linalg.qr(np.hstack([rows.T, np.eye(dim)]))[0]
    return np.vstack([q[:, k:].T, rows])


def realize_weight_data(w, tol=REALIZE_TOL):
    """A marked cusp whose weight data is ``w``; since weight data determines
    the marked class completely, the round trip is the correctness oracle.

    The weights are read at unit size (``WeightData.unit_gram``) and lambda
    scaled back by the same power of 2, so the map is free of their size.
    Data off the weights equation raises ``NotRealizable``: the residual gate
    reads it over max N_i, which bounds every pairing (Cauchy-Schwarz), so
    against tol (``WeightData.residual_ratio``).  Then
    ``_realized_type`` decides the type t.  t = n: lambda_i =
    sqrt((N_i + varpi)/vk) with vk^(n-1) = (N_0 + varpi)/varpi, and the
    marking is determined by the n-1 largest weights.  t < n: the nonzero
    weights are pairwise dual-orthogonal; lambda reads off their dual norms
    and the marking is an isometry aligning them with coordinate covectors.
    """
    beta, ws, e = w.metric, w.unit_weights, w.exponent
    norms, off, varpi = w.unit_gram
    ratio = w.residual_ratio
    if ratio > tol:
        raise NotRealizable("weights equation residual %g exceeds %g of the largest dual norm"
                            % (ratio, tol))
    t = _realized_type(ws, off, varpi)
    n = ws.shape[0]
    dim = n - 1
    order = np.argsort(norms)
    ws = ws[order]
    norms = norms[order]
    if t == n:
        # the smallest weight may read as zero: as lambda0 -> 0 its dual
        # norm N_0 ~ lambda0^4 sinks to roundoff while varpi ~ lambda0^2
        # is still resolved
        vk = ((norms[0] + varpi) / varpi) ** (1.0 / dim)
        lam = np.sqrt((norms + varpi) / vk)
        p = BlownUpWeylPoint(n, np.ldexp(lam, e), lam[0] / lam[1:])
        marking = ws[1:] / lam[1:, None]
        # the model's weights at this marking, the first one dependent
        model = (p.coefficients * _calibration_frame(p, marking.T)).T
        if np.abs(model - w.weights[order]).max() > 1e-6 * np.abs(w.weights).max():
            raise ValueError("dependent weight inconsistent with the remaining ones")
        return build_marked_cusp(p, marking)
    lam = np.zeros(n)
    lam[n - t:] = np.sqrt(np.maximum(norms[n - t:], 0.0))
    p = BlownUpWeylPoint(n, np.ldexp(lam, e), np.zeros(dim))
    # rows q_j = beta^(-1/2) xi_j / lam_j are orthonormal; complete and pull back
    sqrt_beta, inv_sqrt, _ = sqrt_forms(beta)
    qrows = [(inv_sqrt @ ws[n - t + j]) / lam[n - t + j] for j in range(t)]
    omat = _complete_orthonormal(np.reshape(qrows, (t, dim)))
    marking = omat @ sqrt_beta
    return build_marked_cusp(p, marking)


def stratum_dim(n, t):
    """Dimension of the type-t stratum of the marked moduli space."""
    if not 0 <= t <= n:
        raise ValueError("type must satisfy 0 <= t <= n")
    if t == n:
        return n * n - n
    u = n - 1 - t
    return t + ((n - 1) ** 2 - 1) - u * (u - 1) // 2


def limit_demo_rows(kappa, m_max):
    """Convergence table of the diagonalizable family (lam0 = 1/m) toward its
    lam0 = 0 limit with kappa fixed, in dimension n = len(kappa) + 1:
    generator and invariant distances, both absolute: the limit is the
    cone's apex, whose weights are all 0."""
    kappa = np.asarray(kappa, dtype=float)
    if not np.all((kappa > 0) & (kappa <= 1)):
        raise ValueError("kappa entries must lie in (0, 1]")
    n = len(kappa) + 1
    order = np.argsort(-kappa)  # descending kappa gives ascending lambda
    kap = kappa[order]
    limit = build_marked_cusp(BlownUpWeylPoint(n, np.zeros(n), kap))
    limit_gens = [expm(g) for g in limit.generators]
    limit_eta = complete_invariant(limit)
    rows = []
    m = 10
    while m <= m_max:
        lam = np.concatenate([[1.0 / m], (1.0 / m) / kap])
        cusp = build_marked_cusp(BlownUpWeylPoint(n, lam, kap))
        pairs = zip(cusp.generators, limit_gens)
        gen_dist = max(float(np.max(np.abs(expm(g) - e))) for g, e in pairs)
        eta = complete_invariant(cusp)
        dw = _match_multisets(eta.character.weights, limit_eta.character.weights)
        inv_dist = max(dw, maxerr(eta.metric, limit_eta.metric))
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
