"""Seeded workload inputs, built only from the public constructors
``BlownUpWeylPoint`` and ``build_marked_cusp``.

The benchmark draws its own parameters instead of calling
``gencusp.sampling``, so a change to the library's sampler cannot silently
change what the benchmark measures.

Library functions are called through their module (``cusp_groups.f``),
so the wrappers a traced run installs there see these calls.

Every input is fixed by ``(seed, stream, index)``: case ``i`` of a stream has
a fixed dimension and type (cycled, so every run has the same mix of n and
type), and only its continuous parameters are random.
"""

import numpy as np

from gencusp import cusp_groups
from gencusp.cusp_groups import BlownUpWeylPoint

# Streams keep timed, warm-up and CLI inputs apart.
TIMED, WARMUP, CLI = 0, 1, 2
# Warm-up inputs do not depend on the run's seed, so that set-up time does
# not vary with it.
WARMUP_SEED = 2**32 - 1


class Case:
    """One generated cusp with the draws that produced it."""

    def __init__(self, index, n, t, small_lambda0, params, marking, orthonormalized):
        self.index = index
        self.n = n
        self.t = t
        self.small_lambda0 = small_lambda0
        self.params = params
        self.marking = marking
        self.orthonormalized = orthonormalized

    def build(self):
        """A fresh MarkedCusp object (identity-keyed caches see a new key)."""
        return cusp_groups.build_marked_cusp(self.params, self.marking, orthonormalized=self.orthonormalized)

    def remarked(self):
        """A conjugate copy with another marking and the other flag.

        With S the preferred square root of I + kappa kappa^T, the model
        with marking B has effective marking B, and the orthonormalized one
        with marking S B has effective marking B too. build_marked_cusp folds
        |det S| into lambda, and the scaling identity keeps the copy
        conjugate to the original.
        """
        kap = self.params.kappa
        alpha = float(kap @ kap)
        s = np.eye(self.n - 1)
        if alpha > 0.0:
            s += ((np.sqrt(1.0 + alpha) - 1.0) / alpha) * np.outer(kap, kap)
        if self.orthonormalized:
            return cusp_groups.build_marked_cusp(self.params, np.linalg.solve(s, self.marking))
        return cusp_groups.build_marked_cusp(self.params, s @ self.marking, orthonormalized=True)

def cusp_file(cusp):
    """The cusp-file form read by the ``gencusp`` commands."""
    return {
        "n": cusp.n,
        "lambda": [float(v) for v in cusp.params.lam],
        "kappa": [float(v) for v in cusp.params.kappa],
        "B": [[float(v) for v in row] for row in cusp.marking],
        "orthonormalized": bool(cusp.orthonormalized),
    }


def blownup_point(rng, n, t, small_lambda0=False):
    """(lambda, kappa) of type t: positive lambdas in [0.3, 2.5]; for t = n,
    lambda0 is uniform in [0.3, 1.25], or log-uniform in [1e-4, 0.3] when
    ``small_lambda0``; kappa entries on zero-lambda slots are uniform in
    [0, 1]."""
    if t == n:
        if small_lambda0:
            lam0 = 10.0 ** rng.uniform(-4.0, np.log10(0.3))
            rest = rng.uniform(0.3, 2.5, n - 1)
        else:
            lam0 = rng.uniform(0.3, 1.25)
            rest = lam0 + rng.uniform(0.0, 2.5, n - 1)
        lam = np.concatenate([[lam0], np.sort(rest)])
        return BlownUpWeylPoint(n, lam, lam0 / lam[1:])
    lam = np.zeros(n)
    if t:
        lam[n - t:] = np.sort(rng.uniform(0.3, 2.5, t))
    kap = np.zeros(n - 1)
    u = n - 1 - t
    kap[:u] = rng.uniform(0.0, 1.0, u)
    return BlownUpWeylPoint(n, lam, kap)


def marking(rng, dim, cond_max=40.0):
    """Random |det| = 1 matrix with condition number at most ``cond_max``."""
    while True:
        m = rng.standard_normal((dim, dim))
        det = abs(np.linalg.det(m))
        if det < 1e-6:
            continue
        m = m / det ** (1.0 / dim)
        if np.linalg.cond(m) <= cond_max:
            return m


def case(seed, stream, index, dims, small_share=0.0):
    """Case ``index`` of a stream: n cycles through ``dims``, t through
    0..n; among type-n cases a fixed share ``small_share`` (by position in
    the cycle) draws a small lambda0."""
    n = dims[index % len(dims)]
    k = index // len(dims)
    t = k % (n + 1)
    small = t == n and (k // (n + 1)) % 4 < round(4 * small_share)
    rng = np.random.default_rng([seed, stream, index])
    p = blownup_point(rng, n, t, small)
    b = marking(rng, n - 1)
    return Case(index, n, t, small, p, b, bool(k // (n + 1) % 2))


def cases(seed, stream, start, count, dims, small_share=0.0):
    return [case(seed, stream, i, dims, small_share) for i in range(start, start + count)]


def warmup_cases(dims):
    """One type-n case per n (the costliest type), from the warm-up stream."""
    return [case(WARMUP_SEED, WARMUP, p + len(dims) * n, dims) for p, n in enumerate(dims)]
