"""Seeded random generation of parameters, markings, and cusps for the
verification battery, the CLI demos, and the test suite."""

import numpy as np

from .cusp_groups import BlownUpWeylPoint, build_marked_cusp

__all__ = ["random_blownup_point", "random_marking", "random_cusp"]


def random_blownup_point(rng, n, t=None):
    """A valid blown-up parameter of the requested type (uniform over types
    when t is None), every nonzero lambda at least 0.3; kappa entries
    attached to zero lambda slots are free."""
    if t is None:
        t = int(rng.integers(0, n + 1))
    if not 0 <= t <= n:
        raise ValueError("type must be in [0, n]")
    lo, hi = 0.3, 2.5
    if t == n:
        lam0 = rng.uniform(lo, hi / 2)
        lam = np.sort(np.concatenate([[lam0], lam0 + rng.uniform(0, hi, n - 1)]))
        kap = lam[0] / lam[1:]
        return BlownUpWeylPoint(n, lam, kap)
    lam = np.zeros(n)
    if t > 0:
        lam[n - t:] = np.sort(rng.uniform(lo, hi, t))
    kap = np.zeros(n - 1)
    u = n - 1 - t
    kap[:u] = rng.uniform(0.0, 1.0, u)
    return BlownUpWeylPoint(n, lam, kap)


# random_marking's draws before it gives up.  The rarest acceptance in use
# is dim 7 at cond_max 10, about 0.16 a draw (0.11 at dim 8): 1024 draws all
# fail there with probability below 1e-50.
_MAX_DRAWS = 1024


def random_marking(rng, dim, cond_max=40.0, unit_det=True):
    """Random matrix with |det| = 1 and condition number at most
    ``cond_max``: the first standard normal draw with |det| >= 1e-6 that
    passes, scaled to |det| = 1 before the test.  ``unit_det=False``
    returns the passing draw unscaled.  Raises RuntimeError after
    _MAX_DRAWS rejected draws."""
    for _ in range(_MAX_DRAWS):
        m = rng.standard_normal((dim, dim))
        det = abs(np.linalg.det(m))
        if det < 1e-6:
            continue
        if unit_det:
            m = m / det ** (1.0 / dim)
        if np.linalg.cond(m) <= cond_max:
            return m
    raise RuntimeError(
        "could not draw a %d x %d matrix of condition <= %g in %d draws"
        % (dim, dim, cond_max, _MAX_DRAWS))


def random_cusp(rng, n, t=None, orthonormalized=None):
    p = random_blownup_point(rng, n, t)
    if orthonormalized is None:
        orthonormalized = bool(rng.integers(0, 2))
    return build_marked_cusp(p, random_marking(rng, n - 1), orthonormalized=orthonormalized)
