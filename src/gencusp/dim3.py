"""Dimension-3 specialization: complex (w, h, r) moduli coordinates,
harmonic/radial splitting of binary cubics, boundary strata, closed-form
surface heights, and mesh export."""

from dataclasses import dataclass

import numpy as np

from .cusp_groups import hypersurface_F
from .linalg import cholesky_upper, g_surface, nonzero
from .shape import CubicPoly, ShapeInvariant

__all__ = [
    "Cubic2D",
    "CuspCoords3D",
    "decompose_cubic_2d",
    "cubic_from_hr",
    "w_to_matrix",
    "coords_from_shape",
    "shape_from_coords",
    "classify_stratum_3d",
    "surface_height_3d",
    "surface_height_printed_row",
    "export_mesh_csv",
    "export_mesh_obj",
]

# Slack of the cone condition |r| <= 3|h|, the same in every test of it.
_CONE_SLACK = 1e-9

# classify_stratum_3d's band: 3|h| - |r| within it is the cone's boundary,
# and a Hessian covariant within it (relative) marks a perfect cube.
_BOUNDARY_TOL = 1e-8

# Half-width of the exported mesh grid, clipped to the surface domain.
_MESH_SPAN = 2.0


@dataclass(frozen=True)
class Cubic2D:
    """Binary cubic Re(h z^3 + r z |z|^2) through its harmonic and radial
    complex components."""

    h: complex
    r: complex


@dataclass(frozen=True)
class CuspCoords3D:
    """(w, h, r): conformal torus shape w (Im w > 0) plus the cubic split,
    constrained by |r| <= 3|h|."""

    w: complex
    h: complex
    r: complex

    def __post_init__(self):
        if self.w.imag <= 1e-12:
            raise ValueError("w must lie in the upper half plane")
        if abs(self.r) > 3.0 * abs(self.h) + _CONE_SLACK:
            raise ValueError("|r| <= 3|h| violated: |r|=%g, 3|h|=%g"
                             % (abs(self.r), 3.0 * abs(self.h)))


def decompose_cubic_2d(c):
    """Unique (h, r) with c = Re(h z^3 + r z |z|^2), z = x + iy.

    Expanding: c = h1(x^3-3xy^2) - h2(3x^2y-y^3) + r1 x(x^2+y^2) - r2 y(x^2+y^2).
    """
    if c.dim != 2:
        raise ValueError("decompose_cubic_2d needs a binary cubic")
    mono = c.monomials()
    a = mono.get((3, 0), 0.0)
    b = mono.get((2, 1), 0.0)
    cc = mono.get((1, 2), 0.0)
    d = mono.get((0, 3), 0.0)
    # [a,b,cc,d] = M [h1,h2,r1,r2]
    mat = np.array([
        [1.0, 0.0, 1.0, 0.0],
        [0.0, -3.0, 0.0, -1.0],
        [-3.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ])
    h1, h2, r1, r2 = np.linalg.solve(mat, np.array([a, b, cc, d]))
    return Cubic2D(complex(h1, h2), complex(r1, r2))


def cubic_from_hr(h, r):
    """Inverse of decompose_cubic_2d."""
    h, r = complex(h), complex(r)
    mono = {
        (3, 0): h.real + r.real,
        (2, 1): -3.0 * h.imag - r.imag,
        (1, 2): -3.0 * h.real + r.real,
        (0, 3): h.imag - r.imag,
    }
    return CubicPoly.from_monomials(2, mono)


def w_to_matrix(w):
    """The unique upper-triangular A in SL(2,R) with positive diagonal whose
    Mobius transformation sends w to i."""
    w = complex(w)
    if w.imag <= 0:
        raise ValueError("w must have positive imaginary part")
    a = w.imag ** -0.5
    return np.array([[a, -a * w.real], [0.0, 1.0 / a]])


def _mobius(m, z):
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def coords_from_shape(shape):
    """(w, h, r) of a 2-dimensional shape invariant: A = chol_upper(q) plays
    the role of A_w (so w is the Mobius image of i under A^-1), and (h, r)
    decompose c composed with A^-1.  The cubic must lie in the cone
    |r| <= 3|h| to _CONE_SLACK = 1e-9."""
    if shape.q.shape[0] != 2:
        raise ValueError("coords_from_shape needs a 2-dimensional shape (n = 3)")
    a = cholesky_upper(shape.q)
    w = _mobius(np.linalg.inv(a), 1j)
    split = decompose_cubic_2d(shape.c.compose_linear(np.linalg.inv(a)))
    if abs(split.r) > 3.0 * abs(split.h) + _CONE_SLACK:
        raise ValueError(
            "cubic lies outside the cone |r| <= 3|h| (|r|=%g, 3|h|=%g): "
            "not the shape of a 3-dimensional cusp" % (abs(split.r), 3 * abs(split.h))
        )
    return CuspCoords3D(w, split.h, split.r)


def shape_from_coords(coords):
    """Inverse of coords_from_shape: q = A_w^T A_w, c = Re(hz^3+rz|z|^2) o A_w."""
    a = w_to_matrix(coords.w)
    c = cubic_from_hr(coords.h, coords.r).compose_linear(a)
    return ShapeInvariant(a.T @ a, c)


def _hessian_covariant(c):
    """Coefficients of the Hessian covariant of a binary cubic (up to the
    constant 4): vanishes exactly when the cubic is a perfect cube."""
    mono = c.monomials()
    a = mono.get((3, 0), 0.0)
    b = mono.get((2, 1), 0.0)
    cc = mono.get((1, 2), 0.0)
    d = mono.get((0, 3), 0.0)
    return np.array([
        3.0 * a * cc - b * b,
        9.0 * a * d - b * cc,
        3.0 * b * d - cc * cc,
    ])


def classify_stratum_3d(h, r):
    """Stratum type of a point of the (h, r) cone |r| <= 3|h| (to
    _CONE_SLACK = 1e-9).

    0: cone point (h and r zero by ``linalg.nonzero``); 3: interior
    (3|h| - |r| > _BOUNDARY_TOL = 1e-8); on the boundary, 1 when the
    reconstructed cubic is a perfect cube of a linear form (Hessian covariant
    within _BOUNDARY_TOL), else 2.
    """
    h, r = complex(h), complex(r)
    if abs(r) > 3.0 * abs(h) + _CONE_SLACK:
        raise ValueError("(h, r) lies outside the cone |r| <= 3|h|")
    if not np.any(nonzero([abs(h), abs(r)])):
        return 0
    if 3.0 * abs(h) - abs(r) > _BOUNDARY_TOL:
        return 3
    c = cubic_from_hr(h, r)
    cov = _hessian_covariant(c)
    scale = max(1.0, c.coeff_norm() ** 2)
    return 1 if np.max(np.abs(cov)) <= _BOUNDARY_TOL * scale else 2


def surface_height_3d(lam, x1, x2):
    """Closed-form boundary height y = f_lambda(x1, x2) of the canonical
    3-dimensional cusp with kappa = 0 for types < 3.

    The rows are the algebraic reductions of the general surface function:
      t=0: (x1^2+x2^2)/2
      t=1: x1^2/2 + g(lam2, x2)
      t=2: g(lam1, x1) + g(lam2, x2)
      t=3: x1/lam1 + x2/lam2 + lam0^-2 (-1 + prod_i (1+lam_i x_i)^(-(lam0/lam_i)^2))
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (3,):
        raise ValueError("lambda must have 3 entries")
    t = int(np.sum(nonzero(lam)))
    if t == 0:
        return 0.5 * (x1 * x1 + x2 * x2)
    if t == 1:
        return 0.5 * x1 * x1 + g_surface(lam[2], x2)
    if t == 2:
        return g_surface(lam[1], x1) + g_surface(lam[2], x2)
    for ell, x in ((lam[1], x1), (lam[2], x2)):
        if 1.0 + ell * x <= 0:
            raise ValueError("surface domain violation: 1 + lambda*x <= 0")
    prod = (1.0 + lam[1] * x1) ** (-((lam[0] / lam[1]) ** 2)) * (
        1.0 + lam[2] * x2
    ) ** (-((lam[0] / lam[2]) ** 2))
    return x1 / lam[1] + x2 / lam[2] + (prod - 1.0) / lam[0] ** 2


def surface_height_printed_row(t, lam, x1, x2):
    """The t in {1,2,3} closed forms as printed in the source table (kept for
    the discrepancy report; they disagree with the derived surface function,
    see the verify battery)."""
    lam = np.asarray(lam, dtype=float)
    if t == 1:
        return 0.5 * x1 * x1 + np.log1p(lam[2] * x2) / lam[2] ** 2
    if t == 2:
        return (
            0.5 * (x1 + x2)
            - np.log1p(lam[1] * x1) / lam[1] ** 2
            + np.log1p(lam[2] * x2) / lam[2] ** 2
        )
    if t == 3:
        ssum = (1.0 + lam[1] * x1) ** (-((lam[0] / lam[1]) ** 2)) + (
            1.0 + lam[2] * x2
        ) ** (-((lam[0] / lam[2]) ** 2))
        return x1 / lam[1] + x2 / lam[2] + (ssum - 2.0) / lam[0] ** 2
    raise ValueError("printed rows exist for t in {1,2,3}")


def _grid_points(p, grid):
    """Sample grid on [-_MESH_SPAN, _MESH_SPAN]^2, clipped to 0.9 of the way
    to the edge of the surface domain prod (-1/lam_i, inf)."""
    g1, g2 = grid
    los = []
    for ell in p.lam[1:]:
        los.append(-min(_MESH_SPAN, 0.9 / ell) if ell > 0 else -_MESH_SPAN)
    xs = np.linspace(los[0], _MESH_SPAN, g1)
    ys = np.linspace(los[1], _MESH_SPAN, g2)
    return xs, ys


def export_mesh_csv(p, grid, path):
    """Write "x1,x2,y" rows sampling the canonical surface on the grid of
    ``_grid_points`` (half-width _MESH_SPAN = 2); values are formatted with
    17 significant digits so a re-read is bit-exact."""
    if p.n != 3:
        raise ValueError("mesh export is for 3-dimensional cusps")
    xs, ys = _grid_points(p, grid)
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("x1,x2,y\n")
            for x1 in xs:
                for x2 in ys:
                    y = hypersurface_F(p, np.array([x1, x2]))
                    fh.write("%.17g,%.17g,%.17g\n" % (x1, x2, y))
    except OSError as exc:
        raise OSError("mesh CSV export failed for %r: %s" % (path, exc)) from exc
    return len(xs) * len(ys)


def export_mesh_obj(p, grid, path):
    """Triangulated OBJ of the same grid: g1*g2 vertices and
    2(g1-1)(g2-1) faces, 1-based indices."""
    if p.n != 3:
        raise ValueError("mesh export is for 3-dimensional cusps")
    xs, ys = _grid_points(p, grid)
    g1, g2 = len(xs), len(ys)
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for i, x1 in enumerate(xs):
                for j, x2 in enumerate(ys):
                    y = hypersurface_F(p, np.array([x1, x2]))
                    fh.write("v %.17g %.17g %.17g\n" % (x1, x2, y))
            for i in range(g1 - 1):
                for j in range(g2 - 1):
                    a = i * g2 + j + 1
                    b = a + 1
                    c = a + g2
                    d = c + 1
                    fh.write("f %d %d %d\n" % (a, b, d))
                    fh.write("f %d %d %d\n" % (a, d, c))
    except OSError as exc:
        raise OSError("mesh OBJ export failed for %r: %s" % (path, exc)) from exc
    return g1 * g2, 2 * (g1 - 1) * (g2 - 1)
