"""Dimension-3 specialization: complex (w, h, r) moduli coordinates,
harmonic/radial splitting of binary cubics, boundary strata, closed-form
surface heights, and mesh export."""

from dataclasses import dataclass

import numpy as np

from .cusp_groups import hypersurface_F
from .linalg import g_surface, nonzero

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

# Relative slack of the cone condition |r| <= 3|h| (1 + _CONE_SLACK), the
# same in every test of it.
_CONE_SLACK = 1e-9

# classify_stratum_3d's band, relative to |h|: 3|h| - |r| within it is the
# cone's boundary, and r^3 - 27|h|^2 h within it marks a perfect cube.
_BOUNDARY_TOL = 1e-8

# Half-width of the exported mesh grid, clipped to the surface domain.
_MESH_SPAN = 2.0


@dataclass(frozen=True)
class Cubic2D:
    """Binary cubic Re(h z^3 + r z |z|^2) through its harmonic and radial
    complex components."""

    h: complex
    r: complex


def _check_cone(h, r, what):
    """ValueError(what) unless (h, r) meets the scale-invariant test
    |r| <= 3|h|(1 + _CONE_SLACK), which the cone point h = r = 0 meets."""
    if abs(r) > 3.0 * abs(h) * (1.0 + _CONE_SLACK):
        raise ValueError("%s: |r|=%g, 3|h|=%g" % (what, abs(r), 3.0 * abs(h)))


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
        _check_cone(self.h, self.r, "|r| <= 3|h| violated")


def decompose_cubic_2d(c):
    """Unique (h, r) with c = Re(h z^3 + r z |z|^2), z = x + iy, in closed
    form from the monomial coefficients a x^3 + b x^2y + cc xy^2 + d y^3:
    h = ((a - cc) + i(d - b)) / 4 and r = ((3a + cc) - i(b + 3d)) / 4."""
    if c.dim != 2:
        raise ValueError("decompose_cubic_2d needs a binary cubic")
    t = c.tensor
    a, b, cc, d = t[0, 0, 0], 3.0 * t[0, 0, 1], 3.0 * t[0, 1, 1], t[1, 1, 1]
    return Cubic2D(complex(a - cc, d - b) / 4.0, complex(3.0 * a + cc, -(b + 3.0 * d)) / 4.0)


def cubic_from_hr(h, r):
    """Inverse of decompose_cubic_2d."""
    from .shape import CubicPoly

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


def coords_from_shape(shape):
    """(w, h, r) of a 2-dimensional shape invariant.  The upper factor of q
    is det(q)^(1/4) A_w, with A_w from ``w_to_matrix``, so w = (-q01 + i
    sqrt(det q)) / q00 (that is (-q01 + i) / q00 at det q = 1, which a
    shape's q meets only to ``check_unimodular``'s slack), and (h, r) split
    c composed with that factor's inverse.  The cubic must lie in the cone
    |r| <= 3|h|, to the relative slack _CONE_SLACK = 1e-9."""
    if shape.q.shape[0] != 2:
        raise ValueError("coords_from_shape needs a 2-dimensional shape (n = 3)")
    q = shape.q
    det = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
    w = complex(-q[0, 1], np.sqrt(det)) / q[0, 0]
    (a, b), (_, d) = (det ** 0.25 * w_to_matrix(w)).tolist()
    # the inverse of the upper-triangular factor in closed form, in the
    # order of operations that gives np.linalg.inv's bits
    ainv = np.array([[1.0 / a, -(b * (1.0 / d)) * (1.0 / a)], [0.0, 1.0 / d]])
    split = decompose_cubic_2d(shape.c.compose_linear(ainv))
    _check_cone(split.h, split.r, "cubic lies outside the cone |r| <= 3|h|, "
                "so it is not the shape of a 3-dimensional cusp")
    return CuspCoords3D(w, split.h, split.r)


def shape_from_coords(coords):
    """Inverse of coords_from_shape: q = A_w^T A_w, c = Re(hz^3+rz|z|^2) o A_w."""
    from .shape import ShapeInvariant

    a = w_to_matrix(coords.w)
    c = cubic_from_hr(coords.h, coords.r).compose_linear(a)
    return ShapeInvariant(a.T @ a, c)


def classify_stratum_3d(h, r):
    """Stratum type of a point of the (h, r) cone |r| <= 3|h| (to the
    relative slack _CONE_SLACK = 1e-9), invariant under scaling
    (h, r) -> (s h, s r).

    0: cone point (h = r = 0); 3: interior
    (3|h| - |r| > _BOUNDARY_TOL * 3|h|); on the boundary, 1 when the cubic is
    the cube of a linear form Re(conj(a) z), that is when h = conj(a)^3 / 4
    and r = 3|a|^2 conj(a) / 4, or r^3 = 27|h|^2 h (to _BOUNDARY_TOL *
    27|h|^3, in units of |h| so that no cube underflows), else 2.
    """
    h, r = complex(h), complex(r)
    _check_cone(h, r, "(h, r) lies outside the cone |r| <= 3|h|")
    if h == 0 and r == 0:
        return 0
    if 3.0 * abs(h) - abs(r) > _BOUNDARY_TOL * 3.0 * abs(h):
        return 3
    size = abs(h)
    return 1 if abs((r / size) ** 3 - 27.0 * (h / size)) <= _BOUNDARY_TOL * 27.0 else 2


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
    # prod - 1 as expm1 of log(prod): no cancellation as lam0 -> 0
    r1, r2 = (lam[0] / lam[1]) ** 2, (lam[0] / lam[2]) ** 2
    z = -r1 * np.log1p(lam[1] * x1) - r2 * np.log1p(lam[2] * x2)
    return x1 / lam[1] + x2 / lam[2] + np.expm1(z) / lam[0] ** 2


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


def _grid_heights(p, xs, ys):
    """hypersurface_F at every (xs[i], ys[j]), as a len(xs) x len(ys) array."""
    return hypersurface_F(p, np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1))


def export_mesh_csv(p, grid, path):
    """Write "x1,x2,y" rows sampling the canonical surface on the grid of
    ``_grid_points`` (half-width _MESH_SPAN = 2); values are formatted with
    17 significant digits so a re-read is bit-exact."""
    if p.n != 3:
        raise ValueError("mesh export is for 3-dimensional cusps, got n = %d" % p.n)
    xs, ys = _grid_points(p, grid)
    heights = _grid_heights(p, xs, ys)
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("x1,x2,y\n")
            for x1, row in zip(xs, heights):
                fh.write("".join("%.17g,%.17g,%.17g\n" % (x1, x2, y) for x2, y in zip(ys, row)))
    except OSError as exc:
        raise OSError("mesh CSV export failed for %r: %s" % (path, exc)) from exc
    return len(xs) * len(ys)


def export_mesh_obj(p, grid, path):
    """Triangulated OBJ of the same grid: g1*g2 vertices and
    2(g1-1)(g2-1) faces, 1-based indices."""
    if p.n != 3:
        raise ValueError("mesh export is for 3-dimensional cusps, got n = %d" % p.n)
    xs, ys = _grid_points(p, grid)
    heights = _grid_heights(p, xs, ys)
    g1, g2 = len(xs), len(ys)
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for x1, row in zip(xs, heights):
                fh.write("".join("v %.17g %.17g %.17g\n" % (x1, x2, y) for x2, y in zip(ys, row)))
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
