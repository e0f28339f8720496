import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gencusp
from gencusp.cusp_groups import BlownUpWeylPoint, build_marked_cusp, hypersurface_F
from gencusp.dim3 import (
    CuspCoords3D,
    classify_stratum_3d,
    coords_from_shape,
    cubic_from_hr,
    decompose_cubic_2d,
    export_mesh_csv,
    export_mesh_obj,
    _grid_points,
    shape_from_coords,
    w_to_matrix,
)
from gencusp.linalg import maxerr, unimodular
from gencusp.sampling import random_blownup_point, random_cusp
from gencusp.shape import CubicPoly, ShapeInvariant, is_affine_sphere, shape_invariant
from gencusp.verify import surface_height_3d, surface_height_printed_row


def test_decompose_examples():
    d = decompose_cubic_2d(CubicPoly.from_monomials(2, {(3, 0): 1.0}))
    assert abs(d.h - 0.25) < 1e-14 and abs(d.r - 0.75) < 1e-14
    d = decompose_cubic_2d(CubicPoly.from_monomials(2, {(3, 0): 1.0, (1, 2): -3.0}))
    assert abs(d.h - 1.0) < 1e-14 and abs(d.r) < 1e-14
    d = decompose_cubic_2d(CubicPoly.from_monomials(2, {(3, 0): 1.0, (1, 2): 1.0}))
    assert abs(d.h) < 1e-14 and abs(d.r - 1.0) < 1e-14


def test_decompose_reconstructs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = complex(*rng.uniform(-1, 1, 2))
        r = complex(*rng.uniform(-1, 1, 2))
        c = cubic_from_hr(h, r)
        d = decompose_cubic_2d(c)
        assert abs(d.h - h) < 1e-13 and abs(d.r - r) < 1e-13
        # direct evaluation agrees with Re(h z^3 + r z|z|^2)
        x, y = rng.uniform(-1, 1, 2)
        z = complex(x, y)
        assert abs(c(np.array([x, y])) - (h * z ** 3 + r * z * abs(z) ** 2).real) < 1e-12


def test_w_to_matrix():
    assert maxerr(w_to_matrix(1j), np.eye(2)) < 1e-15
    assert maxerr(w_to_matrix(2j), np.diag([2 ** -0.5, 2 ** 0.5])) < 1e-15
    assert maxerr(w_to_matrix(1 + 1j), np.array([[1.0, -1.0], [0.0, 1.0]])) < 1e-15
    with pytest.raises(ValueError):
        w_to_matrix(1.0 - 0.5j)


def test_coords_anchor():
    p = BlownUpWeylPoint(3, np.array([0.0, 1, 2]), np.zeros(2))
    s = shape_invariant(build_marked_cusp(p), "closed")
    coords = coords_from_shape(s)
    assert abs(coords.w - 1j) < 1e-12
    assert abs(12 * coords.h - (1 + 2j)) < 1e-10
    assert abs(12 * coords.r - 3 * (1 - 2j)) < 1e-10
    assert abs(abs(coords.r) - 3 * abs(coords.h)) < 1e-10


def test_standard_cusp_coords():
    s = shape_invariant(build_marked_cusp(BlownUpWeylPoint(3, np.zeros(3), np.zeros(2))),
                        "closed")
    coords = coords_from_shape(s)
    assert abs(coords.w - 1j) < 1e-12 and abs(coords.h) < 1e-12 and abs(coords.r) < 1e-12


def test_coords_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(30):
        w = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        h = complex(*rng.uniform(-1, 1, 2))
        r = h * rng.uniform(0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        coords = CuspCoords3D(w, h, r)
        back = coords_from_shape(shape_from_coords(coords))
        assert abs(back.w - w) < 1e-10
        assert abs(back.h - h) < 1e-10
        assert abs(back.r - r) < 1e-10


@pytest.mark.parametrize("det_offset", [0.0, 2e-10])
def test_closed_form_chart_matches_cholesky_mobius_route(det_offset):
    # the reference: A = L^T, L LAPACK's lower Cholesky factor of q, is the
    # upper factor with A^T A = q, w is the Mobius image of i under A^-1 and
    # (h, r) split c o A^-1; q may miss det 1 by check_unimodular's slack
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.standard_normal((2, 2))
        q = unimodular(m.T @ m) * np.sqrt(1.0 + det_offset)
        h = complex(*rng.uniform(-1, 1, 2))
        r = h * rng.uniform(0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        a = np.linalg.cholesky(q).T
        c = cubic_from_hr(h, r).compose_linear(a)
        ainv = np.linalg.inv(a)
        w_ref = (ainv[0, 0] * 1j + ainv[0, 1]) / (ainv[1, 0] * 1j + ainv[1, 1])
        split = decompose_cubic_2d(c.compose_linear(ainv))
        coords = coords_from_shape(ShapeInvariant(q, c))
        scale = np.linalg.cond(q) ** 1.5
        assert abs(coords.w - w_ref) < 1e-14 * scale * abs(w_ref)
        assert abs(coords.h - split.h) < 1e-14 * scale * max(1.0, abs(split.h))
        assert abs(coords.r - split.r) < 1e-14 * scale * max(1.0, abs(split.r))


def test_coords_rejects_outside_cone():
    with pytest.raises(ValueError):
        CuspCoords3D(1j, 0.1, 1.0)
    c = cubic_from_hr(0.05, 1.0)  # |r| > 3|h|
    with pytest.raises(ValueError):
        coords_from_shape(ShapeInvariant(np.eye(2), c))
    # every cone test has one slack: a cubic 5e-9 over the cone fails the
    # shape test itself, not only the coordinates' own check
    c = cubic_from_hr(1.0, 3.0 + 5e-9)
    with pytest.raises(ValueError, match="not the shape of a 3-dimensional cusp"):
        coords_from_shape(ShapeInvariant(np.eye(2), c))


def test_cone_containment_and_boundary():
    rng = np.random.default_rng(2)
    for t in range(4):
        for _ in range(10):
            p = random_blownup_point(rng, 3, t=t)
            c = random_cusp(rng, 3, t=t)
            coords = coords_from_shape(shape_invariant(c, "closed"))
            slack = 3 * abs(coords.h) - abs(coords.r)
            assert slack >= -1e-8
            if c.params.type_t < 3:
                assert abs(slack) < 1e-6
            else:
                assert slack > 1e-6


def test_r_zero_iff_affine_sphere():
    cases = [
        ([0.0, 0, 0], [0.3, 0.9], True),
        ([1.0, 1, 1], [1.0, 1.0], True),
        ([0.0, 1, 2], [0.0, 0.0], False),
        ([0.5, 1, 1], [0.5, 0.5], False),
    ]
    for lam, kap, expect in cases:
        c = build_marked_cusp(BlownUpWeylPoint(3, np.array(lam), np.array(kap)))
        coords = coords_from_shape(shape_invariant(c, "closed"))
        assert (abs(coords.r) < 1e-9) == expect == is_affine_sphere(c)


def test_rotation_equivariance_of_split():
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = complex(*rng.uniform(-1, 1, 2))
        r = complex(*rng.uniform(-1, 1, 2))
        theta = rng.uniform(0, 2 * np.pi)
        omega = np.exp(1j * theta)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        split = decompose_cubic_2d(cubic_from_hr(h, r).compose_linear(rot))
        assert abs(split.h - omega ** 3 * h) < 1e-12
        assert abs(split.r - omega * r) < 1e-12


def test_classify_stratum():
    assert classify_stratum_3d(0.0, 0.0) == 0
    d = decompose_cubic_2d(CubicPoly.from_monomials(2, {(3, 0): 1.0}))
    assert classify_stratum_3d(d.h, d.r) == 1
    d = decompose_cubic_2d(CubicPoly.from_monomials(2, {(3, 0): 1 / 3, (0, 3): 2 / 3}))
    assert classify_stratum_3d(d.h, d.r) == 2
    assert classify_stratum_3d(1.0, 0.5) == 3
    # T1 parametrization (w^3 |w|^-2, 3w) is the cube locus
    w = 0.7 - 0.4j
    assert classify_stratum_3d(w ** 3 / abs(w) ** 2, 3 * w) == 1
    with pytest.raises(ValueError):
        classify_stratum_3d(0.01, 1.0)


def test_classify_stratum_is_free_of_scale():
    # the (h, r) cone is a cone: s (h, r) has the stratum of (h, r) at every
    # s > 0, down to 1e-200
    cube = decompose_cubic_2d(CubicPoly.from_monomials(2, {(3, 0): 1.0}))
    edge = decompose_cubic_2d(CubicPoly.from_monomials(2, {(3, 0): 1 / 3, (0, 3): 2 / 3}))
    for (h, r), t in (((0.0, 0.0), 0), ((cube.h, cube.r), 1), ((edge.h, edge.r), 2),
                      ((1 + 0.5j, 1.2 + 0.1j), 3)):
        for s in (1.0, 1e-12, 1e-200):
            assert classify_stratum_3d(s * h, s * r) == t
    with pytest.raises(ValueError):
        classify_stratum_3d(1.0, 3.0 + 5e-9)


def test_classify_rotation_invariant():
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = complex(*rng.uniform(0.2, 1, 2))
        omega = np.exp(1j * rng.uniform(0, 2 * np.pi))
        for h, r in [(w ** 3 / abs(w) ** 2, 3 * w), (w, 3 * w * 1j), (w, 0.5 * w)]:
            assert classify_stratum_3d(h, r) == classify_stratum_3d(
                omega ** 3 * h, omega * r)


@pytest.mark.parametrize("scale", [1e-3, 1e-5, 1e-9])
def test_classify_stratum_is_scale_invariant(scale):
    rng = np.random.default_rng(12)
    for _ in range(10):
        w = complex(*rng.uniform(0.2, 1, 2))
        cases = [
            (0.0, 0.0, 0),
            (w ** 3 / abs(w) ** 2, 3 * w, 1),  # cube of a linear form
            (w, 3 * w * np.exp(1j * rng.uniform(0.3, 2.0)), 2),  # boundary, not a cube
            (w, rng.uniform(0, 2.9) * w, 3),  # interior
            (w, 0.0, 3),  # harmonic cubic
        ]
        for h, r, t in cases:
            assert classify_stratum_3d(h, r) == t
            assert classify_stratum_3d(scale * h, scale * r) == t


def test_cone_membership_is_relative():
    # |r| = 500|h| lies outside the cone however small h and r are
    with pytest.raises(ValueError, match="outside the cone"):
        classify_stratum_3d(0.0, 5e-10)
    with pytest.raises(ValueError, match="outside the cone"):
        classify_stratum_3d(1e-12, 5e-10)
    with pytest.raises(ValueError, match="violated"):
        CuspCoords3D(1j, 1e-12, 5e-10)
    with pytest.raises(ValueError, match="not the shape of a 3-dimensional cusp"):
        coords_from_shape(ShapeInvariant(np.eye(2), cubic_from_hr(1e-12, 5e-10)))


@pytest.mark.parametrize("scale", [1e-3, 1e-9])
def test_scaled_cone_points_stay_inside(scale):
    rng = np.random.default_rng(14)
    for _ in range(10):
        u = complex(*rng.uniform(0.2, 1, 2))
        w = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2))
        cases = [
            (u ** 3 / abs(u) ** 2, 3 * u, 1),
            (u, 3 * u * np.exp(1j * rng.uniform(0.3, 2.0)), 2),
            (u, rng.uniform(0, 2.9) * u, 3),
        ]
        for h, r, t in cases:
            coords = CuspCoords3D(w, scale * h, scale * r)
            back = coords_from_shape(shape_from_coords(coords))
            assert classify_stratum_3d(coords.h, coords.r) == t
            assert classify_stratum_3d(back.h, back.r) == t


def test_classify_stratum_loads_no_cubic_machinery():
    # the strata are read off (h, r) directly, not from a rebuilt cubic
    src = str(Path(gencusp.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from gencusp.dim3 import classify_stratum_3d\n"
        "print(classify_stratum_3d(0.25, 0.75),"
        " sorted(m for m in sys.modules if m.startswith('gencusp')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == (
        "1 ['gencusp', 'gencusp.cusp_groups', 'gencusp.dim3', 'gencusp.linalg']")


def test_surface_rows_match_surface_function():
    rng = np.random.default_rng(5)
    for t in range(4):
        p = random_blownup_point(rng, 3, t=t)
        if t < 3:
            p = BlownUpWeylPoint(3, p.lam, np.zeros(2))
        for x1 in np.linspace(-0.2, 1.5, 8):
            for x2 in np.linspace(-0.2, 1.5, 8):
                assert abs(surface_height_3d(p.lam, x1, x2)
                           - hypersurface_F(p, np.array([x1, x2]))) < 1e-10


@pytest.mark.parametrize("lam0", [1e-4, 1e-6, 1e-8, 1e-9])
def test_type_three_row_keeps_its_digits_as_lambda0_shrinks(lam0):
    # the t = 3 row's (prod - 1) / lam0^2 cancelled every digit by 1e-8
    # (relative errors 4.1e-8, 4.4e-4, 0.50, 3.5 at these lam0); as an expm1
    # of the log of prod it stays within a few eps of the surface function
    p = BlownUpWeylPoint(3, np.array([lam0, 0.5, 2.0]), np.array([lam0 / 0.5, lam0 / 2.0]))
    f = hypersurface_F(p, np.array([0.7, -0.3]))
    assert abs(surface_height_3d(p.lam, 0.7, -0.3) - f) <= 4 * np.finfo(float).eps * abs(f)


def test_surface_row_anchors():
    assert surface_height_3d(np.zeros(3), 1.0, 1.0) == 1.0
    # type-1 row at (0, e-1) with unit parameter: g(1, e-1) = e - 2
    assert abs(surface_height_3d(np.array([0.0, 0, 1]), 0.0, np.e - 1)
               - (np.e - 2)) < 1e-12


def test_printed_rows_deviate_from_surface_function():
    rng = np.random.default_rng(6)
    for t in (1, 2, 3):
        p = random_blownup_point(rng, 3, t=t)
        if t < 3:
            p = BlownUpWeylPoint(3, p.lam, np.zeros(2))
        dev = max(
            abs(surface_height_printed_row(t, p.lam, x1, x2)
                - hypersurface_F(p, np.array([x1, x2])))
            for x1 in np.linspace(-0.2, 1.5, 10)
            for x2 in np.linspace(-0.2, 1.5, 10))
        assert dev > 1e-4


def test_mesh_csv_bit_exact(tmp_path):
    p = BlownUpWeylPoint(3, np.array([0.0, 1, 2]), np.zeros(2))
    path = tmp_path / "mesh.csv"
    rows = export_mesh_csv(p, (5, 4), str(path))
    assert rows == 20
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,y"
    assert len(lines) == 21
    for line in lines[1:]:
        x1, x2, y = (float(t) for t in line.split(","))
        assert y == hypersurface_F(p, np.array([x1, x2]))


@pytest.mark.parametrize("lam, kap", [
    ([0.0, 0.0, 0.0], [0.3, 0.8]),
    ([0.0, 0.0, 0.4], [0.6, 0.0]),
    ([0.0, 0.3, 0.4], [0.0, 0.0]),
    ([0.1, 0.2, 0.4], [0.5, 0.25]),
])
def test_mesh_rows_match_pointwise_heights(tmp_path, lam, kap):
    # types 0..3 on a 9x5 grid of [-2, 2]^2 that holds the lines x1 = 0 and
    # x2 = 0, where g and h take their series branch (f_2 too, at the origin)
    p = BlownUpWeylPoint(3, np.array(lam), np.array(kap))
    assert p.type_t == sum(v > 0 for v in lam)
    csv, obj = tmp_path / "mesh.csv", tmp_path / "mesh.obj"
    export_mesh_csv(p, (9, 5), str(csv))
    export_mesh_obj(p, (9, 5), str(obj))
    xs, ys = _grid_points(p, (9, 5))
    assert xs[4] == ys[2] == 0.0
    points = [(x1, x2, hypersurface_F(p, np.array([x1, x2]))) for x1 in xs for x2 in ys]
    assert csv.read_text().splitlines()[1:] == ["%.17g,%.17g,%.17g" % pt for pt in points]
    verts = [line for line in obj.read_text().splitlines() if line.startswith("v ")]
    assert verts == ["v %.17g %.17g %.17g" % pt for pt in points]


def test_mesh_files_of_one_point_share_one_sampling(tmp_path, monkeypatch):
    # the CSV and the OBJ of one point and grid sample the surface (and
    # format its vertices) once between them; another point or another
    # grid is sampled anew, and its files are its own
    import gencusp.dim3 as dim3_mod

    sampled = []
    real = dim3_mod._grid_heights

    def counted(p, xs, ys):
        sampled.append((p, len(xs), len(ys)))
        return real(p, xs, ys)

    monkeypatch.setattr(dim3_mod, "_grid_heights", counted)
    p = BlownUpWeylPoint(3, np.array([0.1, 0.2, 0.4]), np.array([0.5, 0.25]))
    q = BlownUpWeylPoint(3, np.array([0.0, 0.3, 0.4]), np.zeros(2))
    files = {}
    for point, grid, name in ((p, (4, 3), "p"), (q, (4, 3), "q"), (q, (3, 4), "q34")):
        csv, obj = tmp_path / (name + ".csv"), tmp_path / (name + ".obj")
        assert export_mesh_csv(point, grid, str(csv)) == 12
        assert export_mesh_obj(point, grid, str(obj)) == (12, 12)
        rows = csv.read_text().splitlines()[1:]
        verts = [line for line in obj.read_text().splitlines() if line.startswith("v ")]
        assert verts == ["v " + row.replace(",", " ") for row in rows]
        files[name] = rows
    assert sampled == [(p, 4, 3), (q, 4, 3), (q, 3, 4)]
    assert files["p"] != files["q"] and sorted(files["q"]) != sorted(files["q34"])


def test_mesh_csv_trivial_grid(tmp_path):
    p = BlownUpWeylPoint(3, np.zeros(3), np.zeros(2))
    path = tmp_path / "m.csv"
    export_mesh_csv(p, (2, 2), str(path))
    for line in path.read_text().strip().split("\n")[1:]:
        x1, x2, y = (float(t) for t in line.split(","))
        assert abs(y - 0.5 * (x1 * x1 + x2 * x2)) < 1e-15


def test_mesh_obj_counts(tmp_path):
    p = BlownUpWeylPoint(3, np.array([0.0, 0, 1]), np.zeros(2))
    path = tmp_path / "mesh.obj"
    nv, nf = export_mesh_obj(p, (6, 5), str(path))
    lines = path.read_text().strip().split("\n")
    assert nv == 30 and nf == 2 * 5 * 4
    assert sum(1 for l in lines if l.startswith("v ")) == nv
    faces = [l for l in lines if l.startswith("f ")]
    assert len(faces) == nf
    idx = [int(t) for l in faces for t in l.split()[1:]]
    assert min(idx) == 1 and max(idx) == nv


def test_mesh_io_error():
    p = BlownUpWeylPoint(3, np.zeros(3), np.zeros(2))
    with pytest.raises(OSError):
        export_mesh_csv(p, (2, 2), "/nonexistent-dir/mesh.csv")
