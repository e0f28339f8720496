import numpy as np
import pytest

from gencusp.cusp_groups import BlownUpWeylPoint, build_marked_cusp, hypersurface_F
from gencusp.dim3 import (
    CuspCoords3D,
    classify_stratum_3d,
    coords_from_shape,
    cubic_from_hr,
    decompose_cubic_2d,
    export_mesh_csv,
    export_mesh_obj,
    shape_from_coords,
    surface_height_3d,
    surface_height_printed_row,
    w_to_matrix,
)
from gencusp.linalg import maxerr
from gencusp.sampling import random_blownup_point, random_cusp
from gencusp.shape import CubicPoly, ShapeInvariant, is_affine_sphere, shape_invariant


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
