"""Deterministic figures: formatting, accuracy, topology, byte stability."""

import json
import math
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from normlines.cone import cone_form
from normlines.core import Matrix2, Matrix3, gram2
from normlines.planar import integer_lines2
from normlines.render import (
    ellipse_points,
    fmt6,
    render_scene2,
    render_scene3,
)

FIRST_2D = Matrix2.from_rows([[4, 3], [-2, -3]])
SECOND_2D = Matrix2.from_rows([[2, 1], [-3, -4]])
SYMMETRIC_HALF = Matrix3.from_rows(
    [[1, 1, F(1, 2)], [1, F(1, 2), 1], [F(1, 2), 1, 1]]
)
ALL_TWOS_OFF = Matrix3.from_rows([[1, 2, 2], [2, 1, 2], [2, 2, 1]])


def meta_of(text: str) -> dict:
    m = re.search(r"(?:<!--|#) normlines (.*?)(?: -->|$)", text, re.M)
    assert m, "metadata comment missing"
    return json.loads(m.group(1))


def faces_of(mesh: str, obj_name: str) -> list:
    cur, faces = None, []
    for ln in mesh.splitlines():
        if ln.startswith("o "):
            cur = ln[2:]
        elif ln.startswith("f ") and cur == obj_name:
            faces.append(tuple(int(t) for t in ln.split()[1:]))
    return faces


def vertices_of(mesh: str, obj_name: str) -> list:
    cur, verts = None, []
    for ln in mesh.splitlines():
        if ln.startswith("o "):
            cur = ln[2:]
        elif ln.startswith("v ") and cur == obj_name:
            verts.append(tuple(float(t) for t in ln.split()[1:]))
    return verts


class TestFmt6:
    def test_fixed_width_and_no_negative_zero(self):
        assert fmt6(0.0) == "0.000000"
        assert fmt6(-0.0) == "0.000000"
        assert fmt6(-1e-9) == "0.000000"
        assert fmt6(1.5) == "1.500000"
        assert fmt6(-2.25) == "-2.250000"

    def test_rounding(self):
        assert fmt6(1.0000004) == "1.000000"
        assert fmt6(1.0000006) == "1.000001"


class TestEllipsePoints:
    def test_accuracy_bound(self):
        for A in (FIRST_2D, SECOND_2D, Matrix2.from_rows([[F(3, 5), 2], [F(4, 5), -1]])):
            g = gram2(A)
            m, n, p = float(g.m), float(g.n), float(g.p)
            for x, y in ellipse_points(A, 256):
                q = m * x * x + 2.0 * p * x * y + n * y * y
                assert abs(q - 1.0) <= 1e-9

    def test_sample_count(self):
        assert len(ellipse_points(FIRST_2D, 64)) == 64

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            ellipse_points(Matrix2.from_rows([[1, 2], [2, 4]]))

    def test_no_samples_rejected(self):
        for samples in (0, -3):
            with pytest.raises(ValueError):
                ellipse_points(FIRST_2D, samples)


class TestScene2:
    def test_byte_identical_reruns(self):
        lines = integer_lines2(FIRST_2D)
        assert render_scene2(FIRST_2D) == render_scene2(FIRST_2D)
        assert render_scene2(FIRST_2D, lines) == render_scene2(FIRST_2D, lines)
        assert render_scene2(FIRST_2D) != render_scene2(FIRST_2D, lines)

    def test_structure(self):
        svg = render_scene2(SECOND_2D, integer_lines2(SECOND_2D))
        assert svg.startswith('<?xml version="1.0"')
        assert svg.count("<svg") == 1
        assert svg.rstrip().endswith("</svg>")
        assert "<circle" in svg

    def test_metadata_round_trip(self):
        lines = integer_lines2(FIRST_2D)
        meta = meta_of(render_scene2(FIRST_2D, lines))
        rebuilt = Matrix2.from_rows(meta["matrix"])
        assert rebuilt == FIRST_2D
        assert meta["lines"] == [list(d.coords) for d in lines]
        assert meta["scene"] == "scene2"

    def test_three_decorated_paths_plus_axes(self):
        lines = integer_lines2(FIRST_2D)
        svg = render_scene2(FIRST_2D, lines)
        # axes + ellipse + one path per line
        assert svg.count("<path") == 2 + len(lines)


class TestScene3Mesh:
    def test_byte_identical_reruns(self):
        a = render_scene3(SYMMETRIC_HALF, include_cone=True)
        b = render_scene3(SYMMETRIC_HALF, include_cone=True)
        assert a == b

    def test_metadata_carries_exact_matrix(self):
        mesh, svg = render_scene3(SYMMETRIC_HALF)
        for meta in (meta_of(mesh), meta_of(svg)):
            assert meta["matrix"] == [
                ["1", "1", "1/2"],
                ["1", "1/2", "1"],
                ["1/2", "1", "1"],
            ]
            assert meta["classification"] == "irreducible_cone"
            assert meta["include_cone"] is False

    def test_sphere_and_ellipsoid_watertight(self):
        mesh, _ = render_scene3(SYMMETRIC_HALF, density=(24, 12))
        for name in ("sphere", "ellipsoid"):
            faces = faces_of(mesh, name)
            assert len(faces) == 24 * 2 + 24 * 10
            edges = Counter()
            for f in faces:
                for i in range(len(f)):
                    a, b = f[i], f[(i + 1) % len(f)]
                    edges[(min(a, b), max(a, b))] += 1
            assert all(count == 2 for count in edges.values()), name

    def test_ellipsoid_vertices_on_unit_image_locus(self):
        mesh, _ = render_scene3(SYMMETRIC_HALF, density=(24, 12))
        Af = [[float(v) for v in row] for row in SYMMETRIC_HALF.rows()]
        verts = vertices_of(mesh, "ellipsoid")
        assert verts
        for x, y, z in verts:
            w = [Af[i][0] * x + Af[i][1] * y + Af[i][2] * z for i in range(3)]
            # vertices are written with six decimals, so allow rounding slack
            assert abs(sum(c * c for c in w) - 1.0) <= 1e-5

    def test_cone_rulings_lie_on_cone(self):
        mesh, _ = render_scene3(SYMMETRIC_HALF, include_cone=True, density=(24, 12))
        Q = cone_form(SYMMETRIC_HALF)
        Mf = [[float(v) for v in row] for row in Q.matrix]
        verts = vertices_of(mesh, "cone")
        assert verts
        for p in verts:
            q = sum(p[i] * Mf[i][j] * p[j] for i in range(3) for j in range(3))
            norm = sum(c * c for c in p)
            assert abs(q) / norm <= 1e-4

    def test_full_loop_when_discriminant_positive(self):
        # discriminant form (39, 48, 39) is positive everywhere: the plus
        # branch alone is one closed ribbon covering each ruling once
        mesh, _ = render_scene3(SYMMETRIC_HALF, include_cone=True, density=(24, 12))
        faces = faces_of(mesh, "cone")
        assert len(faces) == 4 * 24
        assert len(vertices_of(mesh, "cone")) == 2 * len(faces)

    def test_arc_loops_when_discriminant_changes_sign(self):
        A = Matrix3.from_rows([[1, 2, 3], [2, 1, 1], [1, 1, 1]])
        mesh, _ = render_scene3(A, include_cone=True, density=(24, 12))
        faces = faces_of(mesh, "cone")
        assert 0 < len(faces) < 4 * 24

    def test_double_plane_disk(self):
        mesh, _ = render_scene3(ALL_TWOS_OFF, include_cone=True, density=(24, 12))
        assert "o solution_disk" in mesh
        faces = faces_of(mesh, "solution_disk")
        assert len(faces) == 4 * 24
        assert all(len(f) == 3 for f in faces)
        # every disk vertex is a norm-preserving direction: check the form
        Q = cone_form(ALL_TWOS_OFF)
        Mf = [[float(v) for v in row] for row in Q.matrix]
        for p in vertices_of(mesh, "solution_disk")[1:]:
            q = sum(p[i] * Mf[i][j] * p[j] for i in range(3) for j in range(3))
            assert abs(q) <= 1e-4

    def test_single_line_record(self):
        A = Matrix3.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 1]])
        mesh, _ = render_scene3(A, include_cone=True, density=(12, 6))
        assert "o solution_line" in mesh
        assert any(ln.startswith("l ") for ln in mesh.splitlines())

    def test_empty_solution_note(self):
        A = Matrix3.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 4]])
        mesh, _ = render_scene3(A, include_cone=True, density=(12, 6))
        assert "no surface emitted" in mesh
        assert "o cone" not in mesh

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            render_scene3(Matrix3.from_rows([[1, 0, 0], [0, 1, 0], [1, 0, 0]]))

    def test_density_validation(self):
        with pytest.raises(ValueError):
            render_scene3(SYMMETRIC_HALF, density=(2, 6))

    def test_svg_companion_structure(self):
        _, svg = render_scene3(SYMMETRIC_HALF, include_cone=True, density=(24, 12))
        assert svg.startswith('<?xml version="1.0"')
        assert svg.rstrip().endswith("</svg>")
        assert "<polyline" in svg
