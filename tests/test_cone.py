"""Spatial solution cone: classification, pivot reduction, integer search."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normlines.cone import (
    PARAMETRIC_MATRIX,
    ConeKind,
    classify_cone,
    cone_form,
    default_pivot,
    existence3,
    integer_line_search3,
    parametric_lines,
    pivot_reduce,
    plane_integer_basis,
)
from normlines.core import (
    Matrix3,
    PrimitiveDirection,
    normalize_direction,
    verify_norm_preserving,
)

SYMMETRIC_HALF = Matrix3.from_rows(
    [[1, 1, F(1, 2)], [1, F(1, 2), 1], [F(1, 2), 1, 1]]
)
ALL_TWOS_OFF = Matrix3.from_rows([[1, 2, 2], [2, 1, 2], [2, 2, 1]])
MIXED = Matrix3.from_rows([[1, 2, 3], [3, 4, 5], [2, 3, 4]])


def slow_search(A: Matrix3, bound: int) -> set:
    form = cone_form(A)
    found = set()
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            for z in range(-bound, bound + 1):
                if (x, y, z) == (0, 0, 0):
                    continue
                if form.evaluate((x, y, z)) == 0:
                    found.add(normalize_direction((x, y, z)))
    return found


def rational_rotation(s1, s2, s3) -> Matrix3:
    """The Euler-Rodrigues rotation ((1 - |s|^2) I + 2 s s^T - 2 [s]x) / (1 + |s|^2)."""
    s = (s1, s2, s3)
    cross = ((0, -s3, s2), (s3, 0, -s1), (-s2, s1, 0))
    n2 = s1 * s1 + s2 * s2 + s3 * s3
    return Matrix3.from_rows(
        [
            [((1 - n2) * (i == j) + 2 * s[i] * s[j] - 2 * cross[i][j]) / (1 + n2)
             for j in range(3)]
            for i in range(3)
        ]
    )


SMALL_RATIONALS = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)])
TILT = rational_rotation(F(1, 2), F(-1), F(2))
ROTATIONS = st.builds(
    rational_rotation, SMALL_RATIONALS, SMALL_RATIONALS, SMALL_RATIONALS
)


@st.composite
def cone_matrices(draw):
    """Random rational matrices, and matrices built to have a rank-1 (double
    plane), rank-2 or all-zero-diagonal cone form."""
    kind = draw(st.sampled_from(["random", "scaled_rotation", "unit_columns"]))
    if kind == "random":
        entry = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
        return Matrix3.from_rows([[draw(entry) for _ in range(3)] for _ in range(3)])
    if kind == "scaled_rotation":
        # diag(p, q, r) Q has cone form Q^T diag(p^2-1, q^2-1, r^2-1) Q, whose
        # rank is the number of scales other than 1
        scale = st.sampled_from([F(1), F(1), F(2), F(1, 2), F(3, 2), F(1, 3)])
        scales = [draw(scale) for _ in range(3)]
        rows = draw(ROTATIONS).rows()
        return Matrix3.from_rows([[f * x for x in row] for f, row in zip(scales, rows)])
    # columns of unit length: every squared coefficient of the cone vanishes
    columns = [draw(ROTATIONS).transpose().rows()[draw(st.integers(0, 2))]
               for _ in range(3)]
    return Matrix3.from_rows(columns).transpose()


class TestConeForm:
    def test_symmetric_half_matrix_coefficients(self):
        Q = cone_form(SYMMETRIC_HALF)
        coeffs = Q.polynomial_coefficients()
        assert coeffs["xx"] == coeffs["yy"] == coeffs["zz"] == F(5, 4)
        assert coeffs["xy"] == coeffs["xz"] == coeffs["yz"] == 4

    def test_zero_for_orthogonal(self):
        assert cone_form(Matrix3.identity()).is_zero()


class TestExistence:
    def test_examples(self):
        assert existence3(SYMMETRIC_HALF)
        assert existence3(ALL_TWOS_OFF)
        assert existence3(PARAMETRIC_MATRIX)
        assert not existence3(Matrix3.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 4]]))
        assert not existence3(
            Matrix3.from_rows([[F(1, 2), 0, 0], [0, F(1, 3), 0], [0, 0, F(1, 4)]])
        )


class TestClassification:
    def test_irreducible_cones(self):
        for A in (SYMMETRIC_HALF, PARAMETRIC_MATRIX, MIXED):
            assert classify_cone(A).kind is ConeKind.IRREDUCIBLE_CONE

    def test_double_plane_with_normal(self):
        cls = classify_cone(ALL_TWOS_OFF)
        assert cls.kind is ConeKind.DOUBLE_PLANE
        assert cls.normal == PrimitiveDirection((1, 1, 1))
        basis = plane_integer_basis(cls)
        assert basis == (
            PrimitiveDirection((1, 0, -1)),
            PrimitiveDirection((0, 1, -1)),
        )
        for d in basis:
            assert verify_norm_preserving(ALL_TWOS_OFF, d.coords)

    def test_empty_when_contraction_or_expansion(self):
        assert classify_cone(
            Matrix3.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 4]])
        ).kind is ConeKind.EMPTY
        assert classify_cone(
            Matrix3.from_rows([[F(1, 2), 0, 0], [0, F(1, 3), 0], [0, 0, F(1, 4)]])
        ).kind is ConeKind.EMPTY

    def test_all_space_for_orthogonal(self):
        assert classify_cone(Matrix3.identity()).kind is ConeKind.ALL_SPACE
        R = Matrix3.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        assert classify_cone(R).kind is ConeKind.ALL_SPACE

    def test_single_line_with_kernel(self):
        cls = classify_cone(Matrix3.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 1]]))
        assert cls.kind is ConeKind.SINGLE_LINE
        assert cls.line == PrimitiveDirection((0, 0, 1))

    def test_single_line_rotated_kernel(self):
        # conjugate of diag(1, 2, 3) by a rational rotation: the preserved
        # line is <3, 4, 0>, not a coordinate axis
        A = Matrix3.from_rows(
            [
                [F(41, 25), F(-12, 25), 0],
                [F(-12, 25), F(34, 25), 0],
                [0, 0, 3],
            ]
        )
        cls = classify_cone(A)
        assert cls.kind is ConeKind.SINGLE_LINE
        assert cls.line == PrimitiveDirection((3, 4, 0))
        # (B - I) v = 0 must hold exactly for the reported line
        Q = cone_form(A)
        v = cls.line.coords
        for i in range(3):
            assert sum(Q.matrix[i][j] * v[j] for j in range(3)) == 0

    def test_plane_pair_rational_split(self):
        # diag(2, 1, 1/2): (B - I) = diag(3, 0, -3/4) factors rationally
        A = Matrix3.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]])
        cls = classify_cone(A)
        assert cls.kind is ConeKind.PLANE_PAIR
        assert cls.normals is not None
        Q = cone_form(A)
        for n in cls.normals:
            # pick two independent vectors in the plane and check them
            nx, ny, nz = n.coords
            span = (
                [(0, 1, 0), (nz, 0, -nx)] if nz or nx else [(1, 0, 0), (0, 0, 1)]
            )
            for v in span:
                assert Q.evaluate(v) == 0, (n, v)

    def test_irrational_pair_reported_as_cone(self):
        # diag(2, 1, 1/3): z^2 coefficient -8/9, factors need sqrt(27)
        A = Matrix3.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, F(1, 3)]])
        assert classify_cone(A).kind is ConeKind.IRREDUCIBLE_CONE


class TestPivotReduction:
    def test_symmetric_half_z_pivot(self):
        red = pivot_reduce(SYMMETRIC_HALF, "z")
        assert red.pivot_axis == "z"
        assert red.linear == (F(-8, 5), F(-8, 5))
        assert red.denominator == 5
        form = red.discriminant_form
        assert (form.cxx, form.cxy, form.cyy) == (39, 48, 39)
        assert red.clearing_multiplier == 4

    def test_parametric_matrix_x_pivot(self):
        red = pivot_reduce(PARAMETRIC_MATRIX, "x")
        assert red.linear == (-1, F(-6, 5))
        assert red.denominator == 5
        form = red.discriminant_form
        assert (form.cxx, form.cxy, form.cyy) == (0, -20, -14)

    def test_mixed_default_pivot(self):
        assert default_pivot(MIXED) == 0
        red = pivot_reduce(MIXED)
        assert red.pivot_axis == "x"
        assert red.linear == (F(-20, 13), -2)
        assert red.denominator == 13
        form = red.discriminant_form
        assert (form.cxx, form.cxy, form.cyy) == (36, 52, 39)
        assert red.clearing_multiplier == 1

    def test_branch_values_solve_the_cone(self):
        # the certified matrix is excluded: its discriminant form is never
        # a nonzero perfect square, so it has no rational branch points
        rng = random.Random(8)
        for A in (PARAMETRIC_MATRIX, MIXED):
            red = pivot_reduce(A)
            Q = cone_form(A)
            hits = draws = 0
            while hits < 25 and draws < 50000:
                draws += 1
                u, w = rng.randint(-40, 40), rng.randint(-40, 40)
                val = red.discriminant_form.evaluate(u, w)
                if val < 0:
                    continue
                rt = math.isqrt(val.numerator)
                if rt * rt != val.numerator:
                    continue  # irrational root: no rational branch point
                hits += 1
                for pv in red.branch_values(F(u), F(w), F(rt)):
                    v = [F(0)] * 3
                    v[red.pivot] = pv
                    v[red.others[0]] = F(u)
                    v[red.others[1]] = F(w)
                    assert Q.evaluate(v) == 0
            assert hits == 25

    def test_pivot_aliases(self):
        assert pivot_reduce(SYMMETRIC_HALF, 2) == pivot_reduce(SYMMETRIC_HALF, "z")
        with pytest.raises(ValueError):
            pivot_reduce(SYMMETRIC_HALF, "w")

    def test_degenerate_pivot_reported(self):
        # identity: every squared coefficient vanishes
        with pytest.raises(ValueError):
            pivot_reduce(Matrix3.identity())

    def test_pivot_with_zero_square_coefficient_rejected(self):
        # shear: the x^2 and y^2 coefficients vanish, only z can be solved for
        A = Matrix3.from_rows([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        Q = cone_form(A)
        assert Q.matrix[0][0] == 0 and Q.matrix[1][1] == 0
        with pytest.raises(ValueError):
            pivot_reduce(A, "x")
        with pytest.raises(ValueError):
            pivot_reduce(A, "y")
        assert default_pivot(A) == 2
        red = pivot_reduce(A, "z")
        assert red.pivot_axis == "z"


class TestIntegerSearch:
    def test_matches_slow_reference(self):
        rng = random.Random(123)
        cases = 0
        while cases < 40:
            A = Matrix3.from_rows(
                [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            )
            if classify_cone(A).kind is ConeKind.ALL_SPACE:
                continue
            cases += 1
            assert set(integer_line_search3(A, 6)) == slow_search(A, 6), A

    @settings(max_examples=40, deadline=None)
    @given(cone_matrices(), st.integers(1, 8))
    @example(Matrix3.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]) @ TILT, 5)
    @example(Matrix3.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]]) @ TILT, 6)
    @example(Matrix3.from_rows([[1, F(3, 5), 0], [0, F(4, 5), 0], [0, 0, 1]]), 7)
    @example(
        Matrix3.from_rows([[F(3, 5), F(4, 5), 0], [F(4, 5), F(3, 5), 1], [0, 0, 0]]), 8
    )
    def test_matches_cube_scan(self, A, bound):
        if cone_form(A).is_zero():
            with pytest.raises(ValueError):
                integer_line_search3(A, bound)
            return
        assert set(integer_line_search3(A, bound)) == slow_search(A, bound)

    def test_search_is_sorted_primitive(self):
        found = integer_line_search3(PARAMETRIC_MATRIX, 20)
        assert found == sorted(found)
        assert all(isinstance(d, PrimitiveDirection) for d in found)

    def test_known_lines_present(self):
        found = set(integer_line_search3(PARAMETRIC_MATRIX, 20))
        for coords in [(1, -1, 0), (11, -15, 10), (1, 3, -2), (1, 3, -4),
                       (13, 15, -20)]:
            assert PrimitiveDirection(coords) in found

    def test_no_lines_for_certified_matrix(self):
        assert integer_line_search3(SYMMETRIC_HALF, 60) == []

    def test_double_plane_lines(self):
        found = integer_line_search3(ALL_TWOS_OFF, 1)
        assert [d.coords for d in found] == [(0, 1, -1), (1, -1, 0), (1, 0, -1)]

    def test_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            integer_line_search3(Matrix3.identity(), 5)

    def test_results_verified(self):
        for d in integer_line_search3(MIXED, 30):
            assert verify_norm_preserving(MIXED, d.coords)


class TestParametricLines:
    def test_reproduces_known_vectors(self):
        assert {d.coords for d in parametric_lines(1, 4)} == {
            (11, -15, 10),
            (1, 3, -2),
        }
        assert {d.coords for d in parametric_lines(1, 1)} == {
            (1, 3, -4),
            (13, 15, -20),
        }

    def test_zero_parameters_rejected(self):
        with pytest.raises(ValueError):
            parametric_lines(0, 0)

    def test_all_outputs_verified_on_grid(self):
        for v in range(-5, 6):
            for r in range(-12, 13):
                if v == 0 and r == 0:
                    continue
                for d in parametric_lines(v, r):
                    assert verify_norm_preserving(PARAMETRIC_MATRIX, d.coords)

    def test_family_covers_bounded_search(self):
        image = set()
        for v in range(-8, 9):
            for r in range(-40, 41):
                if v == 0 and r == 0:
                    continue
                image.update(parametric_lines(v, r))
        found = integer_line_search3(PARAMETRIC_MATRIX, 50)
        missing = [d for d in found if d not in image]
        assert not missing
