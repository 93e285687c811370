"""Exact arithmetic primitives: directions, matrices, quadratic forms."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlines.core import (
    BinaryForm,
    GramForm2,
    Matrix2,
    Matrix3,
    PrimitiveDirection,
    TernaryForm,
    evaluate_form,
    gram2,
    gram3,
    normalize_direction,
    rat,
    verify_norm_preserving,
)


class TestRat:
    def test_accepts_int_fraction_and_strings(self):
        assert rat(3) == F(3)
        assert rat(F(3, 5)) == F(3, 5)
        assert rat("3/5") == F(3, 5)
        assert rat("-7") == F(-7)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.5)


class TestPrimitiveDirection:
    def test_str_and_sequence_protocol(self):
        d = PrimitiveDirection((1, -1))
        assert str(d) == "<1, -1>"
        assert len(d) == 2 and d[0] == 1 and tuple(d) == (1, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrimitiveDirection((0, 0))
        with pytest.raises(ValueError):
            PrimitiveDirection((2, 4))  # not coprime
        with pytest.raises(ValueError):
            PrimitiveDirection((-1, 2))  # leading entry must be positive
        PrimitiveDirection((0, 0, 1))  # leading zeros allowed

    def test_ordering_is_lexicographic(self):
        a = PrimitiveDirection((1, -1))
        b = PrimitiveDirection((17, -19))
        assert a < b and sorted([b, a]) == [a, b]


class TestNormalizeDirection:
    def test_clears_denominators_and_gcd(self):
        assert normalize_direction((F(11, 5), -3, 2)).coords == (11, -15, 10)
        assert normalize_direction((4, -6)).coords == (2, -3)

    def test_fixes_sign_by_leading_nonzero(self):
        assert normalize_direction((-2402, -39, 1612)).coords == (2402, 39, -1612)
        assert normalize_direction((0, -2, 4)).coords == (0, 1, -2)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            normalize_direction((0, 0, 0))

    @given(
        st.lists(st.integers(-100, 100), min_size=2, max_size=3).filter(
            lambda v: any(v)
        )
    )
    def test_idempotent_and_primitive(self, coords):
        d = normalize_direction(coords)
        assert normalize_direction(d.coords) == d
        assert math.gcd(*[abs(c) for c in d.coords]) == 1
        lead = next(c for c in d.coords if c != 0)
        assert lead > 0
        # original vector is a rational multiple of the normalized one
        cross_free = all(
            d.coords[i] * coords[j] == d.coords[j] * coords[i]
            for i in range(len(coords))
            for j in range(len(coords))
        )
        assert cross_free

    @given(
        st.lists(st.integers(-100, 100), min_size=2, max_size=3).filter(any),
        st.integers(-12, 12).filter(bool),
        st.integers(1, 12),
    )
    def test_int_input_matches_fraction_input(self, coords, p, q):
        d = normalize_direction(coords)
        assert normalize_direction([F(c) for c in coords]) == d
        assert normalize_direction([F(c * p, q) for c in coords]) == d


class TestMatrix2:
    def test_construction_and_ops(self):
        A = Matrix2.from_rows([[4, 3], [-2, -3]])
        assert A.rows() == ((4, 3), (-2, -3))
        assert A.det() == -6 and A.trace() == 1
        assert A.transpose().rows() == ((4, -2), (3, -3))
        assert (A @ Matrix2.identity()).rows() == A.rows()
        assert A.apply((1, -1)) == (1, 1)

    def test_identity_flag(self):
        assert Matrix2.identity().is_identity()
        assert not Matrix2.from_rows([[1, 1], [0, 1]]).is_identity()

    def test_row_shape_errors(self):
        with pytest.raises(ValueError):
            Matrix2.from_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            Matrix2.from_rows([[1, 2]])


class TestMatrix3:
    def test_construction_and_ops(self):
        A = Matrix3.from_rows([[1, 2, 3], [2, 1, 1], [1, 1, 1]])
        assert A[(0, 2)] == 3
        assert A.det() == 1
        assert A.transpose()[(2, 0)] == 3
        assert (A @ Matrix3.identity()).rows() == A.rows()
        assert A.apply((1, 0, 0)) == (1, 2, 1)

    def test_rational_entries(self):
        A = Matrix3.from_rows([["1/2", 0, 0], [0, 1, 0], [0, 0, 1]])
        assert A[(0, 0)] == F(1, 2)


class TestGramData:
    def test_gram2_matches_entry_formulas(self):
        A = Matrix2.from_rows([[4, 3], [-2, -3]])
        g = gram2(A)
        assert (g.m, g.n, g.p) == (20, 18, 18)

    def test_identity_m_n_p(self):
        # m*n - p^2 always equals det(A)^2
        A = Matrix2.from_rows([[F(3, 5), 2], [F(4, 5), -1]])
        g = gram2(A)
        assert g.m * g.n - g.p * g.p == A.det() ** 2

    @given(st.lists(st.integers(-12, 12), min_size=4, max_size=4))
    def test_gram_identity_random(self, entries):
        A = Matrix2.from_rows([entries[:2], entries[2:]])
        g = gram2(A)
        assert g.m * g.n - g.p * g.p == A.det() ** 2

    def test_gram_form_invariant_enforced(self):
        with pytest.raises(ValueError):
            GramForm2(m=1, n=1, p=2)  # would give negative det(A)^2

    def test_gram3_is_symmetric_a_t_a(self):
        A = Matrix3.from_rows([[1, 2, 3], [3, 4, 5], [2, 3, 4]])
        B = gram3(A).matrix
        assert all(B[i][j] == B[j][i] for i in range(3) for j in range(3))
        AtA = A.transpose() @ A
        assert all(
            B[i][j] == AtA[(i, j)] for i in range(3) for j in range(3)
        )


class TestBinaryForm:
    def test_norm_change_form(self):
        g = gram2(Matrix2.from_rows([[4, 3], [-2, -3]]))
        phi = g.norm_change_form()
        assert (phi.cxx, phi.cxy, phi.cyy) == (19, 36, 17)
        assert phi.evaluate(1, -1) == 0
        assert phi.evaluate(17, -19) == 0

    def test_scaled_integer_clears_denominators(self):
        phi = BinaryForm(F(19, 4), 9, F(17, 4))
        a, b, c, ell = phi.scaled_integer()
        assert (a, b, c, ell) == (19, 36, 17, 4)

    def test_discriminant(self):
        assert BinaryForm(19, 36, 17).discriminant() == 36 * 36 - 4 * 19 * 17

    def test_is_zero(self):
        assert BinaryForm(0, 0, 0).is_zero()
        assert not BinaryForm(0, 1, 0).is_zero()


class TestTernaryForm:
    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            TernaryForm(((1, 2, 0), (0, 1, 0), (0, 0, 1)))

    def test_polynomial_coefficients_double_cross_terms(self):
        form = TernaryForm.from_rows(
            [[F(5, 4), 2, 2], [2, F(5, 4), 2], [2, 2, F(5, 4)]]
        )
        coeffs = form.polynomial_coefficients()
        assert coeffs["xx"] == F(5, 4)
        assert coeffs["xy"] == 4
        assert form.evaluate((1, -1, 0)) == F(5, 2) - 4

    def test_evaluate_form_dispatch(self):
        assert evaluate_form(BinaryForm(1, 0, -1), (2, 2)) == 0
        t = TernaryForm.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        assert evaluate_form(t, (3, 4, 5)) == 0


class TestVerifyNormPreserving:
    def test_exact_check(self):
        A = Matrix2.from_rows([[4, 3], [-2, -3]])
        assert verify_norm_preserving(A, (1, -1))
        assert verify_norm_preserving(A, (17, -19))
        assert not verify_norm_preserving(A, (1, 0))

    def test_three_dimensional(self):
        A = Matrix3.from_rows([[1, 2, 3], [2, 1, 1], [1, 1, 1]])
        assert verify_norm_preserving(A, (-1, 1, 0))
        assert verify_norm_preserving(A, (11, -15, 10))
        assert not verify_norm_preserving(A, (1, 1, 1))

    def test_rational_vectors_allowed(self):
        A = Matrix3.from_rows([[1, 2, 3], [2, 1, 1], [1, 1, 1]])
        assert verify_norm_preserving(A, (F(11, 5), -3, 2))
