"""Square-representation equations, the 2-adic certificate, seed families."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlines.cone import pivot_reduce
from normlines.core import Matrix3, PrimitiveDirection
from normlines.diophantine import (
    IntBinaryForm,
    SquareRepInstance,
    integer_sqrt,
    lift_to_lines,
    piezas_family,
    square_rep_bruteforce,
    two_adic_obstruction,
)

MIXED = Matrix3.from_rows([[1, 2, 3], [3, 4, 5], [2, 3, 4]])


def double_loop_square_rep(inst, bound):
    """Oracle: every cell of the box, in lexicographic order of (y, z)."""
    out = []
    f, d = inst.form, inst.d
    for y in range(-bound, bound + 1):
        ayy = f.a * y * y
        by = f.b * y
        for z in range(-bound, bound + 1):
            if y == 0 and z == 0:
                continue
            val = ayy + by * z + f.c * z * z
            if val % d != 0:
                continue
            u = integer_sqrt(val // d)
            if u is not None:
                out.append((y, z, u))
    return out


@st.composite
def square_rep_instances(draw):
    """Random forms, and forms k*(r*y + s*z)^2 + m*(t*y + w*z)^2 that take
    many square values, with d of either sign."""
    if draw(st.booleans()):
        a, b, c = (draw(st.integers(-60, 60)) for _ in range(3))
    else:
        k, m, r, s, t, w = (draw(st.integers(-4, 4)) for _ in range(6))
        a = k * r * r + m * t * t
        b = 2 * (k * r * s + m * t * w)
        c = k * s * s + m * w * w
    d = draw(st.integers(-12, 12).filter(lambda d: d != 0))
    return SquareRepInstance(IntBinaryForm(a, b, c), d)


class TestIntegerSqrt:
    def test_basic(self):
        assert integer_sqrt(0) == 0
        assert integer_sqrt(36) == 6
        assert integer_sqrt(35) is None
        assert integer_sqrt(-4) is None

    @given(st.integers(0, 10**12))
    def test_agrees_with_isqrt(self, n):
        r = integer_sqrt(n)
        k = math.isqrt(n)
        assert (r == k) if k * k == n else (r is None)


class TestTwoAdicObstruction:
    def test_certified_form(self):
        assert two_adic_obstruction(IntBinaryForm(39, 48, 39))

    def test_residues_must_match(self):
        assert not two_adic_obstruction(IntBinaryForm(36, 52, 39))
        assert not two_adic_obstruction(IntBinaryForm(39, 48, 40))
        assert not two_adic_obstruction(IntBinaryForm(39, 50, 39))
        assert two_adic_obstruction(IntBinaryForm(3, 0, 3))
        assert two_adic_obstruction(IntBinaryForm(-1, 4, 7))

    @given(
        st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60)
    )
    def test_certificate_is_sound(self, a, b, c):
        form = IntBinaryForm(a, b, c)
        if not two_adic_obstruction(form):
            return
        inst = SquareRepInstance(form)
        assert square_rep_bruteforce(inst, 12) == []


class TestBruteForce:
    def test_certified_form_is_empty(self):
        inst = SquareRepInstance(IntBinaryForm(39, 48, 39))
        assert square_rep_bruteforce(inst, 60) == []

    def test_known_solutions_found(self):
        inst = SquareRepInstance(IntBinaryForm(-3, 2, 8))
        sols = square_rep_bruteforce(inst, 3)
        assert sols == [(-2, -1, 0), (-1, 2, 5), (1, -2, 5), (2, 1, 0)]

    def test_all_returned_triples_solve(self):
        inst = SquareRepInstance(IntBinaryForm(5, -7, 2), d=3)
        for y, z, u in square_rep_bruteforce(inst, 15):
            assert inst.form.evaluate(y, z) == 3 * u * u

    @settings(max_examples=300, deadline=None)
    @given(square_rep_instances(), st.integers(0, 30))
    def test_matches_double_loop(self, inst, bound):
        assert square_rep_bruteforce(inst, bound) == double_loop_square_rep(inst, bound)

    def test_bound_zero_is_empty_and_negative_rejected(self):
        inst = SquareRepInstance(IntBinaryForm(1, 0, 1))
        assert square_rep_bruteforce(inst, 0) == []
        with pytest.raises(ValueError):
            square_rep_bruteforce(inst, -5)

    def test_nonzero_d_divisibility(self):
        inst = SquareRepInstance(IntBinaryForm(1, 0, 1), d=2)
        sols = square_rep_bruteforce(inst, 2)
        assert (1, 1, 1) in sols and (1, 0, 0) not in [s for s in sols]

    def test_d_zero_rejected(self):
        with pytest.raises(ValueError):
            SquareRepInstance(IntBinaryForm(1, 0, 1), d=0)


class TestPiezasFamily:
    def test_seed_must_solve(self):
        inst = SquareRepInstance(IntBinaryForm(36, 52, 39))
        with pytest.raises(ValueError):
            piezas_family(inst, (1, 1, 6))
        fam = piezas_family(inst, (1, 0, 6))
        assert fam.seed == (1, 0, 6)

    def test_known_evaluations(self):
        inst = SquareRepInstance(IntBinaryForm(36, 52, 39))
        fam = piezas_family(inst, (1, 0, 6))
        assert fam.evaluate(1, 0) == (36, 0, 216)
        assert fam.evaluate(1, 1) == (-3, 124, 762)
        assert fam.evaluate(1, 2) == (-120, 352, 1776)

    def test_identity_holds_for_seed_family(self):
        inst = SquareRepInstance(IntBinaryForm(36, 52, 39))
        fam = piezas_family(inst, (1, 0, 6))
        rng = random.Random(5)
        for _ in range(300):
            s, t = rng.randint(-50, 50), rng.randint(-50, 50)
            y, z, u = fam.evaluate(s, t)
            assert inst.form.evaluate(y, z) == u * u

    def test_identity_holds_for_random_instances(self):
        rng = random.Random(6)
        trials = 0
        while trials < 300:
            a, b, c = (rng.randint(-9, 9) for _ in range(3))
            m, n = (rng.randint(-9, 9) for _ in range(2))
            d = IntBinaryForm(a, b, c).evaluate(m, n)
            if d == 0:
                continue
            trials += 1
            inst = SquareRepInstance(IntBinaryForm(a, b, c), d=d)
            fam = piezas_family(inst, (m, n, 1))
            s, t = rng.randint(-20, 20), rng.randint(-20, 20)
            y, z, u = fam.evaluate(s, t)
            assert inst.form.evaluate(y, z) == d * u * u

    def test_seed_recovered_at_s1_t0(self):
        inst = SquareRepInstance(IntBinaryForm(-3, 2, 8))
        fam = piezas_family(inst, (-1, 2, 5))
        y, z, u = fam.evaluate(1, 0)
        assert inst.form.evaluate(y, z) == u * u


class TestLiftToLines:
    def test_lifts_reproduce_displayed_vectors(self):
        red = pivot_reduce(MIXED)
        assert lift_to_lines(MIXED, red, (-3, 124, 762)) == (
            PrimitiveDirection((2402, 39, -1612)),
            PrimitiveDirection((302, 3, -124)),
        )
        assert lift_to_lines(MIXED, red, (-120, 352, 1776)) == (
            PrimitiveDirection((622, 195, -572)),
            PrimitiveDirection((82, 15, -44)),
        )

    def test_rejects_non_solution(self):
        red = pivot_reduce(MIXED)
        with pytest.raises(ValueError):
            lift_to_lines(MIXED, red, (1, 1, 1))

    def test_double_root_gives_single_line(self):
        red = pivot_reduce(MIXED)
        # u = 0 happens only at y = z = 0 for this definite form; use a
        # different matrix whose form has a real zero line instead
        from normlines.cone import PARAMETRIC_MATRIX

        red2 = pivot_reduce(PARAMETRIC_MATRIX)
        # form is -20*y*z - 14*z^2; (y, z) = (1, 0) gives u = 0 exactly
        lifted = lift_to_lines(PARAMETRIC_MATRIX, red2, (1, 0, 0))
        assert lifted == (PrimitiveDirection((1, -1, 0)),)
        assert red is not red2

    def test_family_lifts_always_verify(self):
        inst = SquareRepInstance(IntBinaryForm(36, 52, 39))
        fam = piezas_family(inst, (1, 0, 6))
        red = pivot_reduce(MIXED)
        rng = random.Random(11)
        for _ in range(60):
            s, t = rng.randint(-12, 12), rng.randint(-12, 12)
            y, z, u = fam.evaluate(s, t)
            if y == 0 and z == 0:
                continue
            lines = lift_to_lines(MIXED, red, (y, z, abs(u)))
            assert 1 <= len(lines) <= 2
