"""Integer machinery for the square-representation equations.

The pivot reduction of a 3x3 problem leaves a binary quadratic form that
must be a perfect square for an integer solution line to exist.  This
module certifies impossibility 2-adically, searches small solutions by
brute force, generates two-parameter solution families from a seed, and
lifts solutions back to integer direction vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Matrix3,
    PrimitiveDirection,
    normalize_direction,
    square_points,
    verify_norm_preserving,
)
from .cone import PivotReduction

__all__ = [
    "integer_sqrt",
    "IntBinaryForm",
    "SquareRepInstance",
    "two_adic_obstruction",
    "square_rep_bruteforce",
    "PiezasFamily",
    "piezas_family",
    "lift_to_lines",
]


def integer_sqrt(n: int) -> Optional[int]:
    """The exact square root of n when n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True)
class IntBinaryForm:
    """An integer binary quadratic form a*y^2 + b*y*z + c*z^2."""

    a: int
    b: int
    c: int

    def evaluate(self, y: int, z: int) -> int:
        return self.a * y * y + self.b * y * z + self.c * z * z

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


@dataclass(frozen=True)
class SquareRepInstance:
    """The equation form(y, z) = d * u^2 in integers."""

    form: IntBinaryForm
    d: int = 1

    def __post_init__(self) -> None:
        if self.d == 0:
            raise ValueError("d must be nonzero")


def two_adic_obstruction(form: IntBinaryForm) -> bool:
    """Certify that form(y, z) = u^2 has no solution besides y = z = 0.

    Certificate: when a = c = 3 (mod 4) and b = 0 (mod 4), write
    y = 2^s * v, z = 2^t * w with v, w odd and s <= t.  Dividing out 4^s
    leaves a cofactor that is 2 (mod 4) when s = t and 3 (mod 4) when
    s < t (points with one zero coordinate land in the 3 (mod 4) case);
    neither residue is ever a square, and the cofactor is nonzero, so the
    form misses every square.

    This is a sufficient test only: False means no conclusion.
    """
    return form.a % 4 == 3 and form.c % 4 == 3 and form.b % 4 == 0


def square_rep_bruteforce(
    inst: SquareRepInstance, bound: int
) -> list[tuple[int, int, int]]:
    """All solutions (y, z, u) with |y|, |z| <= bound and u >= 0.

    The all-zero triple is excluded; non-primitive solutions are kept.
    Output order is lexicographic in (y, z).  Raises ValueError for a
    negative bound.
    """
    f = inst.form
    upper = square_points(f.a, f.b, f.c, inst.d, bound)
    # form(-y, -z) = form(y, z): the rows y < 0 mirror the rows y > 0.
    lower = [(-y, -z, u) for y, z, u in reversed(upper) if y > 0]
    return lower + upper


@dataclass(frozen=True)
class PiezasFamily:
    """A two-parameter polynomial family of solutions of form(y,z) = d*u^2.

    Evaluations trace the conic's rational points: the line through the
    seed point with direction (s, t, 0) meets the projective conic
    a y^2 + b y z + c z^2 = d u^2 in one more point, which is polynomial
    in (s, t).
    """

    instance: SquareRepInstance
    seed: tuple[int, int, int]

    def evaluate(self, s: int, t: int) -> tuple[int, int, int]:
        a, b, c = (
            self.instance.form.a,
            self.instance.form.b,
            self.instance.form.c,
        )
        m, n, p = self.seed
        y = (a * m + b * n) * s * s + 2 * c * n * s * t - c * m * t * t
        z = -a * n * s * s + 2 * a * m * s * t + (b * m + c * n) * t * t
        u = p * (a * s * s + b * s * t + c * t * t)
        return y, z, u


def piezas_family(inst: SquareRepInstance, seed: tuple[int, int, int]) -> PiezasFamily:
    """Build the two-parameter family through a known solution (m, n, p).

    Raises ValueError when the seed does not satisfy the instance exactly.
    """
    m, n, p = seed
    if inst.form.evaluate(m, n) != inst.d * p * p:
        raise ValueError(
            f"seed {seed} does not solve form(y,z) = {inst.d}*u^2 exactly"
        )
    return PiezasFamily(inst, (m, n, p))


def lift_to_lines(
    A: Matrix3, reduction: PivotReduction, solution: tuple[int, int, int]
) -> tuple[PrimitiveDirection, ...]:
    """Turn a solution of discriminant_form(y, z) = u^2 into direction lines.

    The two square-root branches of the pivot reduction give up to two
    rational directions; both are normalized, deduplicated, and verified
    to preserve the norm under A exactly.
    """
    y, z, u = solution
    form = reduction.discriminant_form
    if form.evaluate(y, z) != u * u:
        raise ValueError(
            f"solution {solution} does not satisfy the reduced equation "
            "discriminant_form(y, z) = u^2"
        )
    j, o = reduction.others
    out: list[PrimitiveDirection] = []
    for pivot_value in reduction.branch_values(Fraction(y), Fraction(z), Fraction(u)):
        coords = [Fraction(0)] * 3
        coords[reduction.pivot] = pivot_value
        coords[j] = Fraction(y)
        coords[o] = Fraction(z)
        if all(c == 0 for c in coords):
            raise ValueError("solution lifts to the zero vector")
        d = normalize_direction(coords)
        if d not in out:
            out.append(d)
    for d in out:
        if not verify_norm_preserving(A, tuple(d)):  # pragma: no cover
            raise AssertionError("lifted direction failed exact verification")
    return tuple(out)
