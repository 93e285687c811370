"""Exact rational building blocks: matrices, quadratic forms, directions.

Everything here works in `fractions.Fraction`; no value is ever rounded.
Norms are always compared through their squares, so no square roots of
floats appear anywhere in the exact layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Rational = Fraction
RationalLike = Union[int, str, Fraction]

__all__ = [
    "Rational",
    "RationalLike",
    "rat",
    "PrimitiveDirection",
    "normalize_direction",
    "square_points",
    "Matrix2",
    "Matrix3",
    "GramForm2",
    "BinaryForm",
    "TernaryForm",
    "gram2",
    "gram3",
    "evaluate_form",
    "verify_norm_preserving",
]


def rat(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction.

    Floats are rejected: accepting them would smuggle rounding error into
    a layer that promises exactness.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


@dataclass(frozen=True, order=True)
class PrimitiveDirection:
    """An integer direction vector with gcd 1 and positive leading entry.

    Two proportional vectors describe the same line through the origin;
    this canonical representative makes line comparisons plain tuple
    equality.  Build instances with :func:`normalize_direction`.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coords or any(not isinstance(c, int) for c in self.coords):
            raise ValueError(f"integer coordinates required, got {self.coords!r}")
        if all(c == 0 for c in self.coords):
            raise ValueError("the zero vector has no direction")
        if math.gcd(*self.coords) != 1:
            raise ValueError(f"coordinates not coprime: {self.coords!r}")
        lead = next(c for c in self.coords if c != 0)
        if lead < 0:
            raise ValueError(f"leading coordinate must be positive: {self.coords!r}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def __str__(self) -> str:
        return "<" + ", ".join(str(c) for c in self.coords) + ">"


def normalize_direction(v: Sequence[RationalLike]) -> PrimitiveDirection:
    """Reduce a nonzero rational vector to its primitive integer direction.

    Denominators are cleared, the gcd is divided out, and the sign is fixed
    so the first nonzero coordinate is positive.  An all-int vector skips
    the denominators and builds no Fraction.
    """
    if all(isinstance(x, int) for x in v):
        ints = v
    else:
        fracs = [rat(x) for x in v]
        scale = math.lcm(*(f.denominator for f in fracs))
        ints = [int(f * scale) for f in fracs]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("cannot normalize the zero vector")
    if next(c for c in ints if c != 0) < 0:
        g = -g
    return PrimitiveDirection(tuple(c // g for c in ints))


def square_points(
    a: int, b: int, c: int, d: int, bound: int
) -> list[tuple[int, int, int]]:
    """All (y, z, u) with 0 <= y <= bound, |z| <= bound, (y, z) != (0, 0),
    u >= 0 and a*y^2 + b*y*z + c*z^2 = d*u^2, in lexicographic order.

    Only the half-plane y >= 0 is scanned, since the form takes the same
    value at (-y, -z); each cell gets an exact integer square root test.
    """
    if d == 0:
        raise ValueError("d must be nonzero")
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if d < 0:
        a, b, c, d = -a, -b, -c, -d
    isqrt = math.isqrt
    out = []
    for y in range(bound + 1):
        # the form at (y, -bound), stepped along the row by first differences
        v = a * y * y - b * y * bound + c * bound * bound
        step = b * y + c * (1 - 2 * bound)
        for z in range(-bound, bound + 1):
            if v >= 0 and v % d == 0:
                q = v // d
                u = isqrt(q)
                if u * u == q and (y or z):
                    out.append((y, z, u))
            v += step
            step += 2 * c
    return out


def _coerce_row(row: Sequence[RationalLike], width: int) -> tuple[Fraction, ...]:
    if len(row) != width:
        raise ValueError(f"expected a row of length {width}, got {row!r}")
    return tuple(rat(x) for x in row)


@dataclass(frozen=True)
class Matrix2:
    """A 2x2 matrix with exact rational entries [[a, b], [c, d]]."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> Matrix2:
        if len(rows) != 2:
            raise ValueError("expected 2 rows")
        (a, b), (c, d) = (_coerce_row(r, 2) for r in rows)
        return cls(a, b, c, d)

    @classmethod
    def identity(cls) -> Matrix2:
        return cls.from_rows([[1, 0], [0, 1]])

    def rows(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        return ((self.a, self.b), (self.c, self.d))

    def transpose(self) -> Matrix2:
        return Matrix2(self.a, self.c, self.b, self.d)

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def trace(self) -> Fraction:
        return self.a + self.d

    def __matmul__(self, other: Matrix2) -> Matrix2:
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, v: Sequence[RationalLike]) -> tuple[Fraction, Fraction]:
        x, y = (rat(t) for t in v)
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def is_identity(self) -> bool:
        return self == Matrix2.identity()


@dataclass(frozen=True)
class Matrix3:
    """A 3x3 matrix with exact rational entries, stored row-major."""

    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> Matrix3:
        if len(rows) != 3:
            raise ValueError("expected 3 rows")
        return cls(tuple(_coerce_row(r, 3) for r in rows))

    @classmethod
    def identity(cls) -> Matrix3:
        return cls.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.entries

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> Matrix3:
        e = self.entries
        return Matrix3(tuple(tuple(e[j][i] for j in range(3)) for i in range(3)))

    def det(self) -> Fraction:
        e = self.entries
        return (
            e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
        )

    def __matmul__(self, other: Matrix3) -> Matrix3:
        e, f = self.entries, other.entries
        return Matrix3(
            tuple(
                tuple(sum(e[i][k] * f[k][j] for k in range(3)) for j in range(3))
                for i in range(3)
            )
        )

    def apply(self, v: Sequence[RationalLike]) -> tuple[Fraction, Fraction, Fraction]:
        x, y, z = (rat(t) for t in v)
        e = self.entries
        return tuple(e[i][0] * x + e[i][1] * y + e[i][2] * z for i in range(3))

    def is_identity(self) -> bool:
        return self == Matrix3.identity()


@dataclass(frozen=True)
class GramForm2:
    """The squared-norm data of a 2x2 matrix A.

    With column norms m = |A e1|^2, n = |A e2|^2 and column inner product
    p = (A e1, A e2), the squared norm of A(x, y) is m x^2 + 2 p x y + n y^2.
    """

    m: Fraction
    n: Fraction
    p: Fraction

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0 or self.m * self.n - self.p * self.p < 0:
            raise ValueError(f"not a Gram form: m={self.m} n={self.n} p={self.p}")

    def norm_change_form(self) -> BinaryForm:
        """The form whose zeros are the norm-preserving directions.

        |A v|^2 - |v|^2 = (m - 1) x^2 + 2 p x y + (n - 1) y^2.
        """
        return BinaryForm(self.m - 1, 2 * self.p, self.n - 1)


@dataclass(frozen=True)
class BinaryForm:
    """A binary quadratic form cxx*x^2 + cxy*x*y + cyy*y^2 over the rationals."""

    cxx: Fraction
    cxy: Fraction
    cyy: Fraction

    def evaluate(self, x: RationalLike, y: RationalLike) -> Fraction:
        x, y = rat(x), rat(y)
        return self.cxx * x * x + self.cxy * x * y + self.cyy * y * y

    def discriminant(self) -> Fraction:
        return self.cxy * self.cxy - 4 * self.cxx * self.cyy

    def is_zero(self) -> bool:
        return self.cxx == 0 and self.cxy == 0 and self.cyy == 0

    def scaled_integer(self) -> tuple[int, int, int, int]:
        """Clear denominators: the smallest positive L with integer L*coefficients.

        Returns (A, B, C, L) where A x^2 + B x y + C y^2 = L * self.
        """
        L = math.lcm(
            self.cxx.denominator, self.cxy.denominator, self.cyy.denominator
        )
        return (int(self.cxx * L), int(self.cxy * L), int(self.cyy * L), L)


@dataclass(frozen=True)
class TernaryForm:
    """A quadratic form v . S v given by a symmetric 3x3 rational matrix S."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        s = self.matrix
        if len(s) != 3 or any(len(r) != 3 for r in s):
            raise ValueError("a 3x3 coefficient matrix is required")
        for i in range(3):
            for j in range(i + 1, 3):
                if s[i][j] != s[j][i]:
                    raise ValueError("coefficient matrix must be symmetric")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> TernaryForm:
        return cls(tuple(_coerce_row(r, 3) for r in rows))

    def evaluate(self, v: Sequence[RationalLike]) -> Fraction:
        x = [rat(t) for t in v]
        s = self.matrix
        return sum(s[i][j] * x[i] * x[j] for i in range(3) for j in range(3))

    def polynomial_coefficients(self) -> dict[str, Fraction]:
        """Coefficients as written out: squares plus doubled cross terms."""
        s = self.matrix
        return {
            "xx": s[0][0],
            "yy": s[1][1],
            "zz": s[2][2],
            "xy": 2 * s[0][1],
            "xz": 2 * s[0][2],
            "yz": 2 * s[1][2],
        }

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.matrix for c in row)


def gram2(A: Matrix2) -> GramForm2:
    """Column-norm data of a 2x2 matrix: m = a^2+c^2, n = b^2+d^2, p = ab+cd."""
    return GramForm2(
        A.a * A.a + A.c * A.c,
        A.b * A.b + A.d * A.d,
        A.a * A.b + A.c * A.d,
    )


def gram3(A: Matrix3) -> TernaryForm:
    """The Gram matrix A^T A of a 3x3 matrix, as a ternary form."""
    B = A.transpose() @ A
    return TernaryForm(B.entries)


def evaluate_form(
    form: Union[BinaryForm, TernaryForm], v: Sequence[RationalLike]
) -> Fraction:
    """Evaluate a binary or ternary form at an exact rational point."""
    if isinstance(form, BinaryForm):
        x, y = v
        return form.evaluate(x, y)
    return form.evaluate(v)


def _norm_sq(v: Iterable[Fraction]) -> Fraction:
    return sum(x * x for x in v)


def verify_norm_preserving(
    A: Union[Matrix2, Matrix3], v: Sequence[RationalLike]
) -> bool:
    """Check |A v|^2 == |v|^2 exactly for a rational vector v."""
    w = [rat(t) for t in v]
    return _norm_sq(A.apply(w)) == _norm_sq(w)
