"""Norm-preserving directions of 3x3 rational matrices.

The directions v with |A v| = |v| form the cone v . (B - I) v = 0 where
B = A^T A.  This module decides existence, classifies the cone's real
zero set, reduces the cone equation to a binary quadratic under a square
root (the pivot reduction), and searches for integer solution lines.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import (
    BinaryForm,
    Matrix3,
    PrimitiveDirection,
    TernaryForm,
    gram3,
    normalize_direction,
    square_points,
    verify_norm_preserving,
)

__all__ = [
    "ConeKind",
    "ConeClassification",
    "cone_form",
    "existence3",
    "classify_cone",
    "plane_integer_basis",
    "PivotReduction",
    "pivot_reduce",
    "default_pivot",
    "integer_line_search3",
    "PARAMETRIC_MATRIX",
    "parametric_lines",
]

AXES = ("x", "y", "z")


def cone_form(A: Matrix3) -> TernaryForm:
    """The ternary form B - I whose zero cone holds the solution lines."""
    B = gram3(A).matrix
    rows = tuple(
        tuple(B[i][j] - (1 if i == j else 0) for j in range(3)) for i in range(3)
    )
    return TernaryForm(rows)


def _principal_minors(M: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Determinants of all nonempty principal submatrices (7 of them)."""
    minors = []
    for size in (1, 2, 3):
        for idx in itertools.combinations(range(3), size):
            if size == 1:
                minors.append(M[idx[0]][idx[0]])
            elif size == 2:
                i, j = idx
                minors.append(M[i][i] * M[j][j] - M[i][j] * M[j][i])
            else:
                minors.append(_det3(M))
    return minors


def _det3(M: Sequence[Sequence[Fraction]]) -> Fraction:
    return (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )


def _is_positive_definite(M) -> bool:
    # All principal minors, not only the leading ones: the leading test
    # misreads semidefinite corner cases like diag(0, 0, -1).
    return all(d > 0 for d in _principal_minors(M))


def _is_positive_semidefinite(M) -> bool:
    return all(d >= 0 for d in _principal_minors(M))


def _negated(M):
    return tuple(tuple(-x for x in row) for row in M)


def _rank(M) -> int:
    rows = [list(r) for r in M]
    rank, col = 0, 0
    while rank < 3 and col < 3:
        pivot = next((r for r in range(rank, 3) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, 3):
            f = rows[r][col] / rows[rank][col]
            for c in range(col, 3):
                rows[r][c] -= f * rows[rank][c]
        rank += 1
        col += 1
    return rank


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _kernel_direction(M) -> PrimitiveDirection:
    """A primitive generator of the kernel of a rank-2 symmetric matrix."""
    for i, j in itertools.combinations(range(3), 2):
        w = _cross(M[i], M[j])
        if any(x != 0 for x in w):
            return normalize_direction(w)
    raise ValueError("matrix has rank below 2, kernel is not a line")


class ConeKind(enum.Enum):
    EMPTY = "empty"
    ZERO_ONLY = "zero_only"
    SINGLE_LINE = "single_line"
    DOUBLE_PLANE = "double_plane"
    PLANE_PAIR = "plane_pair"
    IRREDUCIBLE_CONE = "irreducible_cone"
    ALL_SPACE = "all_space"


@dataclass(frozen=True)
class ConeClassification:
    """Shape of the real zero set of v . (B - I) v = 0.

    EMPTY: only the trivial solution (the form is definite).  ZERO_ONLY is
    kept as an alias tag for interface completeness but is never produced:
    a definite form is always reported as EMPTY.  PLANE_PAIR is used only
    when the form splits into two distinct linear factors over the
    rationals; a rank-2 indefinite form whose factors are conjugate
    irrational planes is reported as IRREDUCIBLE_CONE (no rational split).
    """

    kind: ConeKind
    normal: Optional[PrimitiveDirection] = None
    normals: Optional[tuple[PrimitiveDirection, PrimitiveDirection]] = None
    line: Optional[PrimitiveDirection] = None


def existence3(A: Matrix3) -> bool:
    """Whether a nonzero real direction keeps its length under A.

    True exactly when B - I is neither positive nor negative definite,
    i.e. when 1 lies between the extreme eigenvalues of B.
    """
    M = cone_form(A).matrix
    return not (_is_positive_definite(M) or _is_positive_definite(_negated(M)))


def _rational_square_root(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _split_rank2(M) -> Optional[tuple[PrimitiveDirection, PrimitiveDirection]]:
    """Try to factor a rank-2 indefinite form into two rational planes.

    Completes the square on a diagonal entry; the leftover binary form has
    rank one, and the split exists iff the sign-flipped ratio of the two
    squares is a rational square.  Returns the primitive plane normals, or
    None when the factor planes are irrational.
    """
    k = next((i for i in range(3) if M[i][i] != 0), None)
    if k is None:
        # No squares at all: 2(M01 xy + M02 xz + M12 yz) with rank 2 means
        # the product term avoiding some shared variable s vanishes and the
        # form is 2 x_s times a rational plane.
        for s in range(3):
            t1, t2 = (i for i in range(3) if i != s)
            if M[t1][t2] != 0 or (M[s][t1] == 0 and M[s][t2] == 0):
                continue
            n1 = [Fraction(0)] * 3
            n1[s] = Fraction(1)
            n2 = [Fraction(0)] * 3
            n2[t1] = M[s][t1]
            n2[t2] = M[s][t2]
            return normalize_direction(tuple(n1)), normalize_direction(tuple(n2))
        return None
    j, other = [i for i in range(3) if i != k]
    # Q = M_kk X^2 + Q_rest(j, other) with X = x_k + (M_kj/M_kk) x_j + ...
    cjj = M[j][j] - M[k][j] ** 2 / M[k][k]
    cjo = M[j][other] - M[k][j] * M[k][other] / M[k][k]
    coo = M[other][other] - M[k][other] ** 2 / M[k][k]
    if cjj != 0:
        e, alpha, beta = cjj, Fraction(1), cjo / cjj
    elif coo != 0:
        e, alpha, beta = coo, cjo / coo, Fraction(1)
    elif cjo != 0:  # pragma: no cover - would make the total rank 3
        return None
    else:  # pragma: no cover - would make the total rank 1
        return None
    t = _rational_square_root(-e / M[k][k])
    if t is None:
        return None
    normals = []
    for sign in (1, -1):
        n = [Fraction(0)] * 3
        n[k] = Fraction(1)
        n[j] = M[k][j] / M[k][k] + sign * t * alpha
        n[other] = M[k][other] / M[k][k] + sign * t * beta
        normals.append(normalize_direction(tuple(n)))
    return normals[0], normals[1]


def classify_cone(A: Matrix3) -> ConeClassification:
    """Classify the real solution cone of A by exact rational linear algebra."""
    M = cone_form(A).matrix
    if all(x == 0 for row in M for x in row):
        return ConeClassification(ConeKind.ALL_SPACE)
    if _is_positive_definite(M) or _is_positive_definite(_negated(M)):
        return ConeClassification(ConeKind.EMPTY)
    r = _rank(M)
    if r == 1:
        row = next(row for row in M if any(x != 0 for x in row))
        return ConeClassification(
            ConeKind.DOUBLE_PLANE, normal=normalize_direction(row)
        )
    if r == 2:
        if _is_positive_semidefinite(M) or _is_positive_semidefinite(_negated(M)):
            return ConeClassification(
                ConeKind.SINGLE_LINE, line=_kernel_direction(M)
            )
        split = _split_rank2(M)
        if split is not None:
            return ConeClassification(ConeKind.PLANE_PAIR, normals=split)
        return ConeClassification(ConeKind.IRREDUCIBLE_CONE)
    return ConeClassification(ConeKind.IRREDUCIBLE_CONE)


def plane_integer_basis(
    classification: ConeClassification,
) -> tuple[PrimitiveDirection, PrimitiveDirection]:
    """Two primitive integer vectors spanning a DOUBLE_PLANE solution plane.

    Every integer combination of the pair is a solution line.  Uses the
    two-coordinate construction from the plane normal.
    """
    if classification.kind is not ConeKind.DOUBLE_PLANE:
        raise ValueError("an integer basis is defined only for a double plane")
    n1, n2, n3 = classification.normal
    if n3 != 0:
        return (
            normalize_direction((n3, 0, -n1)),
            normalize_direction((0, n3, -n2)),
        )
    return normalize_direction((n2, -n1, 0)), PrimitiveDirection((0, 0, 1))


@dataclass(frozen=True)
class PivotReduction:
    """The cone equation solved for one variable.

    pivot_value = linear . (u, w) +/- sqrt(discriminant_form(u, w)) / denominator

    where (u, w) run over the two non-pivot coordinates (in axis order),
    discriminant_form has integer coefficients, and clearing_multiplier is
    the factor mu with discriminant_form = mu^2 * (raw rational form).
    """

    pivot: int
    others: tuple[int, int]
    linear: tuple[Fraction, Fraction]
    denominator: Fraction
    discriminant_form: BinaryForm
    clearing_multiplier: int

    @property
    def pivot_axis(self) -> str:
        return AXES[self.pivot]

    def branch_values(
        self, u: Fraction, w: Fraction, root: Fraction
    ) -> tuple[Fraction, Fraction]:
        """The two pivot-coordinate values given sqrt(discriminant) = root."""
        base = self.linear[0] * u + self.linear[1] * w
        return base + root / self.denominator, base - root / self.denominator


def _axis_index(pivot: Union[int, str]) -> int:
    if isinstance(pivot, str):
        if pivot not in AXES:
            raise ValueError(f"unknown axis {pivot!r}, expected one of {AXES}")
        return AXES.index(pivot)
    if pivot not in (0, 1, 2):
        raise ValueError("pivot index must be 0, 1, or 2")
    return pivot


def default_pivot(A: Matrix3) -> int:
    """First axis whose squared coefficient in the cone form is nonzero."""
    M = cone_form(A).matrix
    for i in range(3):
        if M[i][i] != 0:
            return i
    raise ValueError("all squared coefficients vanish; no pivot axis exists")


def _square_clearing_factor(L: int) -> int:
    """Smallest positive mu with L | mu^2, by halving prime exponents up."""
    mu, rest, p = 1, L, 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            mu *= p ** ((e + 1) // 2)
        p += 1
    return mu * rest  # leftover prime has exponent 1


def pivot_reduce(A: Matrix3, pivot: Union[int, str, None] = None) -> PivotReduction:
    """Solve the cone equation for one coordinate by the quadratic formula.

    Raises ValueError when the chosen axis has a vanishing squared
    coefficient (the equation is not quadratic in that variable).
    """
    M = cone_form(A).matrix
    k = default_pivot(A) if pivot is None else _axis_index(pivot)
    if M[k][k] == 0:
        raise ValueError(
            f"squared coefficient of {AXES[k]} vanishes; pick another pivot"
        )
    j, o = [i for i in range(3) if i != k]
    d_jj = M[k][j] ** 2 - M[k][k] * M[j][j]
    d_jo = 2 * (M[k][j] * M[k][o] - M[k][k] * M[j][o])
    d_oo = M[k][o] ** 2 - M[k][k] * M[o][o]
    L = math.lcm(d_jj.denominator, d_jo.denominator, d_oo.denominator)
    mu = _square_clearing_factor(L)
    mu2 = Fraction(mu * mu)
    form = BinaryForm(d_jj * mu2, d_jo * mu2, d_oo * mu2)
    assert all(
        c.denominator == 1 for c in (form.cxx, form.cxy, form.cyy)
    ), "clearing multiplier failed to produce integers"
    return PivotReduction(
        pivot=k,
        others=(j, o),
        linear=(-M[k][j] / M[k][k], -M[k][o] / M[k][k]),
        denominator=abs(M[k][k]) * mu,
        discriminant_form=form,
        clearing_multiplier=mu,
    )


def _integer_cone_matrix(A: Matrix3) -> list[list[int]]:
    M = cone_form(A).matrix
    L = math.lcm(*(M[i][j].denominator for i in range(3) for j in range(3)))
    return [[int(M[i][j] * L) for j in range(3)] for i in range(3)]


def integer_line_search3(A: Matrix3, bound: int) -> list[PrimitiveDirection]:
    """All primitive integer solution lines with coordinates in [-bound, bound].

    Exhaustive over the cube in exact integer arithmetic, with work
    quadratic in the bound: the cone equation is solved for the first axis
    x_k with a nonzero squared coefficient, as in :func:`pivot_reduce`.
    Over the pairs (y, z) of the other two coordinates with y >= 0 (a line
    and its negation are the same line), the quadratic in x_k has an
    integer root only where its discriminant D(y, z) is a perfect square,
    which :func:`square_points` finds, and the root divides exactly.  When
    every squared coefficient vanishes the equation is linear in x and is
    solved directly.  Output is deduplicated to canonical directions and
    sorted lexicographically.  Raises ValueError for orthogonal A, where
    every direction qualifies.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    T = _integer_cone_matrix(A)
    if all(x == 0 for row in T for x in row):
        raise ValueError("every direction is norm-preserving (orthogonal matrix)")
    k = next((i for i in range(3) if T[i][i] != 0), None)
    if k is None:
        points = _zero_diagonal_points(T, bound)
    else:
        points = _pivot_points(T, k, bound)
    return sorted({normalize_direction(v) for v in points})


def _pivot_points(T, k: int, bound: int) -> list[list[int]]:
    # T_kk x^2 + 2 h x + (T_jj y^2 + 2 T_jo y z + T_oo z^2) = 0 with
    # h = T_kj y + T_ko z, so x = (-h +/- sqrt(D)) / T_kk.
    j, o = [i for i in range(3) if i != k]
    tkk, tkj, tko = T[k][k], T[k][j], T[k][o]
    disc = (
        tkj * tkj - tkk * T[j][j],
        2 * (tkj * tko - tkk * T[j][o]),
        tko * tko - tkk * T[o][o],
    )
    points = []
    for y, z, r in square_points(*disc, 1, bound):
        h = tkj * y + tko * z
        for num in {r - h, -r - h}:
            x, rem = divmod(num, tkk)
            if rem == 0 and -bound <= x <= bound:
                v = [0, 0, 0]
                v[k], v[j], v[o] = x, y, z
                points.append(v)
    return points


def _zero_diagonal_points(T, bound: int) -> list[tuple[int, int, int]]:
    # 2 x (T_01 y + T_02 z) + 2 T_12 y z = 0 is linear in x.
    points = []
    for y in range(bound + 1):
        for z in range(-bound, bound + 1):
            slope = T[0][1] * y + T[0][2] * z
            rest = -T[1][2] * y * z
            if slope != 0:
                x, rem = divmod(rest, slope)
                if rem == 0 and -bound <= x <= bound:
                    points.append((x, y, z))
            elif rest == 0:  # every x solves it
                xs = range(-bound, bound + 1)
                points.extend((x, y, z) for x in xs if x or y or z)
    return points


#: A matrix whose solution cone carries infinitely many integer lines,
#: all reachable from the closed-form two-parameter family below.
PARAMETRIC_MATRIX = Matrix3.from_rows([[1, 2, 3], [2, 1, 1], [1, 1, 1]])


def parametric_lines(v: int, r: int) -> tuple[PrimitiveDirection, ...]:
    """Closed-form solution lines of PARAMETRIC_MATRIX for parameters (v, r).

    Both square-root branches of the pivot reduction are returned as
    primitive directions (one entry when they describe the same line).
    """
    if (v, r) == (0, 0):
        raise ValueError("(v, r) = (0, 0) gives the zero vector")
    y = Fraction(-(14 * v * v + r * r), 10)
    z = Fraction(2 * v * v)
    out: list[PrimitiveDirection] = []
    for sign in (1, -1):
        x = Fraction(r * r - 10 * v * v + sign * 4 * v * r, 10)
        d = normalize_direction((x, y, z))
        if d not in out:
            out.append(d)
    for d in out:
        if not verify_norm_preserving(PARAMETRIC_MATRIX, tuple(d)):  # pragma: no cover
            raise AssertionError("parametric family line failed verification")
    return tuple(out)
