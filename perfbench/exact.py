"""Exact arithmetic and reference oracles, independent of the program.

Matrices are tuples of rows of ints or Fractions.  The oracles answer the
same questions as the program's searches by a different method, so a
result can be checked line for line: the cone search solves the cone
equation for x by an exact integer square root on each (y, z), instead of
scanning the cube.
"""

from __future__ import annotations

import math
from fractions import Fraction as F


def identity3():
    return tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))


def transpose3(A):
    return tuple(tuple(A[j][i] for j in range(3)) for i in range(3))


def matmul3(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


def matadd3(A, B):
    return tuple(tuple(A[i][j] + B[i][j] for j in range(3)) for i in range(3))


def matsub3(A, B):
    return tuple(tuple(A[i][j] - B[i][j] for j in range(3)) for i in range(3))


def matvec3(A, v):
    return tuple(sum(A[i][k] * v[k] for k in range(3)) for i in range(3))


def det3(A):
    return (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
            - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
            + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))


def inv3(A):
    d = F(det3(A))
    cof = [[(A[(j + 1) % 3][(i + 1) % 3] * A[(j + 2) % 3][(i + 2) % 3]
             - A[(j + 1) % 3][(i + 2) % 3] * A[(j + 2) % 3][(i + 1) % 3]) / d
            for j in range(3)] for i in range(3)]
    return tuple(tuple(row) for row in cof)


def cone3(A):
    """A^T A - I as Fractions."""
    G = matmul3(transpose3(A), A)
    return tuple(tuple(F(G[i][j]) - (i == j) for j in range(3)) for i in range(3))


def integer_scale(M):
    """The smallest positive integer multiple of a rational matrix."""
    L = math.lcm(*(F(x).denominator for row in M for x in row))
    return tuple(tuple(int(F(x) * L) for x in row) for row in M)


def cone_T(A):
    """Integer matrix T with v.Tv = 0 exactly when |Av|^2 = |v|^2."""
    return integer_scale(cone3(A))


def quad3(T, v):
    x, y, z = v
    return (T[0][0] * x * x + T[1][1] * y * y + T[2][2] * z * z
            + 2 * (T[0][1] * x * y + T[0][2] * x * z + T[1][2] * y * z))


def norm_preserving(A, v) -> bool:
    """|Av|^2 == |v|^2 in exact rationals (the test verify_norm_preserving makes)."""
    n = len(v)
    Av = [sum(F(A[i][k]) * v[k] for k in range(n)) for i in range(n)]
    return sum(x * x for x in Av) == sum(F(x) * x for x in v)


def canonical(v) -> bool:
    """Integer entries, gcd 1, first nonzero entry positive."""
    if not all(type(c) is int for c in v) or math.gcd(*v) != 1:
        return False
    return next(c for c in v if c) > 0


def primitive(v) -> tuple:
    """The canonical primitive integer direction of a nonzero rational vector."""
    fr = [F(x) for x in v]
    L = math.lcm(*(f.denominator for f in fr))
    ints = [int(f * L) for f in fr]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    if next(c for c in ints if c) < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def irreducible_cone(A) -> bool:
    """Rank-3 indefinite cone form (Sylvester's criterion on leading minors)."""
    M = cone3(A)
    d1 = M[0][0]
    d2 = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    d3 = det3(M)
    if d3 == 0:
        return False
    positive = d1 > 0 and d2 > 0 and d3 > 0
    negative = d1 < 0 and d2 > 0 and d3 < 0
    return not (positive or negative)


def parametric_point(v, r):
    """A solution of the parametric matrix [[1,2,3],[2,1,1],[1,1,1]]."""
    return (F(r * r - 10 * v * v + 4 * v * r, 10), F(-(14 * v * v + r * r), 10),
            F(2 * v * v))


def pivot_roots(T, k, y, z):
    """Rational values of coordinate k that put (.., y, z, ..) on v.Tv = 0,
    the other two coordinates (in axis order) being y and z."""
    j, o = [i for i in range(3) if i != k]
    a = T[k][k]
    L = T[k][j] * y + T[k][o] * z
    q = T[j][j] * y * y + 2 * T[j][o] * y * z + T[o][o] * z * z
    if a == 0:
        return {F(-q, 2 * L)} if L else set()
    disc = L * L - a * q
    s = math.isqrt(disc) if disc >= 0 else -1
    if s * s != disc:
        return set()
    return {F(-L + s, a), F(-L - s, a)}


def ref_search3(T, B: int) -> list[tuple[int, int, int]]:
    """Canonical primitive integer lines in [-B, B]^3 on v.Tv = 0, sorted."""
    a, d, e = T[0]
    b, f, c = T[1][1], T[1][2], T[2][2]
    isqrt, gcd = math.isqrt, math.gcd
    out = []
    for y in range(-B, B + 1):
        dy, by2, fy2 = d * y, b * y * y, 2 * f * y
        for z in range(-B, B + 1):
            L = dy + e * z
            q = by2 + (fy2 + c * z) * z
            if a:
                disc = L * L - a * q
                if disc < 0:
                    continue
                s = isqrt(disc)
                if s * s != disc:
                    continue
                xs = {r // a for r in (s - L, -s - L) if r % a == 0}
            elif L:
                if q % (2 * L):
                    continue
                xs = (-q // (2 * L),)
            elif q == 0:
                xs = range(-B, B + 1)
            else:
                continue
            for x in xs:
                if -B <= x <= B and gcd(x, y, z) == 1:
                    lead = x or y or z
                    if lead > 0:
                        out.append((x, y, z))
    out.sort()
    return out


def ref_sqrep(form, d: int, B: int) -> list[tuple[int, int, int]]:
    """All (y, z, u), |y|, |z| <= B, (y, z) != 0, u >= 0, form(y, z) = d u^2."""
    a, b, c = form
    isqrt = math.isqrt
    out = []
    for y in range(-B, B + 1):
        ay2, by = a * y * y, b * y
        for z in range(-B, B + 1):
            val = ay2 + (by + c * z) * z
            if val < 0 or val % d or (y == 0 and z == 0):
                continue
            w = val // d
            u = isqrt(w)
            if u * u == w:
                out.append((y, z, u))
    return out


def power2(M, n):
    R = ((1, 0), (0, 1))
    for _ in range(n):
        R = tuple(tuple(sum(R[i][k] * M[k][j] for k in range(2)) for j in range(2))
                  for i in range(2))
    return R


def in_field(x, N):
    """A program QuadElement a + b*sqrt(d) as the pair (a, b') with
    x = a + b'*sqrt(N); requires N / d to be a square when b != 0."""
    if x.b == 0:
        return F(x.a), F(0)
    f = math.isqrt(N // x.d)
    if N % x.d or f * f * x.d != N:
        raise ValueError(f"{x} does not lie in Q(sqrt({N}))")
    return F(x.a), F(x.b) / f


def qmul(x, y, N):
    """(x0 + x1*sqrt(N)) * (y0 + y1*sqrt(N))."""
    return x[0] * y[0] + N * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def qpow(x, n, N):
    r = (F(1), F(0))
    for _ in range(n):
        r = qmul(r, x, N)
    return r


def lines2(A) -> tuple[str, list[tuple[int, int]], int]:
    """Solution kind, rational lines and irrational-line count of a 2x2 matrix,
    from the form (m-1)x^2 + 2p xy + (n-1)y^2 with m, n, p the Gram data."""
    (a, b), (c, d) = A
    m, n, p = a * a + c * c, b * b + d * d, a * b + c * d
    ax, bx, cx = integer_scale(((m - 1, 2 * p, n - 1),))[0]
    if ax == bx == cx == 0:
        return "all_lines", [], 0
    if cx == 0:
        return "lines", sorted({(0, 1), primitive((bx, -ax))}), 0
    disc = bx * bx - 4 * ax * cx
    if disc < 0:
        return "no_real_lines", [], 0
    r = math.isqrt(disc)
    if r * r == disc:
        return "lines", sorted({primitive((2 * cx, -bx + r)), primitive((2 * cx, -bx - r))}), 0
    return "lines", [], 2
