"""Output checks for every op, computed with :mod:`exact`, not the program.

Each ``check_<kind>(problem, result)`` returns a list of error strings;
an empty list means the output is correct.  Reference results are exact
and complete, so a dropped line, an extra non-solution and a flipped sign
are all caught (``run.py --self-test`` proves it on corrupted results).
"""

from __future__ import annotations

import math
from fractions import Fraction as F

from . import exact


def search3(A, bound, lines) -> list[str]:
    """Exact solutions, canonical and primitive, inside the bound, sorted,
    unique, and exactly the lines the reference search finds."""
    errors = []
    T = exact.cone_T(A)
    for v in lines:
        if not exact.canonical(v):
            errors.append(f"line {v} is not a canonical primitive direction")
        elif exact.quad3(T, v) != 0:
            errors.append(f"line {v} is not norm-preserving")
        elif max(abs(c) for c in v) > bound:
            errors.append(f"line {v} lies outside the bound {bound}")
    if any(lines[i] >= lines[i + 1] for i in range(len(lines) - 1)):
        errors.append("lines are not sorted and unique")
    reference = exact.ref_search3(T, bound)
    if lines != reference:
        missing = sorted(set(reference) - set(lines))
        extra = sorted(set(lines) - set(reference))
        errors.append(f"lines differ from the reference: {len(missing)} missing "
                      f"{missing[:3]}, {len(extra)} extra {extra[:3]}")
    return errors[:5]


def _coords(lines):
    return [tuple(d.coords) for d in lines]


def sqrep(form, d, bound, sols) -> list[str]:
    a, b, c = form
    errors = []
    for y, z, u in sols:
        if max(abs(y), abs(z)) > bound or u < 0 or (y, z) == (0, 0):
            errors.append(f"solution {(y, z, u)} outside the stated range")
        elif a * y * y + b * y * z + c * z * z != d * u * u:
            errors.append(f"{(y, z, u)} does not solve the equation")
    keys = [(y, z) for y, z, _ in sols]
    if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
        errors.append("solutions are not sorted and unique")
    ref = exact.ref_sqrep(form, d, bound)
    if list(sols) != ref:
        errors.append(f"solutions differ from the reference ({len(sols)} vs {len(ref)})")
    return errors[:5]


def solution2(A, sol) -> list[str]:
    """A planar solution against an independent solve of the same form."""
    kind, expected, irrational = exact.lines2(A)
    (a, b), (c, d) = A
    errors = []
    if sol.kind.value != kind:
        errors.append(f"kind {sol.kind.value}, expected {kind}")
    rational = [l for l in sol.lines if l.rational]
    got = sorted(tuple(l.direction.coords) for l in rational)
    if got != expected:
        errors.append(f"rational lines {got}, expected {expected}")
    if len(sol.lines) - len(rational) != irrational:
        errors.append("wrong number of irrational lines")
    for l in rational:
        vx, vy = l.direction.coords
        if not exact.canonical((vx, vy)) or not exact.norm_preserving(A, (vx, vy)):
            errors.append(f"line {(vx, vy)} fails exact verification")
        if l.eigenline != ((a * vx + b * vy) * vy == (c * vx + d * vy) * vx):
            errors.append(f"wrong eigenline flag on {(vx, vy)}")
    for l in sol.lines:
        if not l.rational and not _irrational_ok(A, l.slope):
            errors.append(f"irrational slope {l.slope} does not solve the form")
    return errors


def _irrational_ok(A, sl) -> bool:
    # direction (beta, alpha + sign*sqrt(s)) on (m-1)x^2 + 2p xy + (n-1)y^2 = 0;
    # rational part and sqrt(s) part must both vanish
    (a, b), (c, d) = A
    m, n, p = a * a + c * c, b * b + d * d, a * b + c * d
    be, al, s, sg = F(sl.beta), F(sl.alpha), sl.s, sl.sign
    rat_part = (m - 1) * be * be + 2 * p * be * al + (n - 1) * (al * al + s)
    rad_part = 2 * p * be * sg + (n - 1) * 2 * al * sg
    return math.isqrt(s) ** 2 != s and rat_part == 0 and rad_part == 0


def check_a2(p, res):
    exists, sol = res
    (a, b), (c, d) = p[1]
    errors = solution2(p[1], sol)
    if exists != (a * a + b * b + c * c + d * d >= 1 + (a * d - b * c) ** 2):
        errors.append("existence_condition disagrees with the entry inequality")
    return errors


def check_fam(p, res):
    _, name, transpose, a, c = p
    M, sol, (v1, v2, k) = res
    steps = {"lopez": (-1, -1), "minus-minus": (-1, -1), "minus-plus": (-1, 1),
             "plus-minus": (1, -1), "plus-plus": (1, 1)}[name]
    rows = ((a, a + steps[0]), (c, c + steps[1]))
    if transpose:
        rows = ((rows[0][0], rows[1][0]), (rows[0][1], rows[1][1]))
    if M.rows() != rows:
        return [f"family matrix {M.rows()} is not {rows}"]
    errors = solution2(rows, sol)
    lopez = ((a, a - 1), (c, c - 1))
    for v in (v1, v2):
        if not exact.canonical(v.coords) or not exact.norm_preserving(lopez, v.coords):
            errors.append(f"closed-form line {v} fails exact verification")
    if k != a + c - 1:
        errors.append(f"closed-form k = {k}, expected {a + c - 1}")
    return errors


def check_a3(p, res):
    _, rows, bound = p
    Q, exists, cls, red, obstruction, lines = res
    M = exact.cone3(rows)
    errors = []
    if Q.matrix != M:
        errors.append("cone_form differs from A^T A - I")
    if exists != (not _definite(M)):
        errors.append("existence3 disagrees with definiteness of the cone form")
    if (cls.kind.value == "empty") != _definite(M):
        errors.append(f"classification {cls.kind.value} disagrees with definiteness")
    coords = _coords(lines)
    errors += search3(rows, bound, coords)
    if red is None:
        if any(M[i][i] for i in range(3)):
            errors.append("pivot_reduce refused a matrix with a pivot axis")
    else:
        errors += _reduction(red, coords)
        f = red.discriminant_form
        if obstruction and coords:
            errors.append(f"2-adic obstruction certified, yet lines {coords[:2]} exist")
        if obstruction != (f.cxx % 4 == 3 and f.cyy % 4 == 3 and f.cxy % 4 == 0):
            errors.append("two_adic_obstruction disagrees with the mod-4 rule")
    return errors


def _definite(M) -> bool:
    minors = [M[i][i] for i in range(3)]
    minors += [M[i][i] * M[j][j] - M[i][j] ** 2 for i, j in ((0, 1), (0, 2), (1, 2))]
    minors.append(exact.det3(M))
    neg = [-x for x in minors[:3]] + minors[3:6] + [-minors[6]]
    return all(x > 0 for x in minors) or all(x > 0 for x in neg)


def _reduction(red, lines) -> list[str]:
    """Every solution line must satisfy the pivot formula exactly:
    (denominator * (v_k - linear . (v_j, v_o)))^2 == discriminant_form(v_j, v_o)."""
    f = red.discriminant_form
    if any(F(c).denominator != 1 for c in (f.cxx, f.cxy, f.cyy)):
        return ["discriminant form is not integral"]
    j, o = red.others
    for v in lines:
        y, z = v[j], v[o]
        root = red.denominator * (v[red.pivot] - red.linear[0] * y - red.linear[1] * z)
        if root * root != f.cxx * y * y + f.cxy * y * z + f.cyy * z * z:
            return [f"line {v} violates the pivot reduction"]
    return []


def check_search(p, lines):
    return search3(p[2], p[3], _coords(lines))


def check_sqrep(p, sols):
    return sqrep(p[1], p[2], p[3], sols)


def check_tor(p, res):
    """The power against repeated multiplication; each iterate must be an
    eigenvector of M for its eigenvalue (lam1 = q + sign(q)*sqrt(q^2+1), the
    expanding one, for the unstable iterate), and the two must be the n-th
    iterates of the program's eigenvectors u and w, which sum to 2*(1, -1):
    unstable / lam1^n + stable / lam2^n == (2, -2) exactly."""
    _, q, n = p
    P, unstable, stable = res
    errors = []
    M = ((q + 1, q), (q, q - 1))
    if P != exact.power2(M, n):
        errors.append("matrix_power differs from repeated multiplication")
    N = q * q + 1
    try:
        U, W = ([exact.in_field(x, N) for x in v] for v in (unstable, stable))
    except ValueError as e:
        return errors + [str(e)]
    root = F(1 if q > 0 else -1)
    lam1, lam2 = (F(q), root), (F(q), -root)
    for name, v, lam in (("unstable", U, lam1), ("stable", W, lam2)):
        Mv = [tuple(M[i][0] * a + M[i][1] * b for a, b in zip(v[0], v[1])) for i in range(2)]
        if Mv != [exact.qmul(lam, v[i], N) for i in range(2)]:
            errors.append(f"{name} iterate is not an eigenvector for its eigenvalue")
    # lam1 * lam2 = -1, so 1 / lam1^n = (-lam2)^n and 1 / lam2^n = (-lam1)^n
    inv1 = exact.qpow((-lam2[0], -lam2[1]), n, N)
    inv2 = exact.qpow((-lam1[0], -lam1[1]), n, N)
    total = [tuple(s + t for s, t in zip(exact.qmul(U[i], inv1, N), exact.qmul(W[i], inv2, N)))
             for i in range(2)]
    if total != [(2, 0), (-2, 0)]:
        errors.append(f"unstable/lam1^n + stable/lam2^n is {total}, not (2, -2): "
                      "the iterates are not the n-th")
    return errors


def _svg_ok(svg) -> bool:
    return svg.startswith('<?xml version="1.0"') and svg.endswith("</svg>\n")


def check_r2(p, res):
    lines, svg = res
    errors = []
    kind, expected, _ = exact.lines2(p[1])
    if sorted(_coords(lines)) != (expected if kind == "lines" else []):
        errors.append("scene lines differ from the rational solution lines")
    if not _svg_ok(svg) or "<!-- normlines {" not in svg:
        errors.append("scene2 is not a complete SVG document with metadata")
    elif svg.count("<path ") != 2 + len(lines):
        errors.append("scene2 draws the wrong number of paths")
    return errors


def check_r3(p, res):
    mesh, svg = res
    errors = []
    if not mesh.startswith("# normlines {") or "\nv " not in mesh or "\nf " not in mesh:
        errors.append("scene3 mesh lacks metadata, vertices or faces")
    if not _svg_ok(svg):
        errors.append("scene3 SVG is not a complete document")
    return errors


def check_pz(p, res):
    _, rows, line, G = p
    red, seed, points, lifted = res
    T = exact.cone_T(rows)
    errors = _reduction(red, [line])
    f = red.discriminant_form
    form = (int(f.cxx), int(f.cxy), int(f.cyy))
    a, b, c = form
    m, n, pp = seed
    if a * m * m + b * m * n + c * n * n != pp * pp:
        errors.append(f"seed {seed} does not solve the reduced form")
    expected_points = 0
    for s, t, (y, z, u) in points:
        want = ((a * m + b * n) * s * s + 2 * c * n * s * t - c * m * t * t,
                -a * n * s * s + 2 * a * m * s * t + (b * m + c * n) * t * t,
                pp * (a * s * s + b * s * t + c * t * t))
        if (y, z, u) != want:
            errors.append(f"family value at {(s, t)} is {(y, z, u)}, expected {want}")
        expected_points += bool(y or z)
    if len(lifted) != expected_points:
        errors.append("not every family point was lifted")
    k = red.pivot
    for (y, z, _u), lines in lifted:
        got = _coords(lines)
        for v in got:
            if not exact.canonical(v) or exact.quad3(T, v) != 0:
                errors.append(f"lifted line {v} fails exact verification")
        if len(set(got)) != len(got):
            errors.append(f"duplicate lifted lines {got}")
        want = set()
        for x in exact.pivot_roots(T, k, y, z):
            v = [F(0)] * 3
            v[k], v[red.others[0]], v[red.others[1]] = x, F(y), F(z)
            want.add(exact.primitive(v))
        if set(got) != want:
            errors.append(f"lifted lines {got} at {(y, z)}, expected {sorted(want)}")
        if errors:
            break
    return errors[:5]


CHECK = {"a2": check_a2, "fam": check_fam, "a3": check_a3, "tor": check_tor,
         "r2": check_r2, "r3": check_r3, "s3": check_search, "d3": check_search,
         "sq": check_sqrep, "sqd": check_sqrep, "pz": check_pz}
