"""One op per generated problem: the benchmark's calls into the program.

Each call into a public function of a layer is wrapped in a span named
``<layer>.<stage>``.  An op returns the program's raw results; checking
them is left to :mod:`check`, outside the timed region.  Work counters
(cells, lines, bytes) are computed from the inputs and results, never
read from the program.
"""

from __future__ import annotations

import normlines as nl


def _m2(rows):
    return nl.Matrix2.from_rows(rows)


def _m3(rows):
    return nl.Matrix3.from_rows(rows)


def op_a2(tr, p):
    A = _m2(p[1])
    with tr.span("planar.existence"):
        exists = nl.existence_condition(A)
    with tr.span("planar.solve_lines2"):
        sol = nl.solve_lines2(A)
    return exists, sol


def op_fam(tr, p):
    _, name, transpose, a, c = p
    with tr.span("planar.family"):
        M = nl.family_matrix(nl.FAMILY_VARIANTS[name].with_transpose(transpose), a, c)
    with tr.span("planar.solve_lines2"):
        sol = nl.solve_lines2(M)
    with tr.span("planar.family"):
        closed = nl.family_solutions(a, c)
    return M, sol, closed


def op_a3(tr, p):
    """The analyze3 stage sequence, then a small-bound integer search."""
    _, rows, bound = p
    A = _m3(rows)
    with tr.span("cone.cone_form"):
        Q = nl.cone_form(A)
    with tr.span("cone.existence3"):
        exists = nl.existence3(A)
    with tr.span("cone.classify_cone"):
        cls = nl.classify_cone(A)
    try:
        with tr.span("cone.pivot_reduce"):
            red = nl.pivot_reduce(A)
    except ValueError:  # every squared coefficient vanishes: no pivot axis
        red = None
    obstruction = None
    if red is not None:
        f = red.discriminant_form
        with tr.span("diophantine.two_adic"):
            obstruction = nl.two_adic_obstruction(
                nl.IntBinaryForm(int(f.cxx), int(f.cxy), int(f.cyy)))
    lines = _search(tr, A, bound)
    return Q, exists, cls, red, obstruction, lines


def _search(tr, A, bound):
    with tr.span("cone.search"):
        lines = nl.integer_line_search3(A, bound)
    tr.count("cone.search_box_cells", (bound + 1) * (2 * bound + 1) ** 2)
    tr.count("cone.search_lines", len(lines))
    return lines


def op_search(tr, p):
    return _search(tr, _m3(p[2]), p[3])


def op_sqrep(tr, p):
    _, form, d, bound = p
    inst = nl.SquareRepInstance(nl.IntBinaryForm(*form), d)
    with tr.span("diophantine.sqrep"):
        sols = nl.square_rep_bruteforce(inst, bound)
    tr.count("diophantine.sqrep_box_cells", (2 * bound + 1) ** 2)
    tr.count("diophantine.sqrep_solutions", len(sols))
    return sols


def op_tor(tr, p):
    _, q, n = p
    with tr.span("torus.matrix_power"):
        P = nl.matrix_power(nl.autom_family(q), n)
    with tr.span("torus.iterate"):
        unstable = nl.unstable_iterate(q, n)
    with tr.span("torus.iterate"):
        stable = nl.stable_iterate(q, n)
    return P, unstable, stable


def op_r2(tr, p):
    _, rows, samples = p
    A = _m2(rows)
    with tr.span("planar.solve_lines2"):
        lines = tuple(nl.solve_lines2(A).rational_directions())
    with tr.span("render.scene2"):
        svg = nl.render_scene2(A, lines, samples=samples)
    tr.count("render.bytes", len(svg))
    return lines, svg


def op_r3(tr, p):
    _, rows, cone, nu = p
    with tr.span("render.scene3"):
        mesh, svg = nl.render_scene3(_m3(rows), include_cone=cone, density=(nu, nu // 2))
    tr.count("render.bytes", len(mesh) + len(svg))
    return mesh, svg


def op_pz(tr, p):
    """Pivot-reduce, seed the two-parameter family with a known line, evaluate
    it on an (s, t) grid and lift every point back to lines of the matrix."""
    _, rows, line, G = p
    A = _m3(rows)
    with tr.span("cone.pivot_reduce"):
        red = nl.pivot_reduce(A)
    j, o = red.others
    y, z = line[j], line[o]
    base = red.linear[0] * y + red.linear[1] * z
    u = abs(red.denominator * (line[red.pivot] - base))
    form = red.discriminant_form
    inst = nl.SquareRepInstance(nl.IntBinaryForm(int(form.cxx), int(form.cxy), int(form.cyy)))
    with tr.span("diophantine.piezas"):
        fam = nl.piezas_family(inst, (y, z, int(u)))
        points = [(s, t, fam.evaluate(s, t))
                  for s in range(-G, G + 1) for t in range(-G, G + 1)]
    lifted = []
    with tr.span("diophantine.lift"):
        for s, t, (py, pz, pu) in points:
            if py or pz:
                lifted.append(((py, pz, abs(pu)), nl.lift_to_lines(A, red, (py, pz, abs(pu)))))
    tr.count("diophantine.lift_lines", sum(len(ls) for _, ls in lifted))
    return red, fam.seed, points, lifted


RUN = {"a2": op_a2, "fam": op_fam, "a3": op_a3, "tor": op_tor, "r2": op_r2,
       "r3": op_r3, "s3": op_search, "d3": op_search, "sq": op_sqrep,
       "sqd": op_sqrep, "pz": op_pz}
