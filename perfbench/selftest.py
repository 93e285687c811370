"""Self-test of the output checks: ``python3 perfbench/run.py --self-test``.

Real program outputs must pass; each corrupted copy (a dropped line, an
extra non-solution, a flipped sign, a duplicate, a wrong CLI digest or
exit code, torus iterates of the wrong exponent or swapped) must fail.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import normlines as nl

from . import check, cli_session, exact, gen, ops, tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Report:
    def __init__(self):
        self.bad = []

    def expect(self, name, errors, should_fail):
        ok = bool(errors) == should_fail
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {errors[0] if errors else 'passes'}")
        if not ok:
            self.bad.append(name)


def _non_solution(T, bound, taken):
    return next(v for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3))
                if exact.quad3(T, v) != 0 and v not in taken and max(v) <= bound)


def _search_cases(rep, label, A, bound):
    lines = [tuple(d.coords) for d in ops.op_search(tracer.OFF, ("s3", label, A, bound))]
    rep.expect(f"{label}: program output", check.search3(A, bound, lines), False)
    rep.expect(f"{label}: dropped line", check.search3(A, bound, lines[:-1]), True)
    extra = sorted(lines + [_non_solution(exact.cone_T(A), bound, lines)])
    rep.expect(f"{label}: extra non-solution", check.search3(A, bound, extra), True)
    flipped = [tuple(-c for c in lines[0])] + lines[1:]
    rep.expect(f"{label}: flipped sign", check.search3(A, bound, flipped), True)
    rep.expect(f"{label}: duplicate line", check.search3(A, bound, lines + lines[-1:]), True)


def _sqrep_cases(rep):
    p = ("sqd", (-3, 2, 8), 1, 12)
    sols = ops.op_sqrep(tracer.OFF, p)
    rep.expect("sqrep: program output", check.check_sqrep(p, sols), False)
    rep.expect("sqrep: dropped solution", check.check_sqrep(p, sols[1:]), True)
    i = next(i for i, s in enumerate(sols) if s[2])
    y, z, u = sols[i]
    extra = sols[:i] + [(y, z, u + 1)] + sols[i:]
    rep.expect("sqrep: extra non-solution", check.check_sqrep(p, extra), True)
    flipped = sols[:i] + [(y, z, -u)] + sols[i + 1:]
    rep.expect("sqrep: flipped sign", check.check_sqrep(p, flipped), True)


def _lift_cases(rep):
    p = gen.Stream("search_dense", 1).problem(3)
    p = p[:-1] + (2,)
    red, seed, points, lifted = ops.op_pz(tracer.OFF, p)
    rep.expect("lift: program output", check.check_pz(p, (red, seed, points, lifted)), False)
    T = exact.cone_T(p[1])
    i = next(i for i, (_, ls) in enumerate(lifted) if len(ls) == 2)
    pt, ls = lifted[i]
    wrap = [SimpleNamespace(coords=tuple(d.coords)) for d in ls]

    def with_lines(new):
        return (red, seed, points, lifted[:i] + [(pt, new)] + lifted[i + 1:])

    rep.expect("lift: dropped line", check.check_pz(p, with_lines(wrap[:1])), True)
    other = SimpleNamespace(coords=_non_solution(T, 9, []))
    rep.expect("lift: extra non-solution", check.check_pz(p, with_lines(wrap + [other])), True)
    flipped = SimpleNamespace(coords=tuple(-c for c in wrap[0].coords))
    rep.expect("lift: flipped sign", check.check_pz(p, with_lines([flipped, wrap[1]])), True)


def _planar_cases(rep):
    p = ("a2", ((4, 3), (-2, -3)))
    exists, sol = ops.op_a2(tracer.OFF, p)
    rep.expect("analyze2: program output", check.check_a2(p, (exists, sol)), False)
    dropped = SimpleNamespace(kind=sol.kind, lines=sol.lines[:1])
    rep.expect("analyze2: dropped line", check.check_a2(p, (exists, dropped)), True)
    rep.expect("analyze2: wrong existence", check.check_a2(p, (not exists, sol)), True)


def _cli_cases(rep):
    workdir = os.path.join(ROOT, "perfbench", "out", "selftest")
    os.makedirs(workdir, exist_ok=True)
    s = cli_session.Session(cli_session.DEFAULT_SEED, os.path.join(ROOT, "src"), workdir)
    for args in (cli_session.README[0], s.command(0), s.command(1)):
        name = "cli " + " ".join(args[:2])
        res = s.run(args)
        rep.expect(f"{name}: program output", s.check(args, res), False)
        rep.expect(f"{name}: wrong exit code", s.check(args, dict(res, rc=1)), True)
        if " ".join(args) in s.digests:
            bad = dict(res, stdout=res["stdout"] + b" ")
            rep.expect(f"{name}: changed stdout", s.check(args, bad), True)
    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))
    os.rmdir(workdir)


def _torus_cases(rep):
    p = ("tor", 5, 7)
    P, unstable, stable = ops.op_tor(tracer.OFF, p)
    rep.expect("torus: program output", check.check_tor(p, (P, unstable, stable)), False)
    rep.expect("torus: swapped stable and unstable",
               check.check_tor(p, (P, stable, unstable)), True)
    later = (P, nl.unstable_iterate(5, 8), nl.stable_iterate(5, 8))
    rep.expect("torus: iterates of the wrong n", check.check_tor(p, later), True)
    rep.expect("torus: unstable iterate of the wrong n",
               check.check_tor(p, (P, later[1], stable)), True)
    start = (P, nl.unstable_iterate(5, 0), nl.stable_iterate(5, 0))
    rep.expect("torus: eigenvectors, not iterates", check.check_tor(p, start), True)
    rep.expect("torus: wrong power", check.check_tor(p, (nl.matrix_power(
        nl.autom_family(5), 6), unstable, stable)), True)


def main() -> int:
    rep = Report()
    _search_cases(rep, "parametric", gen.PARAMETRIC, 30)
    _search_cases(rep, "double_plane", gen.DOUBLE_PLANE, 6)
    _sqrep_cases(rep)
    _lift_cases(rep)
    _planar_cases(rep)
    _cli_cases(rep)
    _torus_cases(rep)
    print("self-test " + ("passed" if not rep.bad else f"FAILED: {rep.bad}"))
    return 1 if rep.bad else 0
