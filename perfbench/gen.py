"""Seeded input generation.

Problem ``i`` of a workload depends only on (workload, seed, i): its kind
comes from the workload's fixed round of kinds, its random draws from
``random.Random("<workload>/<seed>/<i>")``, and its size (a search bound,
a torus ``q`` and exponent ``n``) from a low-discrepancy sequence with a
per-seed offset, so every run covers the stated size range evenly whatever
the seed.  Inputs
are drawn from the stated ranges and never filtered by how slow they are;
the only rejections are of inputs the program must refuse (a singular
matrix for a scene).

Everything here is plain data (ints, Fractions, tuples); the program's
own types are built inside the timed op.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction as F

from . import exact

PHI = (5 ** 0.5 - 1) / 2
# The torus exponent steps by another irrational, so that the (q, n) pairs
# spread over the plane instead of lying on one line.
STEPS = {"tor_n": 2 ** 0.5 - 1}

PARAMETRIC = ((1, 2, 3), (2, 1, 1), (1, 1, 1))
SYMMETRIC_HALF = ((1, 1, F(1, 2)), (1, F(1, 2), 1), (F(1, 2), 1, 1))
DOUBLE_PLANE = ((1, 2, 2), (2, 1, 2), (2, 2, 1))
PLANE_PAIR = ((2, 0, 0), (0, 1, 0), (0, 0, F(1, 2)))
FAMILY_NAMES = ("lopez", "minus-minus", "minus-plus", "plus-minus", "plus-plus")


def interleave(counts: dict) -> tuple:
    """One round holding each kind ``counts[kind]`` times, spread evenly:
    the j-th of c occurrences sits at (j + 1/2) / c of the round."""
    slots = sorted(((j + 0.5) / c, kind) for kind, c in counts.items() for j in range(c))
    return tuple(kind for _, kind in slots)


# One round of op kinds per workload; problem i has kind ROUNDS[w][i % len].
# No record of real use exists, so the counts follow one rule: every layer
# that the workload's end-to-end metrics are meant to show carries a stated
# share of op time, at least a tenth, measured on a 2-vCPU Intel Xeon
# (Python 3.11.7; each run prints the measured shares as ``kind_share``).
# analyze_batch: the analyze3 stages (a3, cone and 2-adic layers) about 40 %,
# torus powers and iterates (tor) about 25 %, scenes (r2, r3) about 15 %,
# planar analyses and family members (a2, fam) about 15 %.  search_sparse:
# irreducible-cone searches (s3) about 2/3, sparse forms (sq) about 1/3.
# search_dense: plane searches (d3) about 2/3, dense forms (sqd) about 1/4,
# lifted families (pz) about 1/7.
ROUNDS = {
    "analyze_batch": interleave({"a2": 80, "fam": 30, "a3": 40, "r2": 20, "r3": 4, "tor": 1}),
    "search_sparse": ("s3", "sq", "s3", "s3", "sq"),
    "search_dense": ("d3", "sqd", "d3", "pz"),
}

# Stated ranges (inclusive) of the sized parameters.
RANGES = {
    "a3_bound": (3, 8),
    "tor_q": (2, 20000),
    "tor_n": (1, 100),
    "s3_bound": (100, 200),
    "sq_bound": (200, 400),
    "d3_bound": (30, 70),
    "sqd_bound": (120, 240),
    "pz_grid": (4, 7),
}


def rq(rng: random.Random, num: int, dens: int) -> F:
    """A rational p/q with |p| <= num and 1 <= q <= dens."""
    return F(rng.randint(-num, num), rng.randint(1, dens))


def rows(rng, n, num, dens):
    return tuple(tuple(rq(rng, num, dens) for _ in range(n)) for _ in range(n))


HALVES = (F(-1), F(-1, 2), F(0), F(1, 2), F(1))
# Skew parameters of the (3, 4, 5) rotations about the x, y and z axes.
AXIS_ROTATIONS = ((F(1, 2), 0, 0), (0, F(1, 2), 0), (0, 0, F(1, 2)))


def cayley(rng=None, params=None) -> tuple:
    """A rational orthogonal matrix (I - S)(I + S)^-1 for the skew matrix S
    with entries ``params`` = (s1, s2, s3), or three random entries of HALVES."""
    s1, s2, s3 = params or (rng.choice(HALVES) for _ in range(3))
    S = ((0, -s3, s2), (s3, 0, -s1), (-s2, s1, 0))
    I = exact.identity3()
    return exact.matmul3(exact.matsub3(I, S), exact.inv3(exact.matadd3(I, S)))


def rotate(A, Q):
    """Q^T A Q: v solves it exactly when Q v solves A."""
    return exact.matmul3(exact.transpose3(Q), exact.matmul3(A, Q))


class Stream:
    """The deterministic problem sequence of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.round = ROUNDS[workload]
        base = random.Random(f"{workload}/{seed}")
        self.offset = {name: base.random() for name in sorted(RANGES)}
        # The torus q grid is the same for every seed: the cost of a torus op
        # depends on how q^2+1 factors, so a seeded grid would move the run's
        # total and its tail by chance; the seed still offsets the exponent n.
        self.offset["tor_q"] = 0.5
        self.occ = [self.round[:j].count(k) for j, k in enumerate(self.round)]
        self.per_round = {k: self.round.count(k) for k in self.round}

    def spread(self, name: str, k: int) -> int:
        """k-th value of a low-discrepancy sequence over RANGES[name]."""
        lo, hi = RANGES[name]
        step = STEPS.get(name, PHI)
        return lo + int(((self.offset[name] + k * step) % 1.0) * (hi - lo + 1))

    def problem(self, i: int) -> tuple:
        j = i % len(self.round)
        kind = self.round[j]
        k = (i // len(self.round)) * self.per_round[kind] + self.occ[j]
        rng = random.Random(f"{self.workload}/{self.seed}/{i}")
        return _GEN[kind](self, rng, k)

    def digest(self, count: int) -> str:
        h = hashlib.sha256()
        for i in range(count):
            h.update(repr(self.problem(i)).encode() + b"\n")
        return h.hexdigest()


def _a2(st, rng, k):
    return ("a2", rows(rng, 2, 9, 6))


def _fam(st, rng, k):
    return ("fam", rng.choice(FAMILY_NAMES), rng.random() < 0.5, rq(rng, 9, 4), rq(rng, 9, 4))


def _a3(st, rng, k):
    return ("a3", rows(rng, 3, 4, 4), st.spread("a3_bound", k))


def _tor(st, rng, k):
    return ("tor", st.spread("tor_q", k), st.spread("tor_n", k))


def _r2(st, rng, k):
    while True:  # a 2d scene requires a nonsingular matrix
        A = rows(rng, 2, 9, 6)
        if A[0][0] * A[1][1] != A[0][1] * A[1][0]:
            return ("r2", A, rng.choice((32, 64, 128, 256)))


def _r3(st, rng, k):
    while True:  # a 3d scene requires a nonsingular matrix
        A = rows(rng, 3, 4, 4)
        if exact.det3(A) != 0:
            return ("r3", A, rng.random() < 0.5, rng.randint(8, 24))


def _s3(st, rng, k):
    """Irreducible cones: the paper's parametric and symmetric-half
    matrices, then random rational matrices with a rank-3 indefinite cone."""
    label = ("parametric", "symmetric_half", "random")[k % 3]
    if label == "parametric":
        A = PARAMETRIC
    elif label == "symmetric_half":
        A = SYMMETRIC_HALF
    else:
        while True:
            A = rows(rng, 3, 5, 6)
            if exact.irreducible_cone(A):
                break
    return ("s3", label, A, st.spread("s3_bound", k))


def _sq(st, rng, k):
    """Forms with few or no square values: 39 48 39, forms the 2-adic
    certificate rules out (a = c = 3 mod 4, b = 0 mod 4), random forms."""
    which = k % 3
    if which == 0:
        form = (39, 48, 39)
    elif which == 1:
        form = (4 * rng.randint(-15, 14) + 3, 4 * rng.randint(-15, 15),
                4 * rng.randint(-15, 14) + 3)
    else:
        form = tuple(rng.randint(-60, 60) for _ in range(3))
    return ("sq", form, rng.choice((1, 1, 2, 3)), st.spread("sq_bound", k))


def _d3(st, rng, k):
    """Double planes and plane pairs, plain or in a rational orthonormal basis.

    The bases cycle through the (3, 4, 5) rotations about the three axes for
    every seed: how many lattice points a rotated plane carries depends on
    the rotation's arithmetic, so a seeded choice would move the output
    volume by chance; the seed moves the bounds."""
    base = (DOUBLE_PLANE, PLANE_PAIR)[k % 2]
    label = ("double_plane", "plane_pair")[k % 2]
    if (k // 2) % 2:
        Q = cayley(params=AXIS_ROTATIONS[(k // 4) % 3])
        base, label = rotate(base, Q), label + "_rotated"
    return ("d3", label, base, st.spread("d3_bound", k))


def _sqd(st, rng, k):
    """Forms with many square values: 1 0 1, -3 2 8, and sums of two
    squares of random integer linear forms."""
    which = k % 3
    if which == 0:
        form = (1, 0, 1)
    elif which == 1:
        form = (-3, 2, 8)
    else:
        while True:
            r, s, t, w = (rng.randint(-3, 3) for _ in range(4))
            if r * w - s * t != 0:
                break
        form = (r * r + t * t, 2 * (r * s + t * w), s * s + w * w)
    return ("sqd", form, 1, st.spread("sqd_bound", k))


def _pz(st, rng, k):
    """The parametric matrix in a random rational orthonormal basis, with a
    known solution line to seed the two-parameter family."""
    Q = cayley(rng)
    v, r = rng.choice(((1, 1), (1, 2), (2, 1), (1, -1), (1, 3), (3, 1)))
    w = exact.parametric_point(v, r)
    line = exact.primitive(exact.matvec3(exact.transpose3(Q), w))
    return ("pz", rotate(PARAMETRIC, Q), line, st.spread("pz_grid", k))


_GEN = {"a2": _a2, "fam": _fam, "a3": _a3, "tor": _tor, "r2": _r2, "r3": _r3,
        "s3": _s3, "sq": _sq, "d3": _d3, "sqd": _sqd, "pz": _pz}


def warm(p: tuple) -> tuple:
    """The warm-up version of a problem: small, except that dense searches run
    at the top of their bound range.  Their arrays then reach full size before
    timing, and glibc's malloc, which raises its mmap threshold to the largest
    block freed so far, treats later arrays alike whatever the order of sizes."""
    small = {"a3": 3, "s3": 4, "d3": RANGES["d3_bound"][1], "sq": 8, "sqd": 8, "r2": 32,
             "r3": 8, "pz": 1}
    if p[0] == "tor":
        return ("tor", 2, 3)
    return p[:-1] + (small[p[0]],) if p[0] in small else p
