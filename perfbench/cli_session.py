"""The ``cli_session`` workload: CLI commands run as fresh interpreters.

A session repeats rounds of 23 commands in a seeded order: every README
command verbatim (``normlines`` becomes ``python -m normlines.cli``) and
nine generated ``--json`` commands, one or two per subcommand, with
entries drawn from small stated ranges.  Outputs are checked against
digests recorded for the default seed (``cli_digests.json``; README
commands are the same for every seed) and, for every command, by exact
checks of the JSON report.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F

from . import check, exact, gen

DEFAULT_SEED = 1
RECORDED_ROUNDS = 12
TIMEOUT_S = 60
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "cli_digests.json")

README = [
    "analyze2 4 3 -2 -3",
    "analyze2 1 -8 0 3",
    "analyze3 1 1 1/2 1 1/2 1 1/2 1 1 --pivot z --bound 20",
    "analyze3 1 2 2 2 1 2 2 2 1 --bound 1",
    "analyze3 1 2 3 2 1 1 1 1 1 --bound 20",
    "family lopez 4 -2",
    "dioph 39 48 39 --bound 60",
    "dioph -3 2 8 --bound 3",
    "piezas 36 52 39 --seed 1 0 6 --st 1 1 --st 1 2 --matrix 1 2 3 3 4 5 2 3 4",
    "torus 2 10",
    "render scene2 4 3 -2 -3 --out first.svg",
    "render scene2 2 1 -3 -4 --lines --out second.svg",
    "render scene3 1 1 1/2 1 1/2 1 1/2 1 1 --mesh-out surfaces.obj --svg-out surfaces.svg",
    "render scene3 1 1 1/2 1 1/2 1 1/2 1 1 --cone --mesh-out surfaces_cone.obj "
    "--svg-out surfaces_cone.svg",
]
README = [cmd.split() for cmd in README]
GENERATED = ("analyze2", "analyze2", "analyze3", "family", "dioph", "piezas", "torus",
             "render2", "render3")
ROUND_OPS = len(README) + len(GENERATED)
OUT_FILES = {"--out", "--mesh-out", "--svg-out"}


def _tok(x) -> str:
    return str(F(x))


def _entries(rows):
    return [_tok(x) for row in rows for x in row]


def _reduction(A):
    """The default-pivot reduction of A's cone form, computed exactly as the
    ``piezas --matrix`` command requires its form argument to match."""
    M = exact.cone3(A)
    k = next(i for i in range(3) if M[i][i])
    j, o = [i for i in range(3) if i != k]
    raw = (M[k][j] ** 2 - M[k][k] * M[j][j],
           2 * (M[k][j] * M[k][o] - M[k][k] * M[j][o]),
           M[k][o] ** 2 - M[k][k] * M[o][o])
    L = math.lcm(*(c.denominator for c in raw))
    mu = next(m for m in range(1, L + 1) if (m * m) % L == 0)
    form = tuple(int(c * mu * mu) for c in raw)
    return k, (j, o), (-M[k][j] / M[k][k], -M[k][o] / M[k][k]), abs(M[k][k]) * mu, form


def generated(kind, rng):
    if kind == "analyze2":
        return ["analyze2", *_entries(gen.rows(rng, 2, 9, 6)), "--json"]
    if kind == "analyze3":
        return ["analyze3", *_entries(gen.rows(rng, 3, 4, 4)), "--bound",
                str(rng.randint(5, 20)), "--json"]
    if kind == "family":
        extra = ["--transpose"] if rng.random() < 0.5 else []
        return ["family", rng.choice(gen.FAMILY_NAMES), _tok(gen.rq(rng, 9, 4)),
                _tok(gen.rq(rng, 9, 4)), *extra, "--json"]
    if kind == "dioph":
        return ["dioph", *(str(rng.randint(-40, 40)) for _ in range(3)), "--d",
                str(rng.choice((1, 1, 2, 3))), "--bound", str(rng.randint(10, 40)), "--json"]
    if kind == "piezas":
        Q = gen.cayley(rng)
        A = gen.rotate(gen.PARAMETRIC, Q)
        v, r = rng.choice(((1, 1), (1, 2), (2, 1), (1, -1)))
        line = exact.primitive(exact.matvec3(exact.transpose3(Q), exact.parametric_point(v, r)))
        k, (j, o), lin, den, form = _reduction(A)
        u = abs(den * (line[k] - lin[0] * line[j] - lin[1] * line[o]))
        st = [str(rng.randint(-4, 4)) for _ in range(2 * rng.randint(1, 3))]
        pairs = [tok for i in range(0, len(st), 2) for tok in ("--st", st[i], st[i + 1])]
        return ["piezas", *map(str, form), "--seed", str(line[j]), str(line[o]), str(u),
                *pairs, "--matrix", *_entries(A), "--json"]
    if kind == "torus":
        return ["torus", str(rng.randint(1, 3000)), str(rng.randint(1, 40)), "--json"]
    if kind == "render2":
        while True:  # a scene requires a nonsingular matrix
            A = gen.rows(rng, 2, 9, 6)
            if A[0][0] * A[1][1] != A[0][1] * A[1][0]:
                break
        extra = ["--lines"] if rng.random() < 0.5 else []
        return ["render", "scene2", *_entries(A), *extra, "--samples",
                str(rng.choice((64, 128, 256))), "--out", "g2.svg", "--json"]
    while True:  # render3; a scene requires a nonsingular matrix
        A = gen.rows(rng, 3, 4, 4)
        if exact.det3(A) != 0:
            break
    nu = rng.randint(16, 48)
    extra = ["--cone"] if rng.random() < 0.5 else []
    return ["render", "scene3", *_entries(A), *extra, "--density", str(nu), str(nu // 2),
            "--mesh-out", "g3.obj", "--svg-out", "g3.svg", "--json"]


def session_round(seed: int, r: int) -> list[list[str]]:
    """Round r of the session: README and generated commands, seeded order."""
    rng = random.Random(f"cli_session/{seed}/{r}")
    cmds = [list(c) for c in README] + [generated(kind, rng) for kind in GENERATED]
    rng.shuffle(cmds)
    return cmds


class Session:
    def __init__(self, seed: int, src: str, workdir: str):
        self.seed, self.workdir = seed, workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.rounds: list[list[list[str]]] = []
        with open(DIGESTS, encoding="utf-8") as fh:
            self.digests = json.load(fh)

    def command(self, i: int) -> list[str]:
        r, j = divmod(i, ROUND_OPS)
        while len(self.rounds) <= r:
            self.rounds.append(session_round(self.seed, len(self.rounds)))
        return self.rounds[r][j]

    def digest_inputs(self, count: int) -> str:
        h = hashlib.sha256()
        for i in range(count):
            h.update(" ".join(self.command(i)).encode() + b"\n")
        return h.hexdigest()

    def run(self, args: list[str], probe: bool = False) -> dict:
        """Run one command in a fresh interpreter; with ``probe`` it runs under
        probe.py, which also reports import and ``cli.main`` times."""
        head = [os.path.join(HERE, "probe.py")] if probe else ["-m", "normlines.cli"]
        for name in self._outputs(args):
            if os.path.exists(name):
                os.remove(name)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter_ns()
        try:
            proc = subprocess.run([sys.executable, *head, *args], cwd=self.workdir,
                                  env=self.env, capture_output=True, timeout=TIMEOUT_S)
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            rc, out, err = None, b"", b"timeout"
        t1 = time.perf_counter_ns()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        files = {}
        for name in self._outputs(args):
            if os.path.exists(name):
                with open(name, "rb") as fh:
                    files[os.path.basename(name)] = fh.read()
        return {"start_ns": t0, "end_ns": t1, "cpu_ns": int(cpu * 1e9), "rc": rc,
                "stdout": out, "stderr": err, "files": files}

    def _outputs(self, args):
        return [os.path.join(self.workdir, args[i + 1])
                for i, a in enumerate(args[:-1]) if a in OUT_FILES]

    def check(self, args: list[str], res: dict) -> list[str]:
        if res["rc"] != 0:
            return [f"exit code {res['rc']}: {res['stderr'][-300:]!r}"]
        errors = []
        want = self.digests.get(" ".join(args))
        if want is not None and want != record(res):
            errors.append("stdout or output files differ from the recorded digest")
        if "--json" in args:
            errors += check_report(args, res)
        return errors


def record(res: dict) -> dict:
    return {"rc": res["rc"], "stdout": hashlib.sha256(res["stdout"]).hexdigest(),
            "files": {k: hashlib.sha256(v).hexdigest() for k, v in sorted(res["files"].items())}}


def _fr(tokens):
    return [F(t) for t in tokens]


def check_report(args, res) -> list[str]:
    """Exact checks of a ``--json`` report against the command's inputs."""
    text = res["stdout"].decode()
    try:
        rep = json.loads(text)
    except ValueError:
        return ["stdout is not JSON"]
    if text != json.dumps(rep, sort_keys=True, indent=2) + "\n":
        return ["JSON report is not canonical"]
    cmd = args[0]
    if cmd in ("analyze2", "family"):
        A = tuple(tuple(F(x) for x in row) for row in rep["matrix"])
        if cmd == "analyze2" and A != (tuple(_fr(args[1:3])), tuple(_fr(args[3:5]))):
            return ["report matrix differs from the input"]
        kind, expected, irrational = exact.lines2(A)
        got = sorted(tuple(l["direction"]) for l in rep["lines"] if l["rational"])
        if rep["kind"] != kind or got != expected or \
                len(rep["lines"]) - len(got) != irrational:
            return [f"lines {got} ({rep['kind']}), expected {expected} ({kind})"]
        return [f"line {v} fails exact verification" for v in got
                if not exact.norm_preserving(A, v)]
    if cmd == "analyze3":
        A = tuple(tuple(_fr(args[1 + 3 * i:4 + 3 * i])) for i in range(3))
        bound = int(args[args.index("--bound") + 1])
        if rep["lines"] is None:
            return [] if exact.cone_T(A) == ((0,) * 3,) * 3 else ["lines missing"]
        return check.search3(A, bound, [tuple(v) for v in rep["lines"]])
    if cmd == "dioph":
        sols = [tuple(s) for s in rep["solutions"]]
        form = tuple(int(t) for t in args[1:4])
        return check.sqrep(form, rep["d"], rep["bound"], sols)
    if cmd == "piezas":
        return _check_piezas(args, rep)
    if cmd == "torus":
        q, n = rep["q"], rep["n"]
        M = ((q + 1, q), (q, q - 1))
        errors = [] if tuple(map(tuple, rep["power"])) == exact.power2(M, n) else [
            "matrix power differs from repeated multiplication"]
        return errors + [f"line {v} fails exact verification" for v in rep["lines"]
                         if not (exact.canonical(v) and exact.norm_preserving(M, v))]
    errors = []  # render
    for key, name in (("bytes", "out"), ("mesh_bytes", "mesh_out"), ("svg_bytes", "svg_out")):
        if key in rep:
            data = res["files"].get(rep[name])
            if data is None or len(data) != rep[key]:
                errors.append(f"{rep[name]} missing or not {rep[key]} bytes")
            elif rep[name].endswith(".svg") and not data.endswith(b"</svg>\n"):
                errors.append(f"{rep[name]} is not a complete SVG document")
    return errors


def _check_piezas(args, rep) -> list[str]:
    a, b, c = rep["form"]
    m, n, p = rep["seed"]
    A = tuple(tuple(F(x) for x in row) for row in rep["matrix"])
    T = exact.cone_T(A)
    k = "xyz".index(rep["pivot"])
    j, o = [i for i in range(3) if i != k]
    for pair in rep["pairs"]:
        s, t = pair["st"]
        want = [(a * m + b * n) * s * s + 2 * c * n * s * t - c * m * t * t,
                -a * n * s * s + 2 * a * m * s * t + (b * m + c * n) * t * t,
                p * (a * s * s + b * s * t + c * t * t)]
        if pair["solution"] != want:
            return [f"family value at {(s, t)} is {pair['solution']}, expected {want}"]
        y, z, _ = want
        if pair["lines"] is None:
            if y or z:
                return [f"family point {want} was not lifted"]
            continue
        expected = set()
        for x in exact.pivot_roots(T, k, y, z):
            v = [F(0)] * 3
            v[k], v[j], v[o] = x, F(y), F(z)
            expected.add(exact.primitive(v))
        got = [tuple(v) for v in pair["lines"]]
        if len(got) != len(set(got)) or set(got) != expected:
            return [f"lifted lines {got}, expected {sorted(expected)}"]
    return []


def record_digests() -> None:
    """Write cli_digests.json from the current program: README commands and
    the first RECORDED_ROUNDS rounds of the default seed."""
    root = os.path.dirname(HERE)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        s = Session(DEFAULT_SEED, os.path.join(root, "src"), workdir)
        cmds = {" ".join(c): c for c in README}
        for r in range(RECORDED_ROUNDS):
            cmds.update((" ".join(c), c) for c in session_round(DEFAULT_SEED, r))
        out = {}
        for key, args in sorted(cmds.items()):
            res = s.run(args)
            errors = check_report(args, res) if "--json" in args and res["rc"] == 0 else []
            if res["rc"] != 0 or errors:
                raise SystemExit(f"refusing to record a failing command: {key}: "
                                 f"{errors or res['stderr'][-300:]}")
            out[key] = record(res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(out)} command digests in {DIGESTS}")

