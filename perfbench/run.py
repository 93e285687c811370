"""normlines benchmark: end-to-end and per-layer metrics for four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload analyze_batch --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, no threads; see BENCHMARK.json):
``cli_session``, ``analyze_batch``, ``search_sparse``, ``search_dense``.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it runs one stream of distinct ops in rounds of
op kinds, alternately untraced and with spans around every call into the
program, and reports the per-layer metrics (self time, calls and work
counters per layer, the time no span covers and the tracing overhead);
the spans are written to ``perfbench/out/``.  Every time is scaled to the
reference CPU speed measured between ops (``speed.py``).  Every op's
output is checked exactly (``check.py``); the last stdout line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``, preceded
by a stamp line and a table of every metric by name and unit.

Other commands: ``--list-metrics`` (every metric with its unit, direction
and the end-to-end metric each layer metric should move),
``--self-test`` (corrupted results must be caught), ``--baselines``
(start-up, import and per-call stage times in one table) and
``--record-digests`` (re-record the CLI digests for the default seed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[0] = ROOT
sys.path.insert(1, SRC)

from perfbench import cli_session, gen, speed, tracer  # noqa: E402

WORKLOADS = ("cli_session", "analyze_batch", "search_sparse", "search_dense")
HASHED_INPUTS = 256
OP_TIMEOUT_S = 30
SETUP_SAMPLES = 5
# op_tail_ms is a fixed percentile per workload: the highest of p75, p90,
# p95, p99 and p99.9 that leaves at least 10 ops beyond it in a 20 s run
# (about 90, 24000, 160 and 400 ops).  A fixed rank such as the 11th-longest
# op would be a different percentile in every run, as op counts differ.
TAIL_PERCENTILE = {"cli_session": 75, "analyze_batch": 99.9, "search_sparse": 90,
                   "search_dense": 95}
# time between two timings of the reference kernel: the host's speed state
# lasts seconds, and the kernel costs about 2 ms
MARK_EVERY_NS = 50_000_000
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
CATALOGUE = os.path.join(HERE, "metrics.json")


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


# -- set-up --------------------------------------------------------------


class InProcess:
    """Seeded problems run in this process through ops.py, checked by check.py."""

    def __init__(self, workload, seed):
        import normlines

        from perfbench import check, ops

        if not os.path.abspath(normlines.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"normlines was imported from {normlines.__file__}, not {SRC}")
        self.ops, self.check = ops, check
        self.stream = gen.Stream(workload, seed)
        self.inputs_sha256 = self.stream.digest(HASHED_INPUTS)
        self.round_ops = len(self.stream.round)
        self.modules: list[int] = []
        for j in range(len(self.stream.round)):  # warm-up: every kind of the round
            p = gen.warm(self.stream.problem(j))
            self.ops.RUN[p[0]](tracer.OFF, p)

    def op(self, i, tr):
        p = self.stream.problem(i)
        err = None
        c0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter_ns()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            try:
                with tr.op(i):
                    res = self.ops.RUN[p[0]](tr, p)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as e:  # a raise or timeout is a failed op; the run goes on
            err = [f"{type(e).__name__}: {e}"]
        t1 = time.perf_counter_ns()
        c1 = resource.getrusage(resource.RUSAGE_SELF)
        if err is None:
            err = self.check.CHECK[p[0]](p, res)
        cpu = c1.ru_utime + c1.ru_stime - c0.ru_utime - c0.ru_stime
        return t1 - t0, int(cpu * 1e9), err, p[0]

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self):
        pass


class CliSession:
    """Seeded CLI commands run as subprocesses; see cli_session.py."""

    def __init__(self, workload, seed):
        os.makedirs(OUT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=OUT)
        self.session = cli_session.Session(seed, SRC, self.workdir)
        self.inputs_sha256 = self.session.digest_inputs(HASHED_INPUTS)
        self.round_ops = cli_session.ROUND_OPS
        self.modules: list[int] = []  # modules loaded by the import, per traced op
        warm = cli_session.README[0]
        res = self.session.run(warm)
        if self.session.check(warm, res):
            raise SystemExit(f"warm-up command failed: {res['stderr'][-300:]!r}")

    def op(self, i, tr):
        args = self.session.command(i)
        res = self.session.run(args, probe=tr.enabled)
        if tr.enabled:
            tr.current_op = i
            root = tr.record("bench.op", res["start_ns"], res["end_ns"])
            line = res["stderr"].rstrip().rsplit(b"\n", 1)[-1]
            if line.startswith(b"perfbench-probe "):
                info = json.loads(line[len(b"perfbench-probe "):])
                res["stderr"] = res["stderr"][: res["stderr"].rfind(b"perfbench-probe ")]
                tr.record("cli.import", *info["import_ns"], root)
                tr.record(f"cli.main.{args[0]}", *info["main_ns"], root)
                self.modules.append(info["modules"])
            tr.count("cli.stdout_bytes", len(res["stdout"]))
            tr.count("render.bytes", sum(len(v) for v in res["files"].values()))
        err = self.session.check(args, res)
        return res["end_ns"] - res["start_ns"], res["cpu_ns"], err, args[0]

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def setup(workload, seed):
    """Build the workload's context; returns it with the set-up time scaled
    to the reference speed by a kernel timing taken right after."""
    t0 = time.perf_counter()
    ctx = (CliSession if workload == "cli_session" else InProcess)(workload, seed)
    raw = time.perf_counter() - t0
    return ctx, raw * speed.REFERENCE_NS / speed.reference_ns()


def setup_probe(workload, seed) -> float:
    """Scaled set-up time of a fresh interpreter (imports, inputs, warm-up)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


# -- timed loop ------------------------------------------------------------


def run_loop(ctx, seconds, tr=None):
    """Closed loop, one client: op i+1 starts when op i has returned and been
    checked.  Stops once the ops' own wall time reaches ``seconds``.

    With a tracer ``tr``, whole rounds of op kinds are traced or not in
    turn, so both sides meet distinct inputs of the same kinds under the
    same host speed.  Round r is traced when r has an odd number of one
    bits (the Thue-Morse sequence): a plain odd/even split would line up
    with inputs that cycle every two rounds, such as the plain and rotated
    planes of search_dense.  Returns the ops' wall and CPU times scaled to
    the reference speed, their kinds, whether each was traced, and the
    failures."""
    # compact per-op records, so that the run's own bookkeeping barely moves
    # peak_rss_mb however many ops a run completes
    walls, cpus, traced = array("q"), array("q"), array("b")
    kinds, failures = [], []
    clock = speed.Clock(MARK_EVERY_NS)
    spent, budget, i = 0, seconds * 1e9, 0
    while spent < budget:
        clock.maybe_mark(i)
        on = tr is not None and bin(i // ctx.round_ops).count("1") % 2 == 1
        wall, cpu, err, kind = ctx.op(i, tr if on else tracer.OFF)
        walls.append(wall)
        cpus.append(cpu)
        kinds.append(kind)
        traced.append(on)
        if err:
            failures.append((i, kind, err))
        spent += wall
        i += 1
    clock.mark(i)
    rss_mb = ctx.peak_rss_mb()  # before the lists below are built
    factors = clock.factors(i)
    return {"walls": [w * f for w, f in zip(walls, factors)],
            "cpus": [c * f for c, f in zip(cpus, factors)],
            "raw_walls": walls, "factors": factors, "kinds": kinds, "traced": traced,
            "failures": failures, "peak_rss_mb": rss_mb, "reference_ns": statistics.median(k for _, k in clock.marks)}


def kind_shares(walls, kinds) -> dict:
    """Share of the ops' (scaled) wall time taken by each op kind."""
    total, by_kind = sum(walls), {}
    for w, k in zip(walls, kinds):
        by_kind[k] = by_kind.get(k, 0) + w
    return {k: round(v / total, 4) for k, v in sorted(by_kind.items())}


def e2e_metrics(loop, setup_s, tail_percentile):
    """End-to-end metrics of one untraced run, every time scaled to the
    reference speed (``speed.py``)."""
    walls, cpus, n = loop["walls"], loop["cpus"], len(loop["walls"])
    tail_rank = max(1, math.ceil(tail_percentile / 100 * n)) - 1  # nearest rank
    info = {"ops": n, "tail_percentile": tail_percentile, "tail_ops_beyond": n - 1 - tail_rank,
            "kind_share": kind_shares(walls, loop["kinds"]),
            "reference_ns_median": loop["reference_ns"],
            "unscaled": {"ops_per_s": n / (sum(loop["raw_walls"]) / 1e9),
                         "op_p50_ms": statistics.median(loop["raw_walls"]) / 1e6}}
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": n / (sum(walls) / 1e9),
        "op_p50_ms": statistics.median(walls) / 1e6,
        "op_tail_ms": sorted(walls)[tail_rank] / 1e6,
        "cpu_ms_per_op": sum(cpus) / n / 1e6,
        "peak_rss_mb": loop["peak_rss_mb"],
        "ok_frac": (n - len(loop["failures"])) / n,
    }
    return metrics, info


def trace_overhead(loop) -> float:
    """Traced over untraced scaled op time, kind by kind, weighted by how
    often each kind ran, minus 1."""
    sums = {True: {}, False: {}}
    for w, k, on in zip(loop["walls"], loop["kinds"], loop["traced"]):
        total, count = sums[on].get(k, (0, 0))
        sums[on][k] = (total + w, count + 1)
    common = [k for k in sums[True] if k in sums[False]]
    weight = {k: sums[True][k][1] + sums[False][k][1] for k in common}
    on = sum(weight[k] * sums[True][k][0] / sums[True][k][1] for k in common)
    off = sum(weight[k] * sums[False][k][0] / sums[False][k][1] for k in common)
    return on / off - 1 if off else 0.0


SPAN_METRICS = ("planar.existence", "planar.solve_lines2", "planar.family",
                "cone.cone_form", "cone.existence3", "cone.classify_cone",
                "cone.pivot_reduce", "diophantine.two_adic", "torus.matrix_power",
                "torus.iterate", "cone.search", "diophantine.sqrep", "diophantine.piezas",
                "diophantine.lift", "render.scene2", "render.scene3", "cli.import")
CLI_SUBCOMMANDS = ("analyze2", "analyze3", "family", "dioph", "piezas", "torus", "render")
COUNTERS = ("cone.search_box_cells", "cone.search_lines", "diophantine.sqrep_box_cells",
            "diophantine.sqrep_solutions", "diophantine.lift_lines", "render.bytes",
            "cli.stdout_bytes")


def layer_metrics(tr, loop, modules):
    self_ns, calls = tr.self_times(loop["factors"])
    m = {}
    for name in SPAN_METRICS:
        m[f"{name}_ms"] = self_ns[name] / 1e6
        m[f"{name}_calls"] = calls[name]
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main_ms.{sub}"] = self_ns[f"cli.main.{sub}"] / 1e6
        m[f"cli.main_calls.{sub}"] = calls[f"cli.main.{sub}"]
    for name in COUNTERS:
        m[name] = tr.counts[name]
    m["cli.modules_loaded"] = statistics.median(modules) if modules else 0
    cells = tr.counts["cone.search_box_cells"]
    m["cone.search_lines_per_mcell"] = tr.counts["cone.search_lines"] / (cells / 1e6) if cells else 0
    m["bench.unattributed_ms"] = self_ns["bench.op"] / 1e6
    m["bench.trace_overhead_frac"] = trace_overhead(loop)
    return m


# -- stamp and output ------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git, if present."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def stamp() -> dict:
    from importlib import metadata
    import platform

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit()}


def catalogue() -> dict:
    """Names, units, directions and bounds from BENCHMARK.json, each entry
    joined with what metrics.json adds (the mix of a workload, the meaning
    of an end-to-end metric, what a layer metric should move)."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        cat = json.load(fh)
    with open(CATALOGUE, encoding="utf-8") as fh:
        extra = json.load(fh)
    for section, key in (("workloads", "mix"), ("end_to_end", "meaning"), ("per_layer", "moves")):
        for entry in cat[section]:
            entry[key] = extra[section][entry["name"]]
    return cat


def print_result(metrics, section, attempted, failed, failures):
    units = {m["name"]: m["unit"] for m in catalogue()[section]}
    for name in units:
        print(f"  {name:36s} {metrics[name]:>16.6g} {units[name]}")
    for i, kind, err in failures[:5]:
        print(f"failed op {i} ({kind}): {'; '.join(err)[:400]}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))


def run(args) -> int:
    cpu = speed.pin()
    ctx, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        ctx.close()
        print(json.dumps({"setup_s": own_setup}))
        return 0
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        if args.trace:
            tr = tracer.Tracer()
            loop = run_loop(ctx, args.seconds, tr)
            metrics = layer_metrics(tr, loop, ctx.modules)
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tr.write(path)
            info = {"ops": len(loop["walls"]), "ops_traced": sum(loop["traced"]),
                    "round_ops": ctx.round_ops, "spans_file": path}
            _print_layer_shares(tr, loop)
        else:
            loop = run_loop(ctx, args.seconds)
            setups = [own_setup] + [setup_probe(args.workload, args.seed)
                                    for _ in range(SETUP_SAMPLES - 1)]
            metrics, info = e2e_metrics(loop, setups, TAIL_PERCENTILE[args.workload])
            info["setup_samples_s"] = setups
    finally:
        signal.signal(signal.SIGALRM, old)
        ctx.close()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, inputs_sha256=ctx.inputs_sha256, pinned_cpu=cpu,
                reference_ns=speed.REFERENCE_NS, **stamp())
    print("stamp " + json.dumps(info, sort_keys=True))
    failures = loop["failures"]
    print_result(metrics, "per_layer" if args.trace else "end_to_end", len(loop["walls"]),
                 len(failures), failures)
    return 0


def _print_layer_shares(tr, loop):
    """Per-call self time of each layer and its share of the traced ops'
    time, and each op kind's share of the traced ops' time."""
    self_ns, calls = tr.self_times(loop["factors"])
    walls = [w for w, on in zip(loop["walls"], loop["traced"]) if on]
    kinds = [k for k, on in zip(loop["kinds"], loop["traced"]) if on]
    total = sum(walls)
    print(f"traced ops: {len(walls)}, median op {statistics.median(walls) / 1e6:.3f} ms "
          "(times scaled to the reference speed)")
    for name in sorted(self_ns, key=self_ns.get, reverse=True):
        print(f"  {name:28s} {self_ns[name] / calls[name] / 1e6:12.4f} ms/call "
              f"{calls[name]:8d} calls {100 * self_ns[name] / total:6.1f}% of op time")
    print("op kind shares of traced op time: " + json.dumps(kind_shares(walls, kinds)))


# -- auxiliary commands ------------------------------------------------------


def list_metrics() -> int:
    cat = catalogue()
    print("workloads:")
    for w in cat["workloads"]:
        print(f"  {w['name']:16s} {w['why']}")
        print(f"  {'':16s} mix: {w['mix']}")
    print("end-to-end metrics (--trace 0; times scaled to the reference speed):")
    for m in cat["end_to_end"]:
        print(f"  {m['name']:16s} {m['unit']:6s} {m['better']:6s} bound {m['bound']}: "
              f"{m['meaning']}")
    print("per-layer metrics (--trace 1):")
    for m in cat["per_layer"]:
        print(f"  {m['name']:34s} {m['unit']:8s} {m['better']:6s} moves {m['moves']}")
    return 0


def baselines() -> int:
    """Start-up, import and per-call stage times in one table: medians of
    the wall time and of the time scaled to the reference speed."""
    speed.pin()
    env = dict(os.environ, PYTHONPATH=SRC)

    def medians(samples, unit_scale):
        raw = [t for t, _ in samples]
        scaled = [t * speed.REFERENCE_NS / k for t, k in samples]
        return statistics.median(raw) * unit_scale, statistics.median(scaled) * unit_scale

    def wall(cmd, n=7):
        samples = []
        for _ in range(n):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *cmd], env=env, capture_output=True, check=True)
            samples.append((time.perf_counter() - t0, speed.reference_ns()))
        return medians(samples, 1e3)

    code = ("import time; t = time.perf_counter(); import normlines; "
            "print(time.perf_counter() - t)")
    imports = [(float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                     text=True, check=True).stdout), speed.reference_ns())
               for _ in range(7)]
    import normlines as nl

    A3, A2 = nl.PARAMETRIC_MATRIX, nl.Matrix2.from_rows([[4, 3], [-2, -3]])

    def per_call(fn, arg, n=200):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(arg)
            samples.append(((time.perf_counter() - t0) / n, speed.reference_ns()))
        return medians(samples, 1e6)

    rows = [
        ("bare interpreter, python -c pass", wall(["-c", "pass"]), "ms"),
        ("CLI call, normlines analyze2 4 3 -2 -3", wall(["-m", "normlines.cli", "analyze2",
                                                         "4", "3", "-2", "-3"]), "ms"),
        ("import normlines (fresh interpreter)", medians(imports, 1e3), "ms"),
        ("cone_form(PARAMETRIC_MATRIX)", per_call(nl.cone_form, A3), "us/call"),
        ("classify_cone(PARAMETRIC_MATRIX)", per_call(nl.classify_cone, A3), "us/call"),
        ("pivot_reduce(PARAMETRIC_MATRIX)", per_call(nl.pivot_reduce, A3), "us/call"),
        ("solve_lines2([[4,3],[-2,-3]])", per_call(nl.solve_lines2, A2), "us/call"),
    ]
    print("stamp " + json.dumps(dict(stamp(), reference_ns=speed.REFERENCE_NS), sort_keys=True))
    print(f"| {'measurement (median)':40s} | {'wall':>10s} | {'reference':>10s} | unit    |")
    print(f"|{'-' * 42}|{'-' * 12}|{'-' * 12}|---------|")
    for name, (raw, scaled), unit in rows:
        print(f"| {name:40s} | {raw:10.1f} | {scaled:10.1f} | {unit:7s} |")
    return 0


def self_test() -> int:
    """Corrupted results must fail the checks; the correct ones must pass."""
    from perfbench import selftest

    return selftest.main()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=cli_session.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--list-metrics", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--baselines", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.list_metrics:
        return list_metrics()
    if not os.path.isfile(os.path.join(SRC, "normlines", "__init__.py")):
        print(f"error: no normlines source under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.baselines:
        return baselines()
    if args.record_digests:
        cli_session.record_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
