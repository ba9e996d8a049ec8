"""Benchmark of the pathramsey command line and library paths.

Run one workload from the repository root, or all three with
`--workload all`, each in its own process so that peak memory belongs
to it alone:

    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The program is imported from `src/` of the same checkout and driven
in-process through `pathramsey.cli.main(argv)`, plus two library paths
that have no command (`count_zero_pairs` and the pairing simplicity
sweep).  Inputs are generated from `--seed` into `bench/_run/`; the
program sees only those files and its argv.  Every output is checked by
`checks.py`, untimed; a failed check counts against `error_rate`.
Passes repeat until the timed passes add up to `--seconds`, each after
a host-speed probe (`probe.py`).

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics: `setup_s` (median of repeated set-ups, each scaled
to the reference host speed by a set-up probe timed beside it),
`pass_norm` (total pass time over total probe time) and `peak_rss_mb`.
With `--trace 1` passes alternate untraced and traced and it holds the
per-layer metrics instead (see `tracer.py`).  The lines above it give
the raw set-up and pass times, per-command medians and the error rate.
A run record, and in traced runs the spans, go to `bench/_run/records/`.

Peak RSS is meant to be the program's: input generation, the probes
and the output checks run in forked children, and a run in which a
probe or a check still raised this process's peak by more than
`RSS_SLACK_KIB` is reported as not correct.
"""

import argparse
import functools
import gc
import hashlib
import io
import itertools
import json
import os
import pickle
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout

import numpy

import checks
import probe
from tracer import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.0, 60
MIN_PASSES = 3
# The benchmark's own small objects in this process may raise the peak
# RSS this much; more, and the run's peak is not the program's.
RSS_SLACK_KIB = 1024

# Why each workload exists; BENCHMARK.json carries the same lines.
WORKLOADS = {
    "certify-large": dict(
        n=100_000, m=200_000, r=11, d=4.0, beta=0.5,
        why="color --r 11 --d 4.0 on G(n=1e5, m=2e5): threshold n*d/2 = m, so "
            "trial 1 succeeds; parse, HostGraph, colouring, confinement BFS and "
            "certificate write dominate"),
    "certify-search": dict(
        n=20_000, m=40_000, r=11, trials=200,
        why="color --trials 200 on G(n=2e4, m=4e4) with the threshold at 0.9x "
            "the per-line mean: all 200 partitions fail (exit 3), line counts "
            "dominate, colouring never runs"),
    "upper-bound": dict(
        r_values=(3, 4, 5, 6, 7, 8), side=133, degree=93, s=9, samples=100_000,
        simple_side=20, simple_degree=3, zero_s=5,
        sweep_side=500, sweep_draws=2000, sweep_degrees=(2, 3),
        oracles=((6, 4, 2), (5, 3, 3)),
        why="optimize r=3..8, sample + expand at the r=3 constants (n=16), "
            "count_zero_pairs, pairing simplicity sweep, arrow-oracle: the only "
            "first_moment/pairing/arrowing load"),
}

# Per-layer metrics: (name, unit).  BENCHMARK.json lists the same.
SELF_TIMES = [
    "graphs.read_edge_list", "graphs.HostGraph", "graphs.components",
    "graphs.write_edge_list", "affine_plane.build_plane",
    "adversary.find_certificate", "adversary.split_v0", "adversary.color_edges",
    "adversary.check_confinement", "adversary.count_lines", "adversary.line_counts",
    "cli.color", "cli.sample", "cli.expand",
    "first_moment.optimize_constants", "pairing.sample_pairing",
    "pairing.is_simple", "pairing.project_support", "arrowing.check_expansion",
    "arrowing.count_zero_pairs", "arrowing.arrow_bruteforce",
]
CALL_COUNTS = [
    "affine_plane.line_through", "adversary.color_edges",
    "adversary.check_confinement", "adversary.line_counts", "pairing.sample_pairing",
]
UPPER_STEPS = ["optimize", "sample", "expand", "zero_pairs", "simplicity",
               "arrow_oracle"]


def in_child(fn, *args):
    """fn(*args) in a forked child, so that its memory never counts toward
    this process's peak RSS.  Returns the result; a failure is re-raised.
    A fork, not a fresh interpreter, so the child has the program and the
    inputs already loaded; children make no BLAS calls."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, fn(*args)))
            except Exception:
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
        finally:
            # Never return into the parent's stack, whatever was raised.
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"forked child ended with wait status {status} and no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"forked child failed:\n{value}")
    return value


def forked(method):
    """Run a method in a forked child (see `in_child`)."""
    @functools.wraps(method)
    def wrapper(*args):
        return in_child(method, *args)
    return wrapper


class Program:
    """The pathramsey modules the benchmark drives.  Each instance imports
    them afresh, so every set-up repetition pays the program's import."""

    def __init__(self, root):
        src = os.path.join(root, "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        for name in [m for m in sys.modules
                     if m == "pathramsey" or m.startswith("pathramsey.")]:
            del sys.modules[name]
        import pathramsey
        from pathramsey import arrowing, cli, graphs, pairing
        where = os.path.realpath(pathramsey.__file__)
        if not where.startswith(os.path.realpath(src) + os.sep):
            raise ImportError(f"pathramsey imported from {where}, not from {src}")
        self.cli, self.graphs = cli, graphs
        self.pairing, self.arrowing = pairing, arrowing

    def command(self, argv):
        """(exit code, stdout) of one in-process CLI call."""
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()


def derived_seeds(workload, seed, count):
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2 ** 31) for _ in range(count)]


class CertifyLarge:
    """One `color --out` call that succeeds on its first trial."""

    def __init__(self, prog, checks, probe, params, workdir, seed):
        self.prog, self.checks, self.p = prog, checks, params
        self.probe = probe.objects
        self.host = os.path.join(workdir, "host.txt")
        self.cert = os.path.join(workdir, "cert.txt")
        self.graph_seed, self.color_seed = derived_seeds("certify", seed, 2)
        self.verified = None

    def generate(self):
        g = self.prog.graphs.gnm_random(self.p["n"], self.p["m"], self.graph_seed)
        with open(self.host, "w") as fh:
            self.prog.graphs.write_edge_list(g, fh)

    def argv(self):
        return ["color", "--graph", self.host, "--r", str(self.p["r"]),
                "--d", repr(self.p["d"]), "--beta", repr(self.p["beta"]),
                "--seed", str(self.color_seed), "--out", self.cert]

    def steps(self):
        return [("color", lambda: self.prog.command(self.argv()), self.check)]

    def check(self, out):
        """Problems of each operation: here one `color` call."""
        code, stdout = out
        if code != 0:
            return [[f"color exited {code}: {stdout.strip()!r}"]]
        # Passes repeat the same argv; an output byte-identical to one that
        # passed the full check is correct without parsing it again.
        with open(self.cert, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256")
        digest.update(stdout.encode())
        if digest.digest() == self.verified:
            return [[]]
        problems = self.verify(stdout)
        if not problems:
            self.verified = digest.digest()
        return [problems]

    @forked
    def verify(self, stdout):
        from pathramsey.affine_plane import build_plane
        host_edges, _ = self.checks.read_edges(self.host)
        # The edge-list format has no vertex count: the graph the program
        # reads has max label + 1 vertices, fewer than n when the top
        # vertices of G(n, m) are isolated.
        host_n = int(host_edges.max()) + 1
        return self.checks.check_certificate(
            self.cert, host_edges, host_n, self.p["r"], self.p["d"], self.p["beta"],
            build_plane(self.p["r"] - 2), stdout)


class CertifySearch(CertifyLarge):
    """A `color --trials` call whose every partition fails."""

    def __init__(self, prog, checks, probe, params, workdir, seed):
        super().__init__(prog, checks, probe, params, workdir, seed)
        self.probe = probe.arrays

    def argv(self):
        q = self.p["r"] - 2
        # threshold n*d/2 at 0.9x the per-line expectation m/q^2
        d = 0.9 * 2 * self.p["m"] / (self.p["n"] * q * q)
        return ["color", "--graph", self.host, "--r", str(self.p["r"]),
                "--d", repr(d), "--seed", str(self.color_seed),
                "--trials", str(self.p["trials"])]

    @forked
    def check(self, out):
        return [self.checks.check_search_failure(*out, self.p["trials"])]


class UpperBound:
    """The first-moment, pairing and arrowing paths, on small inputs."""

    def __init__(self, prog, checks, probe, params, workdir, seed):
        self.prog, self.checks, self.p = prog, checks, params
        self.probe = probe.small_calls
        self.workdir = workdir
        self.multi = os.path.join(workdir, "multigraph.txt")
        self.simple = os.path.join(workdir, "simple.txt")
        (self.sample_seed, self.expand_seed, self.simple_seed,
         *self.sweep_seeds) = derived_seeds("upper-bound", seed,
                                            3 + len(params["sweep_degrees"]))

    def oracle_path(self, n):
        return os.path.join(self.workdir, f"K{n}.txt")

    def generate(self):
        for n, _, _ in self.p["oracles"]:
            with open(self.oracle_path(n), "w") as fh:
                for u, v in itertools.combinations(range(n), 2):
                    fh.write(f"{u} {v}\n")

    def steps(self):
        return [("optimize", self.optimize, self.check_optimize),
                ("sample", self.sample, self.check_sample),
                ("expand", self.expand, self.check_expand),
                ("zero_pairs", self.zero_pairs, self.check_zero_pairs),
                ("simplicity", self.simplicity, self.check_simplicity),
                ("arrow_oracle", self.arrow_oracle, self.check_arrow_oracle)]

    def optimize(self):
        return [self.prog.command(["optimize", "--r", str(r)])
                for r in self.p["r_values"]]

    @forked
    def check_optimize(self, outs):
        return [self.checks.check_optimize(*out, r)
                for r, out in zip(self.p["r_values"], outs)]

    def sample(self):
        p = self.p
        multi = self.prog.command(
            ["sample", "--side-size", str(p["side"]), "--degree", str(p["degree"]),
             "--seed", str(self.sample_seed), "--out", self.multi])
        simple = self.prog.command(
            ["sample", "--simple", "--side-size", str(p["simple_side"]),
             "--degree", str(p["simple_degree"]), "--seed", str(self.simple_seed),
             "--out", self.simple])
        return multi, simple

    @forked
    def check_sample(self, outs):
        p, (multi, simple) = self.p, outs
        return [self.checks.check_bipartite_sample(
                    self.multi, *multi, p["side"], p["degree"], regular=False),
                self.checks.check_bipartite_sample(
                    self.simple, *simple, p["simple_side"], p["simple_degree"],
                    regular=True)]

    def expand(self):
        return self.prog.command(
            ["expand", "--graph", self.multi, "--s", str(self.p["s"]),
             "--mode", "sampled", "--samples", str(self.p["samples"]),
             "--seed", str(self.expand_seed)])

    @forked
    def check_expand(self, out):
        return [self.checks.check_expand(*out, self.p["samples"])]

    def zero_pairs(self):
        with open(self.simple) as fh:
            g = self.prog.graphs.read_edge_list(fh)
        return self.prog.arrowing.count_zero_pairs(g, self.p["zero_s"])

    @forked
    def check_zero_pairs(self, count):
        edges, _ = self.checks.read_edges(self.simple)
        want = self.checks.zero_pairs_oracle(edges, self.p["simple_side"],
                                             self.p["zero_s"])
        return [[] if count == want else [f"count_zero_pairs {count} != {want}"]]

    def simplicity(self):
        pairing, side, draws = self.prog.pairing, self.p["sweep_side"], self.p["sweep_draws"]
        return [sum(pairing.is_simple(pairing.sample_pairing(side, degree, base + i))
                    for i in range(draws))
                for degree, base in zip(self.p["sweep_degrees"], self.sweep_seeds)]

    @forked
    def check_simplicity(self, simple_counts):
        return [self.checks.check_simple_rate(simple, self.p["sweep_draws"], degree)
                for degree, simple in zip(self.p["sweep_degrees"], simple_counts)]

    def arrow_oracle(self):
        return [self.prog.command(
                    ["arrow-oracle", "--graph", self.oracle_path(n),
                     "--path-vertices", str(k), "--colors", str(c)])
                for n, k, c in self.p["oracles"]]

    @forked
    def check_arrow_oracle(self, outs):
        return [self.checks.check_arrows(*out) for out in outs]


KINDS = {"certify-large": CertifyLarge, "certify-search": CertifySearch,
         "upper-bound": UpperBound}


def run_pass(work, mark_rss, tracer=None):
    """Time each step of one pass, then check its outputs untimed.
    Returns (step seconds by name, operations, failed operations,
    problems)."""
    times, ops, failed, problems = {}, 0, 0, []
    for name, run, check in work.steps():
        start = time.perf_counter()
        if tracer is None:
            out = run()
        else:
            with tracer.span("step." + name):
                out = run()
        times[name] = time.perf_counter() - start
        mark_rss("step." + name)
        per_op = check(out)
        mark_rss("check." + name)
        ops += len(per_op)
        failed += sum(1 for found in per_op if found)
        problems += [f"{name}: {p}" for found in per_op for p in found]
    return times, ops, failed, problems


def layer_metrics(tracer, number):
    """Per-layer values of one traced pass."""
    selfs, totals, counts = tracer.pass_totals(number)
    values = {f"{name}.self_s": float(selfs[name]) for name in SELF_TIMES}
    values.update({f"{name}.calls": counts[name + ".calls"] for name in CALL_COUNTS})
    trials = counts["adversary.trials_used"]
    pairs = counts["arrowing.pairs_checked"]
    draws = counts["pairing.is_simple.calls"]
    search_s = totals["adversary.find_certificate"]
    expand_s = totals["arrowing.check_expansion"]
    values.update({
        "graphs.HostGraph.edges": counts["graphs.HostGraph.edges"],
        "adversary.trials_used": trials,
        "adversary.partitions_per_s": trials / search_s if search_s else 0.0,
        "first_moment.objective_evals": counts["first_moment.binding_degree.calls"],
        "first_moment.golden_iters": counts["first_moment.golden_iters"],
        "pairing.simple_ratio": counts["pairing.simple_draws"] / draws if draws else 0.0,
        "arrowing.pairs_checked": pairs,
        "arrowing.pairs_per_s": pairs / expand_s if expand_s else 0.0,
    })
    return values


def per_layer_units():
    units = {f"{name}.self_s": "s" for name in SELF_TIMES}
    units.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    units.update({
        "graphs.HostGraph.edges": "count", "adversary.trials_used": "count",
        "adversary.partitions_per_s": "1/s", "first_moment.objective_evals": "count",
        "first_moment.golden_iters": "count", "pairing.simple_ratio": "ratio",
        "arrowing.pairs_checked": "count", "arrowing.pairs_per_s": "1/s",
        "trace.overhead_s": "s",
    })
    units.update({f"cmd.{step}_s": "s" for step in UPPER_STEPS})
    return units


def git_commit(root):
    """The checked-out commit, or "unknown" outside a clone."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)))
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(workload, seed, seconds, trace, params=None,
        workdir_base=os.path.join(BENCH, "_run")):
    """Run one workload and return the run record.  `params` overrides
    the workload's parameters and `workdir_base` the directory for inputs
    and records (the harness test uses tiny ones and a temporary one)."""
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(ROOT), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
    }
    params = dict(WORKLOADS[workload], **(params or {}))
    record["params"] = params

    workdir = os.path.join(workdir_base, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rss_log = []                        # (phase, ru_maxrss in KiB after it)

    def mark_rss(phase):
        rss_log.append((phase, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))

    try:
        # Set-up is the program's import (numpy is already loaded) plus
        # input generation, repeated for a steady median.  Generation runs
        # in a child: its graph is the benchmark's, not the program's.
        setup_times, setup_probes = [], []
        while (len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_S) \
                and len(setup_times) < SETUP_MAX_REPS:
            gc.collect()
            start = time.perf_counter()
            prog = Program(ROOT)
            work = KINDS[workload](prog, checks, probe, params, workdir, seed)
            in_child(work.generate)
            setup_times.append(time.perf_counter() - start)
            setup_probes.append(in_child(probe.setup))
        mark_rss("setup")

        tracer = Tracer() if trace else None
        untraced, traced = [], []       # (pass number, probe seconds, step times)
        attempted, failed, problems, measured = 0, 0, [], 0.0
        while len(untraced) + len(traced) < MIN_PASSES or measured < seconds:
            number = len(untraced) + len(traced)
            gc.collect()
            probe_s = in_child(work.probe)
            mark_rss("probe")
            gc.collect()
            if trace and number % 2 == 1:
                tracer.begin_pass(number)
                tracer.install()
                try:
                    times, ops, bad, found = run_pass(work, mark_rss, tracer)
                finally:
                    tracer.uninstall()
                traced.append((number, probe_s, times))
            else:
                times, ops, bad, found = run_pass(work, mark_rss)
                untraced.append((number, probe_s, times))
            measured += sum(times.values())
            attempted += ops
            failed += bad
            problems += [f"pass {number}: {p}" for p in found]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # ru_maxrss only grows: each phase raised the peak by its step in the log.
    peak_kib = rss_log[-1][1]
    peak_phase = next(phase for phase, kib in rss_log if kib == peak_kib)
    harness_kib = sum(kib - before for (phase, kib), (_, before) in zip(rss_log[1:], rss_log)
                      if phase.startswith(("probe", "check")))
    invalid = None
    if harness_kib > RSS_SLACK_KIB:
        invalid = (f"probes and checks raised the peak RSS by {harness_kib / 1024:.2f} MiB, "
                   f"more than {RSS_SLACK_KIB / 1024:.0f} MiB")

    def median_of(passes, step=None):
        return statistics.median(
            sum(t.values()) if step is None else t.get(step, 0.0) for _, _, t in passes)

    pass_s = median_of(untraced)
    probe_s = statistics.median(p for _, p, _ in untraced)
    units = {"setup_s": "s", "pass_norm": "x", "peak_rss_mb": "MiB"}
    metrics = {
        # Each set-up in seconds at the reference host speed, by the
        # set-up probe timed right after it.
        "setup_s": statistics.median(
            t * probe.SETUP_REFERENCE_S / p for t, p in zip(setup_times, setup_probes)),
        # Probes alternate with passes, so total pass time over total
        # probe time divides out the host speed of the whole run; ratios
        # of minima or medians hang on a few lucky or slow seconds.
        "pass_norm": (sum(sum(t.values()) for _, _, t in untraced)
                      / sum(p for _, p, _ in untraced)),
        "peak_rss_mb": peak_kib / 1024,
    }
    step_s = {f"{name}_s": median_of(untraced, name)
              for name, _, _ in work.steps()}
    if trace:
        units = per_layer_units()
        per_pass = [layer_metrics(tracer, number) for number, _, _ in traced]
        metrics = {name: statistics.median(v[name] for v in per_pass)
                   for name in per_pass[0]}
        metrics["trace.overhead_s"] = median_of(traced) - pass_s
        metrics.update({f"cmd.{step}_s": step_s.get(f"{step}_s", 0.0)
                        for step in UPPER_STEPS})
        record["absent_layers"] = sorted(tracer.absent)
    record.update({
        "setup_runs_s": setup_times, "setup_probes_s": setup_probes,
        "setup_raw_s": statistics.median(setup_times),
        "rss_after_setup_mb": rss_log[0][1] / 1024, "rss_peak_phase": peak_phase,
        "rss_raised_by_harness_mb": harness_kib / 1024,
        "invalid": invalid,
        "passes_untraced": [t for _, _, t in untraced],
        "passes_traced": [t for _, _, t in traced],
        "probes_s": [p for _, p, _ in untraced + traced],
        "pass_s": pass_s, "probe_s": probe_s, "step_medians_s": step_s,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    records = os.path.join(workdir_base, "records")
    os.makedirs(records, exist_ok=True)
    stem = os.path.join(records, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(stem + ".spans", "w") as fh:
            tracer.write(fh)
    return record


def report(record):
    """Human-readable lines, then the one-line JSON result."""
    passes = len(record["passes_untraced"]) + len(record["passes_traced"])
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={passes} commit={record['commit'][:12]} nproc={record['nproc']} "
          f"python={record['python']} numpy={record['numpy']} "
          f"load={record['loadavg_start'][0]:.2f}")
    print(f"  {'setup_raw_s':<40} {record['setup_raw_s']:12.6f} s (median of set-ups)")
    for name in ("pass_s", "probe_s"):
        print(f"  {name:<40} {record[name]:12.6f} s (median of untraced passes)")
    if len(record["step_medians_s"]) > 1:
        for name, value in record["step_medians_s"].items():
            print(f"  {name:<40} {value:12.6f} s (median of untraced passes)")
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:12.6f} {m['unit']}")
    print(f"  {'error_rate':<40} {record['error_rate']:12.6f} "
          f"({record['failed']}/{record['attempted']} operations failed)")
    for problem in record["problems"][:20]:
        print(f"  FAILED {problem}")
    for name in record.get("absent_layers", []):
        print(f"  layer absent: {name}")
    print(f"  peak RSS first reached after {record['rss_peak_phase']}; probes and checks "
          f"raised it by {record['rss_raised_by_harness_mb']:.2f} MiB")
    if record["invalid"]:
        print(f"  INVALID {record['invalid']}")
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["invalid"],
        "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record["metrics"]}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return max(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode for name in WORKLOADS)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
