"""Host-speed probes.

The speed of a small shared host (2 vCPUs of a 2.1 GHz Xeon) drifts by
up to 2x within minutes, from one process to the next and in bursts
within one, and each kind of work slows by its own
amount: interpreter code, numpy kernels and allocation-heavy code
differ.  The benchmark times a fixed probe before every pass and reports
the pass time in units of the probe time, so the gated figure follows
the program rather than the host.  Each workload has its own probe,
shaped like the work that dominates its passes, and the certify-large
probe holds tens of MB of objects because the slowdown grows with the
working set.  `setup` is shaped like set-up: module imports, then
building and writing a graph of Python objects.  The probes are
benchmark code and never call the program, so a change to the program
moves the ratio by exactly its effect on the pass or set-up time.

Each probe returns its own timed seconds; whatever it builds first is
left out of the time.  The benchmark runs the pass probes in a forked
child, so their memory never counts toward the program's peak.
"""

import importlib.util
import io
import itertools
import time

import numpy as np

_rng = np.random.default_rng(12345)
_EDGES = _rng.integers(0, 20_000, size=(40_000, 2))
_PARTS = _rng.integers(1, 82, size=20_000)
_LINES = [_rng.choice(np.arange(1, 82), 9, replace=False) for _ in range(90)]
_PAIRS = _rng.integers(0, 90_000, size=(180_000, 2))
_MATRIX = _rng.random((133, 133)) < 0.5

_STDLIB = [importlib.util.find_spec(name)
           for name in ("argparse", "dataclasses", "difflib", "fractions", "statistics")]

# Median `setup()` seconds on the reference host (2 vCPUs of a 2.1 GHz
# Xeon); `setup_s` is reported at this host speed.
SETUP_REFERENCE_S = 0.033


def objects():
    """Parse an edge list, dedup, adjacency lists, a dict colouring and a
    BFS, on Python objects (the certify-large pass)."""
    text = [f"{u} {v}" for u, v in _PAIRS.tolist() if u != v]
    start = time.perf_counter()
    edges = []
    for line in text:
        a, b = line.split()
        u, v = int(a), int(b)
        edges.append((u, v) if u < v else (v, u))
    seen, adj = set(), [[] for _ in range(90_000)]
    for u, v in edges:
        if (u, v) not in seen:
            seen.add((u, v))
            adj[u].append(v)
            adj[v].append(u)
    colors = {e: (e[0] + e[1]) % 11 for e in seen}
    mark, reached = [False] * len(adj), 0
    for s in range(len(adj)):
        if mark[s]:
            continue
        mark[s], stack = True, [s]
        while stack:
            u = stack.pop()
            reached += 1
            for w in adj[u]:
                if not mark[w]:
                    mark[w] = True
                    stack.append(w)
    assert reached + len(colors) > 0
    return time.perf_counter() - start


def arrays():
    """Gather part labels of 40k edges and count per-line members with
    boolean masks (the certify-search pass)."""
    start = time.perf_counter()
    total = 0
    for _ in range(20):
        pu, pv = _PARTS[_EDGES[:, 0]], _PARTS[_EDGES[:, 1]]
        for line in _LINES:
            member = np.zeros(82, dtype=bool)
            member[line] = True
            total += int(np.count_nonzero(member[pu] & member[pv]))
    assert total > 0
    return time.perf_counter() - start


def small_calls():
    """Many numpy calls on small arrays (subset sampling, permutations,
    uniqueness) and a Python enumeration (the upper-bound pass)."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(5_000):
        S = rng.choice(133, size=9, replace=False)
        T = rng.choice(133, size=9, replace=False)
        hits += bool(_MATRIX[np.ix_(S, T)].any())
    for _ in range(500):
        codes = rng.permutation(1_500) // 3
        hits += np.unique(codes).size
    for assignment in itertools.product(range(2), repeat=15):
        hits += sum(assignment) == 7
    assert hits > 0
    return time.perf_counter() - start


def setup():
    """Import five stdlib modules four times each, without registering
    them, then build adjacency lists of 20k edges and write them as text."""
    start = time.perf_counter()
    for _ in range(4):
        for spec in _STDLIB:
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
    edges = _EDGES[:20_000].tolist()
    adj = [[] for _ in range(20_000)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    out = io.StringIO()
    for u, v in edges:
        out.write(f"{u} {v}\n")
    return time.perf_counter() - start
