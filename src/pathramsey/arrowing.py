"""Expansion hypothesis checks and a tiny-scale arrowing oracle.

The expansion condition (every equal-size subset pair across the
bipartition is joined by an edge) is what certifies path arrowing at
scale; the brute-force oracle exercises the definition itself on
instances small enough to enumerate every coloring.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import HostGraph

EXHAUSTIVE_PAIR_CAP = 10 ** 8
COLORING_CAP = 10 ** 8


def subset_size_for(r: int, c: float, n: int) -> int:
    """Floor of n*(2c+1-2^r)/2^(r+1); floor is the conservative direction."""
    s = n * (2 * c + 1 - 2 ** r) / 2 ** (r + 1)
    if s <= 0:
        raise ValueError(f"nonpositive subset size for r={r}, c={c}, n={n}")
    return max(1, math.floor(s))


@dataclass(frozen=True)
class ExpansionSpec:
    s: int
    mode: str = "exhaustive"        # "exhaustive" | "sampled"
    sample_count: int = 10 ** 4
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.s < 1:
            raise ValueError("subset size must be >= 1")


@dataclass
class ExpansionVerdict:
    passed: bool            # sampled mode: True only means "no violation found"
    exhaustive: bool
    witness: tuple | None   # (S, T) with no connecting edge, on failure
    pairs_checked: int


def _bipartite_matrix(g: HostGraph):
    if g.bipartition is None:
        raise ValueError("expansion check needs a bipartite graph")
    n_left, n_right = g.bipartition
    if n_left != n_right:
        raise ValueError("expansion check needs a balanced bipartition")
    mat = np.zeros((n_left, n_right), dtype=bool)
    # each row u < v crosses the bipartition, so u is the left end
    mat[g.edges[:, 0], g.edges[:, 1] - n_left] = True
    return mat, n_left


def check_expansion(g: HostGraph, spec: ExpansionSpec) -> ExpansionVerdict:
    """Search for a zero-edge subset pair of size s on each side."""
    mat, side = _bipartite_matrix(g)
    s = spec.s
    if s > side:
        raise ValueError(f"subset size {s} exceeds side size {side}")
    if spec.mode == "exhaustive":
        n_pairs = math.comb(side, s) ** 2
        if n_pairs > EXHAUSTIVE_PAIR_CAP:
            raise ValueError(
                f"{n_pairs} subset pairs exceed the exhaustive cap; use sampled mode")
        checked = 0
        for S in itertools.combinations(range(side), s):
            covered = mat[list(S)].any(axis=0)
            free = np.flatnonzero(~covered)
            checked += math.comb(side, s)
            if free.size >= s:
                T = tuple(int(t) + side for t in free[:s])
                return ExpansionVerdict(False, True, (S, T), checked)
        return ExpansionVerdict(True, True, None, checked)
    rng = np.random.default_rng(spec.seed)
    for i in range(spec.sample_count):
        S = rng.choice(side, size=s, replace=False)
        T = rng.choice(side, size=s, replace=False)
        if not mat[np.ix_(S, T)].any():
            witness = (tuple(int(x) for x in sorted(S)),
                       tuple(int(x) + side for x in sorted(T)))
            return ExpansionVerdict(False, False, witness, i + 1)
    return ExpansionVerdict(True, False, None, spec.sample_count)


def count_zero_pairs(g: HostGraph, s: int) -> int:
    """Exact number of (S, T) pairs, |S| = |T| = s, with e(S, T) = 0.

    Enumerates S and counts admissible T combinatorially, so the cost is
    C(side, s) rather than C(side, s)^2.
    """
    mat, side = _bipartite_matrix(g)
    if not 1 <= s <= side:
        raise ValueError(f"subset size {s} outside 1..{side}")
    if math.comb(side, s) > EXHAUSTIVE_PAIR_CAP:
        raise ValueError("instance too large for exact counting")
    total = 0
    for S in itertools.combinations(range(side), s):
        free = int(np.count_nonzero(~mat[list(S)].any(axis=0)))
        if free >= s:
            total += math.comb(free, s)
    return total


def _has_path(adj, k: int) -> bool:
    """True if the adjacency dict contains a simple path on k vertices."""
    if k <= 1:
        return True

    def extend(v, visited, length):
        if length == k:
            return True
        for w in adj.get(v, ()):
            if w not in visited:
                visited.add(w)
                if extend(w, visited, length + 1):
                    return True
                visited.remove(w)
        return False

    return any(extend(v, {v}, 1) for v in adj)


def arrow_bruteforce(g: HostGraph, path_vertices: int, colors: int):
    """Decide whether every `colors`-coloring of g's edges contains a
    monochromatic path on `path_vertices` vertices.

    Returns (verdict, witness): witness is a coloring (edge -> color)
    avoiding any monochromatic path when the verdict is False.
    """
    if path_vertices < 1 or colors < 1:
        raise ValueError("path_vertices and colors must be >= 1")
    m = g.n_edges
    if colors ** m > COLORING_CAP:
        raise ValueError(f"{colors}^{m} colorings exceed the oracle cap")
    if path_vertices == 1:
        return (g.n >= 1), None
    edges = list(map(tuple, g.edges.tolist()))
    for assignment in itertools.product(range(colors), repeat=m):
        mono = False
        for color in range(colors):
            adj = {}
            for (u, v), c in zip(edges, assignment):
                if c == color:
                    adj.setdefault(u, []).append(v)
                    adj.setdefault(v, []).append(u)
            if _has_path(adj, path_vertices):
                mono = True
                break
        if not mono:
            witness = {e: c + 1 for e, c in zip(edges, assignment)}
            return False, witness
    return True, None
