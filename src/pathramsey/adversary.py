"""Adversarial edge coloring from an affine plane partition.

High-degree vertices are split off into v0, the rest is partitioned at
random into q^2 parts identified with the plane's points, and each edge
is colored by the parallel class of the line through its endpoint parts.
A certificate consists of a partition under which every line's edge
count stays below n*d/2.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .affine_plane import AffinePlane
from .bounds import make_tail_bound, union_margin
from .finite_field import is_prime_power
from .graphs import HostGraph

MAX_TRIAL_CAP = 10 ** 4


@dataclass(frozen=True)
class AdversaryParams:
    r: int            # color count; q = r - 2 must be a prime power >= 2
    d: float          # target average degree of the forbidden graph
    beta: float       # independence ratio in (0, 1)
    C: float          # concentration slack constant
    seed: int = 0

    def __post_init__(self):
        if self.r < 4 or not is_prime_power(self.r - 2):
            raise ValueError("need r >= 4 with r - 2 a prime power")
        if not 0 < self.beta < 1:
            raise ValueError("beta must be in (0, 1)")
        if self.d <= 0 or self.C <= 0:
            raise ValueError("d and C must be positive")

    @property
    def q(self) -> int:
        return self.r - 2

    @property
    def degree_threshold(self) -> float:
        return self.r ** 2 * self.d / (1.0 - self.beta)


@dataclass
class Coloring:
    plane: AffinePlane
    parts: np.ndarray           # vertex -> part label in 1..q^2, 0 for v0
    edges: np.ndarray           # the host's (m, 2) edge array, sorted
    colors: np.ndarray          # colors[i] in 1..r is the color of edges[i]

    @property
    def r(self) -> int:
        return self.plane.q + 2


@dataclass
class LineCounts:
    a_l: np.ndarray             # edge count inside each line's part union
    expectation: float          # rest-induced edge count / (r-2)^2
    gamma: float                # C*sqrt(n)/(r-2)^2 (nan if C unknown)
    threshold: float            # n*d/2 (nan if d unknown)

    def all_below(self) -> bool:
        return bool(np.all(self.a_l < self.threshold))


@dataclass
class ConfinementReport:
    ok: bool
    checked_edges: int          # edges of colors 1..q+1
    failures: list = field(default_factory=list)  # (color, u, v) per bad edge


@dataclass
class CertificateResult:
    success: bool
    coloring: Coloring | None
    counts: LineCounts | None
    trials_used: int
    worst_margin: float         # best over trials of (threshold - worst line's A_L)
    seed: int


def split_v0(g: HostGraph, params: AdversaryParams):
    """(v0, rest): sorted int arrays of the vertices of degree
    >= r^2*d/(1-beta) and of all others."""
    heavy = g.degrees >= params.degree_threshold
    return np.flatnonzero(heavy), np.flatnonzero(~heavy)


def random_partition(n: int, rest, q: int, seed) -> np.ndarray:
    """Per-vertex part array: each vertex of `rest` independently and
    uniformly in 1..q^2, every other vertex 0 (v0)."""
    if q < 2:
        raise ValueError("need q >= 2")
    rng = np.random.default_rng(seed)
    parts = np.zeros(n, dtype=np.int64)
    parts[np.asarray(rest, dtype=np.int64)] = rng.integers(1, q * q + 1,
                                                          size=len(rest))
    return parts


def color_edges(g: HostGraph, parts, plane: AffinePlane) -> Coloring:
    """Apply the three coloring rules: edges touching v0 (part 0) get
    color r, intra-part edges color 1, and a cross-part edge the 1-based
    class of the line through its endpoint parts."""
    q = plane.q
    parts = np.asarray(parts, dtype=np.int64)
    if parts.shape != (g.n,):
        raise ValueError(f"part array has shape {parts.shape}; every one of "
                         f"the {g.n} vertices needs a part or 0 for v0")
    bad = np.flatnonzero((parts < 0) | (parts > q * q))
    if bad.size:
        v = int(bad[0])
        raise ValueError(f"part label {parts[v]} for vertex {v} outside 0..{q * q}")
    pu, pv = parts[g.edges[:, 0]], parts[g.edges[:, 1]]
    colors = np.where(pu == pv, 1, plane.line_of[pu, pv] // q + 1)
    colors[(pu == 0) | (pv == 0)] = q + 2
    return Coloring(plane, parts, g.edges, colors.astype(np.int8))


def check_confinement(col: Coloring) -> ConfinementReport:
    """Verify every component of each color class c in 1..q+1 sits inside
    the part union of a single line of class c.

    Checked edge by edge: both endpoints must have parts on the same
    class-c line.  This is exact because the class-c lines partition the
    points, so a component lies in one line's part union iff the class-c
    line of its vertices' parts never changes along an edge.  An edge of
    color <= q+1 touching v0 fails, as v0 has no part.
    """
    q = col.plane.q
    sel = np.flatnonzero((col.colors >= 1) & (col.colors <= q + 1))
    c = col.colors[sel].astype(np.int64) - 1
    pu, pv = col.parts[col.edges[sel, 0]], col.parts[col.edges[sel, 1]]
    line_u, line_v = col.plane.point_line[c, pu], col.plane.point_line[c, pv]
    bad = sel[(line_u != line_v) | (pu == 0) | (pv == 0)]
    failures = [(color, u, v) for color, (u, v) in
                zip(col.colors[bad].tolist(), col.edges[bad].tolist())]
    return ConfinementReport(ok=not failures, checked_edges=int(sel.size),
                             failures=failures)


def _line_counts_from_arrays(edge_arr, part_arr, plane: AffinePlane) -> np.ndarray:
    """Edge count inside each line's part union: cross-part edges count
    for the line through their parts, intra-part edges for every line
    through their part; edges touching v0 (part 0) count nowhere."""
    pu = part_arr[edge_arr[:, 0]]
    pv = part_arr[edge_arr[:, 1]]
    cross = plane.line_of[pu, pv]
    intra = np.bincount(pu[pu == pv], minlength=plane.n_points + 1)
    return (np.bincount(cross[cross >= 0], minlength=plane.n_lines)
            + intra[np.asarray(plane.lines)].sum(axis=1))


def _line_counts(col: Coloring, a_l, params: AdversaryParams | None,
                 n: int) -> LineCounts:
    """LineCounts for A_L values already counted; the expectation is the
    number of edges with both endpoints outside v0 over q^2."""
    q = col.plane.q
    rest_edges = int(np.count_nonzero(col.parts[col.edges].all(axis=1)))
    if params is not None:
        gamma = params.C * math.sqrt(n) / (q * q)
        threshold = n * params.d / 2.0
    else:
        gamma = math.nan
        threshold = math.nan
    return LineCounts(a_l=a_l, expectation=rest_edges / (q * q), gamma=gamma,
                      threshold=threshold)


def count_lines(col: Coloring, plane: AffinePlane | None = None,
                params: AdversaryParams | None = None,
                n: int | None = None) -> LineCounts:
    """Edge count inside each line's part union (v0 edges excluded)."""
    plane = plane or col.plane
    a_l = _line_counts_from_arrays(col.edges, col.parts, plane)
    return _line_counts(col, a_l, params, col.parts.size if n is None else n)


def default_max_trials(g: HostGraph, params: AdversaryParams, rest_size: int) -> int:
    """ceil(10 / union-bound margin), capped; the cap applies whenever the
    margin is nonpositive."""
    tail = make_tail_bound(params.r, g.n, params.d, params.beta, params.C,
                           rest_size)
    margin = union_margin(params.q, tail)
    if margin <= 0:
        return MAX_TRIAL_CAP
    return min(MAX_TRIAL_CAP, max(1, math.ceil(10.0 / margin)))


def find_certificate(g: HostGraph, params: AdversaryParams, plane: AffinePlane,
                     max_trials: int | None = None) -> CertificateResult:
    """Resample partitions until every line spans fewer than n*d/2 edges.

    On success the full coloring is rebuilt and its rule invariants,
    confinement, and color-r independence are asserted before returning.
    """
    if plane.q != params.q:
        raise ValueError("plane order does not match params")
    if max_trials is not None and max_trials < 1:
        raise ValueError(f"max_trials must be >= 1, got {max_trials}")
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    threshold = n * params.d / 2.0
    budget = (params.d / 2.0) * n * params.q ** 2 - params.C * math.sqrt(n)
    if g.n_edges > budget:
        warnings.warn(
            f"edge count {g.n_edges} exceeds the certified budget {budget:.1f}; "
            "a certificate may not exist", stacklevel=2)
    if len(g.components()) > 1:
        warnings.warn("input graph is not connected", stacklevel=2)

    v0, rest = split_v0(g, params)
    if g.n_edges <= budget and not len(v0) < (1.0 - params.beta) * n:
        raise AssertionError("v0 size bound violated despite edge budget")

    if max_trials is None:
        max_trials = default_max_trials(g, params, len(rest))

    worst = -math.inf
    for trial in range(max_trials):
        parts = random_partition(n, rest, params.q, params.seed + trial)
        a_l = _line_counts_from_arrays(g.edges, parts, plane)
        margin = threshold - a_l.max()
        worst = max(worst, margin) if math.isfinite(worst) else margin
        if np.all(a_l < threshold):
            col = color_edges(g, parts, plane)
            report = check_confinement(col)
            assert report.ok, "confinement claim failed on a produced coloring"
            assert np.all((col.colors != params.r)
                          | (parts[g.edges] == 0).any(axis=1)), \
                "a color-r edge avoids v0"
            counts = _line_counts(col, a_l, params, n)
            return CertificateResult(True, col, counts, trial + 1,
                                     margin, params.seed)
    return CertificateResult(False, None, None, max_trials, worst, params.seed)
