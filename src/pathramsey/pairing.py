"""Bipartite pairing (configuration) model for d-regular multigraphs.

Each side has `side_size` boxes of `degree` points; a uniformly random
bijection between left and right points projects to a d-regular bipartite
multigraph on the boxes.  Simple graphs are obtained by rejection, valid
because the simplicity probability approaches exp(-(d-1)^2/2) for fixed
degree.
"""

import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graphs import HostGraph

POINT_CAP = 10 ** 7


@dataclass(frozen=True)
class Pairing:
    side_size: int
    degree: int
    matching: np.ndarray      # matching[i] = right point paired with left point i
    seed: int

    @property
    def n_points(self) -> int:
        return self.side_size * self.degree


@dataclass
class ProjectionSummary:
    side_size: int
    degree: int
    multiplicities: dict      # edge multiplicity -> count of box pairs
    simple: bool
    graph: HostGraph | None   # simple projection, or None if multi-edges exist


def sample_pairing(side_size: int, degree: int, seed) -> Pairing:
    """Uniform random bijection between left and right points."""
    if side_size < 1 or degree < 1:
        raise ValueError("side_size and degree must be >= 1")
    n_points = side_size * degree
    if n_points > POINT_CAP:
        raise ValueError(f"{n_points} points exceeds cap {POINT_CAP}")
    rng = np.random.default_rng(seed)
    return Pairing(side_size, degree, rng.permutation(n_points), seed)


def _box_codes(p: Pairing) -> np.ndarray:
    lbox = np.arange(p.n_points) // p.degree
    rbox = p.matching // p.degree
    return lbox * p.side_size + rbox


def _graph_of_codes(p: Pairing, codes) -> HostGraph:
    """Bipartite graph on the boxes with one edge per distinct code
    lbox * side_size + rbox in `codes`."""
    s = p.side_size
    return HostGraph(2 * s, np.stack((codes // s, codes % s + s), axis=1),
                     bipartition=(s, s))


def project(p: Pairing) -> ProjectionSummary:
    """Collapse points to boxes; bipartite pairings cannot create loops."""
    codes, mult = np.unique(_box_codes(p), return_counts=True)
    counts = Counter(mult.tolist())
    simple = max(counts) == 1
    graph = _graph_of_codes(p, codes) if simple else None
    return ProjectionSummary(p.side_size, p.degree, dict(counts), simple, graph)


def project_support(p: Pairing) -> HostGraph:
    """Underlying simple graph of the projected multigraph."""
    return _graph_of_codes(p, _box_codes(p))


def is_simple(p: Pairing) -> bool:
    codes = np.sort(_box_codes(p))
    return not np.any(codes[1:] == codes[:-1])


def expected_simplicity(degree: int) -> float:
    """Asymptotic probability that a projection is simple."""
    return math.exp(-0.5 * (degree - 1) ** 2)


def sample_simple(side_size: int, degree: int, seed,
                  max_attempts: int | None = None):
    """Rejection-sample a simple d-regular bipartite graph.

    Returns (graph, attempts).  Attempt t uses seed + t, so results are
    reproducible and trials can run independently.
    """
    p_simple = expected_simplicity(degree)
    if max_attempts is None:
        max_attempts = min(10 ** 6, max(100, math.ceil(50.0 / max(p_simple, 1e-300))))
    if p_simple * max_attempts < 10:
        warnings.warn(
            f"expected simple fraction {p_simple:.3g} over {max_attempts} attempts "
            "is low; exhaustion likely", stacklevel=2)
    for attempt in range(max_attempts):
        p = sample_pairing(side_size, degree, seed + attempt)
        if is_simple(p):
            return project(p).graph, attempt + 1
    raise RuntimeError(f"no simple projection in {max_attempts} attempts")
