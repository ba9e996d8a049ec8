"""Differential tests: the array kernels of the lower-bound half against
the slow oracles in `reference.py`, for every supported plane order."""

import numpy as np
import pytest

import reference
from pathramsey.adversary import (_line_counts_from_arrays, check_confinement,
                                  color_edges, count_lines, random_partition)
from pathramsey.affine_plane import build_plane
from pathramsey.graphs import HostGraph, gnm_random

ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
CASES = [(seed, with_v0, clustered) for seed in range(3)
         for with_v0 in (False, True) for clustered in (False, True)]


@pytest.fixture(scope="module", params=ORDERS)
def plane(request):
    return build_plane(request.param)


def _instance(plane, seed, with_v0, clustered, n=120, m=400):
    """A seeded G(n, m) host and a part array (0 = v0).  A clustered
    partition draws from three labels only, so many edges are intra-part."""
    g = gnm_random(n, m, seed)
    rng = np.random.default_rng(1000 + seed)
    v0 = set(rng.choice(n, size=12, replace=False).tolist()) if with_v0 else set()
    rest = [v for v in range(n) if v not in v0]
    if clustered:
        parts = np.zeros(n, dtype=np.int64)
        labels = rng.choice(np.arange(1, plane.n_points + 1), size=3, replace=False)
        parts[rest] = rng.choice(labels, size=len(rest))
    else:
        parts = random_partition(n, rest, plane.q, seed)
    return g, v0, parts


def _parts_dict(parts):
    return {v: int(x) for v, x in enumerate(parts.tolist()) if x}


def _as_dict(col):
    return {(u, v): c for (u, v), c in zip(col.edges.tolist(), col.colors.tolist())}


def test_tables_match_line_listing(plane):
    size = plane.n_points + 1
    expected = np.full((size, size), -1)
    for (a, b), idx in reference.line_of_pair(plane).items():
        expected[a, b] = expected[b, a] = idx
    assert np.array_equal(plane.line_of, expected)
    assert np.all(plane.point_line[:, 0] == -1)
    for c, cls in enumerate(plane.classes):
        for idx in cls:
            assert np.all(plane.point_line[c, list(plane.lines[idx])] == idx)


@pytest.mark.parametrize("seed,with_v0,clustered", CASES)
def test_color_edges_matches_reference(plane, seed, with_v0, clustered):
    g, v0, parts = _instance(plane, seed, with_v0, clustered)
    col = color_edges(g, parts, plane)
    assert _as_dict(col) == reference.color_edges(g.edges.tolist(), v0,
                                                  _parts_dict(parts), plane)


@pytest.mark.parametrize("seed,with_v0,clustered", CASES)
def test_line_counts_match_reference(plane, seed, with_v0, clustered):
    g, _, parts = _instance(plane, seed, with_v0, clustered)
    expected = reference.line_counts(g.edges, parts, plane)
    assert np.array_equal(_line_counts_from_arrays(g.edges, parts, plane),
                          expected)
    assert np.array_equal(count_lines(color_edges(g, parts, plane)).a_l, expected)


def _agrees_with_reference(col):
    """The edge-level report and the component-level oracle agree: same
    verdict, every failing edge lies in a failing component of its color,
    and every failing component contains a failing edge."""
    report = check_confinement(col)
    ref = reference.confinement_failures(_as_dict(col), _parts_dict(col.parts),
                                         col.plane)
    assert report.ok == (not ref)
    bad_comps = [(color, set(comp)) for color, comp in ref]
    for color, u, v in report.failures:
        assert any(c == color and u in comp for c, comp in bad_comps)
    for color, comp in bad_comps:
        assert any(c == color and u in comp for c, u, _ in report.failures)
    return report


@pytest.mark.parametrize("seed,with_v0,clustered", CASES)
def test_confinement_matches_reference(plane, seed, with_v0, clustered):
    g, _, parts = _instance(plane, seed, with_v0, clustered)
    col = color_edges(g, parts, plane)
    assert _agrees_with_reference(col).ok
    # random recolorings, including colors 1..r on edges touching v0
    rng = np.random.default_rng(seed)
    for _ in range(5):
        corrupt = color_edges(g, parts, plane)
        idx = rng.choice(g.n_edges, size=3, replace=False)
        corrupt.colors[idx] = rng.integers(1, plane.q + 3, size=3)
        _agrees_with_reference(corrupt)


@pytest.mark.parametrize("seed", range(3))
def test_noncollinear_recolor_fails(plane, seed):
    g, _, parts = _instance(plane, seed, with_v0=True, clustered=False)
    col = color_edges(g, parts, plane)
    q = plane.q
    pu, pv = parts[col.edges[:, 0]], parts[col.edges[:, 1]]
    i = int(np.flatnonzero((pu > 0) & (pv > 0) & (pu != pv))[0])
    bad_color = col.colors[i] % (q + 1) + 1       # another class, still <= q+1
    col.colors[i] = bad_color
    report = _agrees_with_reference(col)
    assert not report.ok
    assert report.failures[0][0] == bad_color


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("v0_ends", [1, 2])
def test_low_color_edge_touching_v0_fails(plane, seed, v0_ends):
    g, _, parts = _instance(plane, seed, with_v0=True, clustered=False)
    col = color_edges(g, parts, plane)
    in_v0 = (parts[col.edges] == 0).sum(axis=1)
    i = int(np.flatnonzero(in_v0 == v0_ends)[0])
    col.colors[i] = 1
    report = _agrees_with_reference(col)
    assert not report.ok
    assert report.failures == [(1, *col.edges[i].tolist())]


def test_color_edges_rejects_vertex_outside_partition():
    plane = build_plane(3)
    g = HostGraph(4, [(0, 1), (2, 3)])
    # vertex 3 is neither in v0 (part 0) nor given a part
    with pytest.raises(ValueError):
        color_edges(g, np.array([1, 2, 0]), plane)
    with pytest.raises(ValueError):
        color_edges(g, [1, 2, 0, 10], plane)        # label outside 0..9
