import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pathramsey import graphs
from pathramsey.graphs import (HostGraph, gnm_random, gnp_random,
                               power_of_path, read_edge_list,
                               write_edge_list)


def test_read_simple_path():
    g = read_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_read_deduplicates():
    g = read_edge_list("0 1\n0 1")
    assert g.n_edges == 1


def test_read_rejects_self_loop():
    with pytest.raises(ValueError):
        read_edge_list("0 0")


def test_read_rejects_malformed():
    with pytest.raises(ValueError):
        read_edge_list("0 1 2")
    with pytest.raises(ValueError):
        read_edge_list("a b")


def test_read_comments_and_blanks():
    g = read_edge_list("# header\n\n0 3\n")
    assert g.n == 4
    assert g.n_edges == 1


def test_round_trip():
    g = power_of_path(7, 2)
    buf = io.StringIO()
    write_edge_list(g, buf, header="test")
    g2 = read_edge_list(buf.getvalue())
    assert np.array_equal(g2.edges, g.edges)


def test_degree():
    g = read_edge_list("0 1\n1 2")
    assert g.degree(1) == 2
    assert g.degree(0) == 1
    with pytest.raises(ValueError):
        g.degree(5)
    iso = HostGraph(3, [(0, 1)])
    assert iso.degree(2) == 0


def test_components():
    g = read_edge_list("0 1\n1 2")
    assert g.components() == [[0, 1, 2]]
    g = HostGraph(4, [(0, 1), (2, 3)])
    assert g.components() == [[0, 1], [2, 3]]
    g = HostGraph(3, [])
    assert g.components() == [[0], [1], [2]]


def test_is_independent():
    g = read_edge_list("0 1\n1 2")
    assert g.is_independent([0, 2])
    assert not g.is_independent([0, 1])
    assert g.is_independent([])


def test_power_of_path_small():
    assert power_of_path(5, 1).n_edges == 4
    assert power_of_path(6, 2).n_edges == 9


@pytest.mark.parametrize("n,k", [(5, 1), (8, 2), (9, 3), (12, 5)])
def test_power_of_path_edge_count_formula(n, k):
    g = power_of_path(n, k)
    assert g.n_edges == n * k - (k * k + k) // 2
    avg = 2 * g.n_edges / n
    assert math.isclose(avg, (2 * n * k - k * k - k) / n)


def test_power_of_path_extremes():
    assert power_of_path(6, 5).n_edges == 15  # complete graph
    with pytest.raises(ValueError):
        power_of_path(5, 5)
    with pytest.raises(ValueError):
        power_of_path(5, 0)


def test_bipartition_validation():
    g = HostGraph(4, [(0, 2), (1, 3)], bipartition=(2, 2))
    assert g.bipartition == (2, 2)
    with pytest.raises(ValueError):
        HostGraph(4, [(0, 1)], bipartition=(2, 2))


def test_gnm_exact_edge_count():
    g = gnm_random(50, 200, seed=7)
    assert g.n_edges == 200
    assert g.n == 50
    # determinism
    g2 = gnm_random(50, 200, seed=7)
    assert np.array_equal(g2.edges, g.edges)


def test_gnm_covers_all_codes():
    g = gnm_random(5, 10, seed=1)   # all C(5,2) edges
    assert g.n_edges == 10


def test_gnp_determinism():
    g = gnp_random(60, 0.1, seed=3)
    g2 = gnp_random(60, 0.1, seed=3)
    assert np.array_equal(g.edges, g2.edges)


def _outcome(build):
    """('ok', value) or ('error', message) of a constructor call."""
    try:
        return "ok", build()
    except ValueError as exc:
        return "error", str(exc)


def _agrees_with_reference(n, edges, bipartition=None):
    """HostGraph and the set-dedup oracle give the same edges, degrees
    and components, or the same first error message."""
    def build():
        g = HostGraph(n, edges, bipartition=bipartition)
        assert g.edges.dtype == np.int64 and g.edges.shape == (g.n_edges, 2)
        assert not g.edges.flags.writeable and not g.degrees.flags.writeable
        return (list(map(tuple, g.edges.tolist())), g.degrees.tolist(),
                g.components())

    def build_reference():
        clean, degrees = reference.host_graph(n, edges, bipartition)
        return clean, degrees, reference.components(n, clean)

    assert _outcome(build) == _outcome(build_reference)


# labels reach past both ends of the vertex range; drawn pairs repeat,
# reverse and loop often at this size
_cases = st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)),
             max_size=30)))
_valid_cases = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda e: e[0] != e[1]), max_size=60)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cases)
def test_matches_reference_on_any_edge_list(case):
    _agrees_with_reference(*case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_valid_cases)
def test_matches_reference_on_valid_edge_lists(case):
    n, edges = case
    _agrees_with_reference(n, edges + [(v, u) for u, v in edges[::3]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_valid_cases, st.data())
def test_matches_reference_with_bipartition(case, data):
    n, edges = case
    n_left = data.draw(st.integers(0, n))
    crossing = [(u, v) for u, v in edges if (u < n_left) != (v < n_left)]
    _agrees_with_reference(n, crossing, (n_left, n - n_left))
    _agrees_with_reference(n, edges, (n_left, n - n_left))
    _agrees_with_reference(n, crossing, (n_left, n - n_left + 1))


def test_permuted_path_is_one_component():
    # a path whose labels run in random order: the smallest label takes
    # the most hooking rounds to reach every vertex
    n = 3000
    perm = np.random.default_rng(0).permutation(n)
    edges = np.stack((perm[:-1], perm[1:]), axis=1)
    assert HostGraph(n, edges).components() == [list(range(n))]
    _agrees_with_reference(n, np.delete(edges, n // 2, axis=0).tolist())


def test_no_vertices():
    g = HostGraph(0, [])
    assert g.edges.shape == (0, 2)
    assert g.degrees.tolist() == []
    assert g.components() == []
    assert read_edge_list("# nothing\n").n == 0


def test_isolated_vertices():
    g = HostGraph(6, [(4, 1), (1, 2)])
    assert g.components() == [[0], [1, 2, 4], [3], [5]]
    assert g.degrees.tolist() == [0, 2, 1, 0, 1, 0]
    assert g.is_independent([0, 3, 5, 1])
    assert not g.is_independent([4, 1])


@pytest.mark.parametrize("edges", [[0, 1, 2], [(0, 1, 2)], np.zeros((2, 3)),
                                   np.zeros((2, 2, 2)), [(0, 1), (1,)]])
def test_rejects_input_not_m_by_2(edges):
    with pytest.raises(ValueError):
        HostGraph(4, edges)


def test_edge_cap_counts_distinct_edges(monkeypatch):
    monkeypatch.setattr(graphs, "EDGE_CAP", 3)
    assert HostGraph(5, [(0, 1), (1, 0)] * 10).n_edges == 1
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    with pytest.raises(ValueError, match="edge count 4 exceeds cap 3"):
        HostGraph(5, edges)
    with pytest.raises(ValueError, match="edge count 4 exceeds cap 3"):
        reference.host_graph(5, edges, edge_cap=3)
