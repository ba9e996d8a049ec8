import numpy as np
import pytest

from pathramsey.adversary import (AdversaryParams, check_confinement,
                                  color_edges, count_lines, find_certificate,
                                  random_partition, split_v0)
from pathramsey.affine_plane import build_plane
from pathramsey.graphs import HostGraph, gnp_random, power_of_path


@pytest.fixture(scope="module")
def plane3():
    return build_plane(3)


@pytest.fixture(scope="module")
def plane2():
    return build_plane(2)


def test_params_validation():
    AdversaryParams(r=4, d=2.0, beta=0.5, C=1.0)
    with pytest.raises(ValueError):
        AdversaryParams(r=3, d=2.0, beta=0.5, C=1.0)
    with pytest.raises(ValueError):
        AdversaryParams(r=8, d=2.0, beta=0.5, C=1.0)  # 6 not a prime power
    with pytest.raises(ValueError):
        AdversaryParams(r=4, d=2.0, beta=1.5, C=1.0)


def test_split_v0_star():
    # star: center degree 100, threshold 16*2/0.5 = 64
    g = HostGraph(101, [(0, i) for i in range(1, 101)])
    params = AdversaryParams(r=4, d=2.0, beta=0.5, C=1.0)
    v0, rest = split_v0(g, params)
    assert v0.tolist() == [0]
    assert rest.tolist() == list(range(1, 101))


def test_split_v0_empty_graph():
    g = HostGraph(5, [])
    params = AdversaryParams(r=4, d=2.0, beta=0.5, C=1.0)
    v0, rest = split_v0(g, params)
    assert v0.tolist() == []
    assert rest.tolist() == list(range(5))


def test_split_v0_handshake_bound():
    params = AdversaryParams(r=4, d=1.0, beta=0.5, C=1.0)
    for seed in range(5):
        g = gnp_random(200, 0.15, seed=seed)
        v0, _ = split_v0(g, params)
        # degree-sum counting oracle
        assert len(v0) <= 2 * g.n_edges * (1 - params.beta) / (params.r ** 2 * params.d)


def test_random_partition_deterministic():
    assert np.array_equal(random_partition(4, [], 3, seed=1), np.zeros(4))
    a = random_partition(100, list(range(100)), 3, seed=42)
    b = random_partition(100, list(range(100)), 3, seed=42)
    assert np.array_equal(a, b)
    assert set(a.tolist()) <= set(range(1, 10))
    # vertices outside `rest` are v0 and get part 0
    c = random_partition(10, [1, 4, 7], 3, seed=42)
    assert set(np.flatnonzero(c).tolist()) == {1, 4, 7}


def test_random_partition_balance():
    parts = random_partition(100000, list(range(100000)), 3, seed=0)
    counts = np.bincount(parts, minlength=10)[1:]
    frac = counts / 100000
    assert np.all(np.abs(frac - 1 / 9) < 0.01)


def _colored_instance(seed, r=5, n=60, p=0.1):
    g = gnp_random(n, p, seed=seed)
    params = AdversaryParams(r=r, d=1.0, beta=0.5, C=1.0, seed=seed)
    plane = build_plane(params.q)
    v0, rest = split_v0(g, params)
    parts = random_partition(g.n, rest, params.q, seed=seed)
    return g, params, plane, v0, parts, color_edges(g, parts, plane)


def _edge_colors(col):
    return zip(map(tuple, col.edges.tolist()), col.colors.tolist())


def test_color_rules(plane3):
    g, params, plane, v0, parts, col = _colored_instance(seed=1)
    r = params.r
    for (u, v), c in _edge_colors(col):
        assert 1 <= c <= r
        if u in v0 or v in v0:
            assert c == r
        elif parts[u] == parts[v]:
            assert c == 1
        else:
            line = plane.line_through(parts[u], parts[v])
            assert c == plane.class_of(line) + 1


def test_every_edge_colored():
    g, _, _, _, _, col = _colored_instance(seed=2)
    assert np.array_equal(col.edges, g.edges)
    assert col.colors.shape == (g.n_edges,)


def test_color_r_leaves_rest_independent():
    g, params, _, v0, _, col = _colored_instance(seed=3)
    color_r = HostGraph(g.n, [e for e, c in _edge_colors(col)
                              if c == params.r])
    rest = [v for v in range(g.n) if v not in v0]
    assert color_r.is_independent(rest)


def test_confinement_passes_on_produced_colorings():
    for seed in range(20):
        _, _, _, _, _, col = _colored_instance(seed=seed)
        report = check_confinement(col)
        assert report.ok, report.failures


def test_confinement_fails_on_corrupted_coloring(plane3):
    # two cross-part edges in one color whose parts are not collinear
    g = HostGraph(3, [(0, 1), (1, 2)])
    parts = np.array([1, 2, 6])
    col = color_edges(g, parts, plane3)
    line_a = plane3.line_through(1, 2)
    line_b = plane3.line_through(2, 6)
    assert plane3.class_of(line_a) != plane3.class_of(line_b)
    bad_color = plane3.class_of(line_a) + 1
    col.colors[1] = bad_color       # adversarial recolor of edge (1, 2)
    report = check_confinement(col)
    assert not report.ok
    assert report.failures[0][0] == bad_color


def test_count_lines_degenerate_partition(plane3):
    g = power_of_path(10, 1)
    parts = np.full(10, 5)
    col = color_edges(g, parts, plane3)
    counts = count_lines(col, plane3)
    for idx, line in enumerate(plane3.lines):
        expected = g.n_edges if 5 in line else 0
        assert counts.a_l[idx] == expected


def test_count_lines_empty_graph(plane3):
    g = HostGraph(6, [])
    col = color_edges(g, np.ones(6, dtype=int), plane3)
    counts = count_lines(col, plane3)
    assert counts.a_l.sum() == 0


def test_count_lines_class_sum_dominates_color_edges():
    # sum of A_L over a class covers every edge of that color outside v0
    g, params, plane, v0, parts, col = _colored_instance(seed=4)
    counts = count_lines(col, plane)
    for cls_idx, cls in enumerate(plane.classes):
        color = cls_idx + 1
        color_edges_count = sum(
            1 for (u, v), c in _edge_colors(col)
            if c == color and u not in v0 and v not in v0)
        assert counts.a_l[list(cls)].sum() >= color_edges_count


def test_count_lines_expectation_field():
    g, params, plane, v0, parts, col = _colored_instance(seed=5)
    counts = count_lines(col, plane, params)
    rest_edges = sum(1 for (u, v) in g.edges.tolist()
                     if u not in v0 and v not in v0)
    assert counts.expectation == pytest.approx(rest_edges / params.q ** 2)


def test_find_certificate_empty_graph(plane2):
    g = HostGraph(10, [])
    params = AdversaryParams(r=4, d=1.0, beta=0.5, C=1.0, seed=0)
    with pytest.warns(UserWarning):     # disconnected input
        res = find_certificate(g, params, plane2, max_trials=5)
    assert res.success
    assert res.trials_used == 1


@pytest.mark.parametrize("max_trials", [0, -3])
def test_find_certificate_rejects_trials_below_one(plane2, max_trials):
    g = power_of_path(50, 1)
    params = AdversaryParams(r=4, d=2.0, beta=0.5, C=1.0, seed=0)
    with pytest.raises(ValueError, match="max_trials"):
        find_certificate(g, params, plane2, max_trials=max_trials)


def test_find_certificate_path_power(plane2):
    g = power_of_path(400, 2)
    d = 2 * g.n_edges / g.n
    params = AdversaryParams(r=4, d=d, beta=0.5, C=5.0, seed=0)
    res = find_certificate(g, params, plane2, max_trials=100)
    assert res.success
    assert res.counts.all_below()


def test_find_certificate_reports_failure(plane2):
    # complete graph far above the edge budget
    from pathramsey.graphs import complete_graph
    g = complete_graph(40)
    # d chosen so no vertex crosses the v0 threshold but the edge budget
    # is still far exceeded
    params = AdversaryParams(r=4, d=5.0, beta=0.5, C=1.0, seed=0)
    with pytest.warns(UserWarning):
        res = find_certificate(g, params, plane2, max_trials=10)
    assert not res.success
    assert res.trials_used == 10
    assert res.worst_margin < 0


def test_find_certificate_deterministic(plane2):
    g = power_of_path(300, 1)
    params = AdversaryParams(r=4, d=2.0, beta=0.5, C=5.0, seed=123)
    r1 = find_certificate(g, params, plane2, max_trials=50)
    r2 = find_certificate(g, params, plane2, max_trials=50)
    assert r1.success and r2.success
    assert r1.trials_used == r2.trials_used
    assert np.array_equal(r1.coloring.parts, r2.coloring.parts)
    assert np.array_equal(r1.coloring.colors, r2.coloring.colors)
    assert np.array_equal(r1.counts.a_l, r2.counts.a_l)
