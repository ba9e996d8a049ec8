import itertools
import math

import numpy as np
import pytest

from pathramsey.arrowing import (ExpansionSpec, arrow_bruteforce,
                                 check_expansion, count_zero_pairs,
                                 subset_size_for)
from pathramsey.graphs import HostGraph, complete_graph, power_of_path


def bipartite(n_left, n_right, edges):
    return HostGraph(n_left + n_right,
                     [(u, v + n_left) for u, v in edges],
                     bipartition=(n_left, n_right))


def complete_bipartite(a):
    return bipartite(a, a, [(i, j) for i in range(a) for j in range(a)])


def matching_graph(a):
    return bipartite(a, a, [(i, i) for i in range(a)])


def empty_bipartite(a):
    return bipartite(a, a, [])


def test_subset_size_for():
    assert subset_size_for(3, 8.2919, 16) == 9     # floor of 9.5838
    assert subset_size_for(3, 8.0, 32) == 18
    with pytest.raises(ValueError):
        subset_size_for(3, 3.5, 16)


def test_complete_bipartite_passes():
    v = check_expansion(complete_bipartite(4), ExpansionSpec(s=2))
    assert v.passed and v.exhaustive


def test_matching_fails():
    v = check_expansion(matching_graph(4), ExpansionSpec(s=2))
    assert not v.passed
    S, T = v.witness
    # confirm the witness directly against the edge set
    g = matching_graph(4)
    edges = set(map(tuple, g.edges.tolist()))
    assert not any((u, t) in edges for u in S for t in T)


def test_empty_graph_fails():
    v = check_expansion(empty_bipartite(3), ExpansionSpec(s=1))
    assert not v.passed


def test_sampled_mode_one_sided():
    g = complete_bipartite(6)
    v = check_expansion(g, ExpansionSpec(s=2, mode="sampled",
                                         sample_count=500, seed=1))
    assert v.passed and not v.exhaustive
    v2 = check_expansion(matching_graph(6),
                         ExpansionSpec(s=3, mode="sampled",
                                       sample_count=2000, seed=1))
    assert not v2.passed


def test_expansion_validation():
    with pytest.raises(ValueError):
        check_expansion(power_of_path(6, 1), ExpansionSpec(s=1))  # not bipartite
    with pytest.raises(ValueError):
        check_expansion(matching_graph(3), ExpansionSpec(s=4))
    with pytest.raises(ValueError):
        ExpansionSpec(s=2, mode="bogus")


def test_count_zero_pairs_complete():
    assert count_zero_pairs(complete_bipartite(5), 2) == 0


def test_count_zero_pairs_empty():
    a, s = 6, 2
    assert count_zero_pairs(empty_bipartite(a), s) == math.comb(a, s) ** 2


def test_count_zero_pairs_matching_s1():
    assert count_zero_pairs(matching_graph(3), 1) == 6


def _double_loop_count(g, s):
    mat = np.zeros(g.bipartition, dtype=bool)
    for u, v in g.edges:
        if u >= g.bipartition[0]:
            u, v = v, u
        mat[u, v - g.bipartition[0]] = True
    side = g.bipartition[0]
    total = 0
    for S in itertools.combinations(range(side), s):
        for T in itertools.combinations(range(side), s):
            if not mat[np.ix_(S, T)].any():
                total += 1
    return total


@pytest.mark.parametrize("seed", range(4))
def test_count_zero_pairs_matches_double_loop(seed):
    rng = np.random.default_rng(seed)
    side = 7
    edges = [(u, v) for u in range(side) for v in range(side)
             if rng.random() < 0.25]
    g = bipartite(side, side, edges)
    for s in (1, 2, 3):
        assert count_zero_pairs(g, s) == _double_loop_count(g, s)


def test_zero_pairs_iff_expansion_pass():
    rng = np.random.default_rng(5)
    for trial in range(10):
        side = 6
        edges = [(u, v) for u in range(side) for v in range(side)
                 if rng.random() < 0.4]
        g = bipartite(side, side, edges)
        s = 2
        v = check_expansion(g, ExpansionSpec(s=s))
        assert v.passed == (count_zero_pairs(g, s) == 0)


def test_zero_pairs_monotone_under_edge_addition():
    rng = np.random.default_rng(11)
    side = 6
    all_pairs = [(u, v) for u in range(side) for v in range(side)]
    order = rng.permutation(len(all_pairs))
    edges = []
    prev = math.comb(side, 2) ** 2
    for idx in order[:15]:
        edges.append(all_pairs[idx])
        cur = count_zero_pairs(bipartite(side, side, edges), 2)
        assert cur <= prev
        prev = cur


def test_arrow_path_one_color():
    g = power_of_path(5, 1)
    verdict, _ = arrow_bruteforce(g, 5, 1)
    assert verdict


def test_arrow_p3_two_colors_false():
    g = power_of_path(3, 1)
    verdict, witness = arrow_bruteforce(g, 3, 2)
    assert not verdict
    assert len(set(witness.values())) == 2


def test_arrow_k4_two_colors_true():
    verdict, _ = arrow_bruteforce(complete_graph(4), 3, 2)
    assert verdict


def test_arrow_cap():
    with pytest.raises(ValueError):
        arrow_bruteforce(complete_graph(8), 3, 3)
