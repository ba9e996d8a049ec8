import math
from collections import Counter

import numpy as np
import pytest

from pathramsey.pairing import (Pairing, _box_codes, expected_simplicity,
                                is_simple, project, project_support,
                                sample_pairing, sample_simple)


def test_unique_matching():
    p = sample_pairing(1, 1, seed=0)
    assert p.matching.tolist() == [0]
    summary = project(p)
    assert summary.simple
    assert summary.graph.edges.tolist() == [[0, 1]]


def test_determinism():
    a = sample_pairing(20, 3, seed=9)
    b = sample_pairing(20, 3, seed=9)
    assert np.array_equal(a.matching, b.matching)


def test_two_box_degree_one_frequencies():
    hits = Counter()
    for seed in range(10 ** 4):
        p = sample_pairing(2, 1, seed=seed)
        hits[tuple(p.matching.tolist())] += 1
    assert set(hits) == {(0, 1), (1, 0)}
    for count in hits.values():
        assert abs(count / 10 ** 4 - 0.5) < 0.02


def test_uniformity_three_boxes():
    hits = Counter()
    n_samples = 10 ** 5
    for seed in range(n_samples):
        p = sample_pairing(3, 1, seed=seed)
        hits[tuple(p.matching.tolist())] += 1
    assert len(hits) == 6
    for count in hits.values():
        assert abs(count / n_samples - 1 / 6) < 0.01


def test_forced_double_edge():
    p = sample_pairing(1, 2, seed=0)
    summary = project(p)
    assert not summary.simple
    assert summary.graph is None
    assert summary.multiplicities == {2: 1}


def test_is_simple_matches_unique_count():
    # the verdict of the np.unique form it replaced
    def unique_form(p):
        codes = _box_codes(p)
        return np.unique(codes).size == codes.size

    pairings = [sample_pairing(side, degree, seed)
                for side, degree in [(1, 1), (1, 3), (2, 1), (5, 1), (4, 2),
                                     (20, 2), (50, 3), (200, 2)]
                for seed in range(25)]
    # box 0 takes left points 0, 1 to right points 0, 1: a forced double edge
    pairings.append(Pairing(3, 2, np.array([0, 1, 2, 4, 3, 5]), seed=0))
    verdicts = [is_simple(p) for p in pairings]
    assert verdicts == [unique_form(p) for p in pairings]
    assert all(verdicts[:25]) and not any(verdicts[25:50])
    assert not verdicts[-1]


def test_projection_regularity():
    for seed in range(10):
        p = sample_pairing(30, 4, seed=seed)
        codes = Counter()
        lbox = np.arange(p.n_points) // p.degree
        rbox = p.matching // p.degree
        for l, r in zip(lbox.tolist(), rbox.tolist()):
            codes[(l, r)] += 1
        left_deg = Counter()
        right_deg = Counter()
        for (l, r), mult in codes.items():
            left_deg[l] += mult
            right_deg[r] += mult
        assert all(v == 4 for v in left_deg.values())
        assert all(v == 4 for v in right_deg.values())
        assert sum(codes.values()) == 30 * 4


def test_project_support_is_bipartite_simple():
    p = sample_pairing(10, 5, seed=3)
    g = project_support(p)
    assert g.bipartition == (10, 10)
    assert g.n_edges <= 50


def test_expected_simplicity_values():
    assert expected_simplicity(1) == pytest.approx(1.0)
    assert expected_simplicity(2) == pytest.approx(math.exp(-0.5))
    assert expected_simplicity(3) == pytest.approx(math.exp(-2.0))


def test_sample_simple_degree_one():
    g, attempts = sample_simple(50, 1, seed=0)
    assert attempts == 1
    assert g.n_edges == 50
    assert all(g.degree(v) == 1 for v in range(100))


def test_sample_simple_mean_attempts():
    attempts = []
    for seed in range(300):
        _, a = sample_simple(200, 3, seed=seed * 1000)
        attempts.append(a)
    mean = sum(attempts) / len(attempts)
    # geometric with success probability about exp(-2)
    assert abs(mean - math.exp(2)) / math.exp(2) < 0.2


def test_sample_simple_exhaustion():
    with pytest.warns(UserWarning):
        with pytest.raises(RuntimeError):
            sample_simple(4, 30, seed=0, max_attempts=3)


def test_size_cap():
    with pytest.raises(ValueError):
        sample_pairing(10 ** 7, 2, seed=0)
    with pytest.raises(ValueError):
        sample_pairing(0, 1, seed=0)
