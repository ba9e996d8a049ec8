import math

import numpy as np
import pytest

import reference
from pathramsey import first_moment
from pathramsey.first_moment import (THREE_COLOR_REPORTED_C, binding_degree,
                                     c1_ratio, c_domain_min, exact_log_moment,
                                     f_prefactor, g_affine_parts, g_rate,
                                     g_surface, moment_convergence,
                                     optimize_constants,
                                     three_color_misprint_report)


def test_c1_ratio_three_colors():
    for c in (3.6, 5.0, 8.2919, 20.0):
        assert c1_ratio(3, c) == pytest.approx((2 * c - 7) / 16, rel=1e-14)


def test_c1_ratio_general():
    for r in (3, 4, 5, 6):
        for c in (c_domain_min(r) + 0.5, c_domain_min(r) + 10):
            assert c1_ratio(r, c) == pytest.approx(
                ((2 * c + 1) / 2 ** r - 1) / 2, rel=1e-13)


def test_domain_boundary_rejected():
    with pytest.raises(ValueError):
        g_rate(3, 3.5, 10.0)       # confinement ratio hits zero
    with pytest.raises(ValueError):
        g_rate(3, 5.0, -1.0)


def test_g_root_near_reported_c():
    # on the binding curve at the reported c, the degree is near 92.14
    d = binding_degree(3, THREE_COLOR_REPORTED_C)
    assert d == pytest.approx(92.1406, abs=5e-3)
    assert g_rate(3, THREE_COLOR_REPORTED_C, d) == pytest.approx(0.0, abs=1e-9)


def test_g_positive_at_zero_degree_limit():
    # d -> 0 leaves the positive subset-choice entropy
    for c in (4.0, 8.0, 15.0):
        A, _ = g_affine_parts(3, c)
        assert A > 0
        assert g_rate(3, c, 1e-12) == pytest.approx(A, abs=1e-9)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_affinity_in_d(r):
    rng = np.random.default_rng(0)
    lo = c_domain_min(r)
    for _ in range(50):
        c = lo + 0.2 + rng.random() * 4 * lo
        d = 0.5 + rng.random() * 200
        A, B = g_affine_parts(r, c)
        scale = max(1.0, abs(A), abs(d * B))
        # g_rate is A + d*B; the oracle writes the rate out term by term
        assert abs(reference.g_rate(r, c, d) - (A + d * B)) < 1e-11 * scale
        assert abs(g_rate(r, c, d) - reference.g_rate(r, c, d)) < 1e-11 * scale


def test_g_decreasing_in_d_where_binding():
    c = 8.2919
    _, B = g_affine_parts(3, c)
    assert B < 0
    assert g_rate(3, c, 50) > g_rate(3, c, 100)


def test_f_prefactor_scaling():
    c, d = 8.2919, 92.1405
    f1 = f_prefactor(3, c, d, 1000)
    f2 = f_prefactor(3, c, d, 2000)
    assert f1 > 0
    assert f1 / f2 == pytest.approx(2.0, rel=1e-12)
    c1 = c1_ratio(3, c)
    expected = (1 / (2 * math.pi)) * (1 / (c1 * 1000)) * math.sqrt(c / (c - 2 * c1))
    assert f1 == pytest.approx(expected, rel=1e-12)


def test_exact_log_moment_errors():
    with pytest.raises(ValueError):
        exact_log_moment(3, 3.52, 92.0, 10)    # c1*n rounds below 1


def test_exact_log_moment_positive_in_supercritical_region():
    # g > 0 means the expected count blows up; the exact value is positive
    c, d = 8.2919, 60.0
    assert g_rate(3, c, d) > 0
    assert exact_log_moment(3, c, d, 10 ** 4) > 0


def test_oracle_converges_to_rate():
    c, d = 8.2919, 92.1405
    rows = moment_convergence(3, c, d, [10 ** 3, 10 ** 4, 10 ** 5])
    gaps = [row[3] for row in rows]
    assert all(g < 5.0 for g in gaps)
    assert gaps[0] >= gaps[1] >= gaps[2]


def test_optimize_three_colors():
    res = optimize_constants(3)
    assert 763.5 <= res.cd_star <= 764.1
    assert res.c_star == pytest.approx(8.2919, abs=5e-3)
    assert res.d_star == pytest.approx(92.1405, abs=5e-2)
    assert abs(res.g_at_star) < 1e-9
    assert res.integer_degree_cost >= res.cd_star


def test_optimum_is_local_minimum():
    res = optimize_constants(3)
    base = res.cd_star
    for dc in (-1e-3, 1e-3):
        d = binding_degree(3, res.c_star + dc)
        assert (res.c_star + dc) * d >= base - 1e-6


def test_constraint_binds_at_optimum():
    for r in (3, 4, 5):
        res = optimize_constants(r)
        assert abs(res.g_at_star) < 1e-9


def test_optimize_rejects_minimum_at_scan_edge(monkeypatch):
    # a c*d curve still falling at the scan's upper edge has no bracketed
    # minimum; returning the edge would be a silently clipped answer
    monkeypatch.setattr(first_moment, "_cd_objective", lambda r, c: -c)
    with pytest.raises(ValueError, match="scan edge"):
        optimize_constants(3)


def test_misprint_report():
    rep = three_color_misprint_report()
    assert rep["reported"]["g"] > 0.4
    assert rep["reported"]["cd"] == pytest.approx(681.1, abs=0.1)
    assert not rep["reported_is_consistent"]
    assert rep["corrected"]["g"] == pytest.approx(0.0, abs=1e-4)
    assert rep["corrected"]["cd"] == pytest.approx(764.02, abs=0.01)
    assert rep["corrected_is_consistent"]


def test_g_surface_grid():
    rows = g_surface(3, (3.0, 9.0), (80.0, 100.0), 10)
    assert len(rows) == 100
    invalid = [row for row in rows if not row[4]]
    assert invalid and all(row[0] <= 3.5 for row in invalid)
    # sign change along d at the reported c
    col = [row for row in rows if row[4] and abs(row[0] - 8.333333) < 0.01]
    signs = {math.copysign(1, row[2]) for row in col}
    assert signs == {1.0, -1.0}


def test_g_surface_validation():
    with pytest.raises(ValueError):
        g_surface(3, (4.0, 5.0), (1.0, 2.0), 1)
