"""Produce an adversarial coloring certificate on a concrete graph.

Takes the square of a path, splits off high-degree vertices, partitions
the rest into plane parts, colors every edge by parallel class, and
resamples partitions until every line's edge count is under n*d/2.
The resulting coloring avoids a long monochromatic path in each of the
first q+1 colors, which is what the closed-form lower bound certifies.
"""

import numpy as np

from pathramsey import (AdversaryParams, build_plane, check_confinement,
                        find_certificate, lower_bound_path_power,
                        power_of_path)

n, k = 2000, 2
g = power_of_path(n, k)
d = 2 * g.n_edges / g.n
params = AdversaryParams(r=4, d=d, beta=0.5, C=5.0, seed=0)
plane = build_plane(params.q)

print(f"host graph: square of a {n}-vertex path, {g.n_edges} edges, "
      f"average degree {d:.4f}")
print(f"adversary: r={params.r}, plane order {params.q}, "
      f"degree threshold {params.degree_threshold:.1f}\n")

result = find_certificate(g, params, plane, max_trials=200)
assert result.success
counts = result.counts
print(f"certificate found on trial {result.trials_used}")
print(f"line edge counts: {counts.a_l.tolist()}")
print(f"all below threshold n*d/2 = {counts.threshold:.1f} "
      f"(expectation per line {counts.expectation:.1f})")

col = result.coloring
report = check_confinement(col)
print(f"confinement: every monochromatic component of colors 1..{params.q + 1} "
      f"sits inside one line's part union "
      f"({report.checked_edges} edges checked, {len(report.failures)} failing)")
print(f"edges per color 1..{params.r}: "
      f"{np.bincount(col.colors, minlength=params.r + 1)[1:].tolist()}")

bound = lower_bound_path_power(params.r, n, k, params.C)
print(f"\ncertified lower bound on the {params.r}-color size Ramsey number "
      f"of P_{n}^{k}: {bound:.1f} edges")
