"""Output checks for the benchmark, kept apart from the code they check.

Nothing here calls the program's search, colouring, sampling or counting
code.  The certificate check shares only `build_plane` with the program
(the plane is the certificate's reference frame); files are parsed by
the readers below, not by `pathramsey.graphs`.  Each check returns a
list of problems; an empty list means the output is correct.
"""

import itertools
import math
import re

import numpy as np


def read_edges(path):
    """(edges as a sorted (m, 2) int array with u < v, bipartition or None)."""
    bipartition = None
    pairs = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# bipartition "):
                bipartition = tuple(int(x) for x in line.split()[2:4])
            elif line.strip() and not line.startswith("#"):
                pairs.append(line)
    edges = np.array(" ".join(pairs).split(), dtype=np.int64).reshape(-1, 2)
    edges = np.sort(edges, axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order], bipartition


def _plane_tables(plane):
    """line_of[a, b] for distinct point labels, line -> class index, and
    the line-by-point membership matrix."""
    size = plane.q * plane.q + 1
    line_of = np.full((size, size), -1, dtype=np.int64)
    for idx, line in enumerate(plane.lines):
        pts = np.asarray(line)
        line_of[np.ix_(pts, pts)] = idx
    line_class = np.empty(len(plane.lines), dtype=np.int64)
    for c, members in enumerate(plane.classes):
        line_class[list(members)] = c
    member = np.zeros((len(plane.lines), size), dtype=bool)
    for idx, line in enumerate(plane.lines):
        member[idx, list(line)] = True
    return line_of, line_class, member


def check_certificate(cert_path, host_edges, n, r, d, beta, plane, stdout):
    """Re-check a `color --out` certificate from the file alone.  v0 must
    be exactly the vertices of host degree >= r^2 d / (1 - beta)."""
    q = r - 2
    problems = []
    v0_tokens, part_lines, edge_lines = [], [], []
    with open(cert_path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            if line.startswith("v0"):
                v0_tokens.extend(line.split()[1:])
            elif line.startswith("part "):
                part_lines.append(line[5:])
            elif line.strip():
                edge_lines.append(line)
    try:
        v0 = np.array(v0_tokens, dtype=np.int64)
        parts = np.array(" ".join(part_lines).split(), dtype=np.int64).reshape(-1, 2)
        rows = np.array(" ".join(edge_lines).split(), dtype=np.int64).reshape(-1, 3)
    except ValueError as exc:
        return [f"malformed certificate: {exc}"]
    labelled = np.concatenate([v0, parts[:, 0]])
    if labelled.size and (labelled.min() < 0 or labelled.max() >= n):
        return ["certificate names a vertex outside the host"]

    part_of = np.zeros(n, dtype=np.int64)           # 0 marks v0
    part_of[parts[:, 0]] = parts[:, 1]
    if np.any((parts[:, 1] < 1) | (parts[:, 1] > q * q)):
        problems.append("part label outside 1..q^2")
    in_v0 = np.zeros(n, dtype=bool)
    in_v0[v0] = True
    if (len(np.unique(parts[:, 0])) != len(parts) or len(parts) + len(v0) != n
            or np.any(in_v0[parts[:, 0]])):
        problems.append("vertices are not split exactly once into v0 and parts")
    degree = np.bincount(host_edges.ravel(), minlength=n)
    if not np.array_equal(in_v0, degree >= r * r * d / (1.0 - beta)):
        problems.append("v0 is not the set of vertices of degree >= r^2 d / (1 - beta)")

    uv = np.sort(rows[:, :2], axis=1)
    order = np.lexsort((uv[:, 1], uv[:, 0]))
    if uv.shape != host_edges.shape or not np.array_equal(uv[order], host_edges):
        return problems + ["certificate edges differ from the host edges"]
    colors = rows[:, 2]

    line_of, line_class, member = _plane_tables(plane)
    pu, pv = part_of[uv[:, 0]], part_of[uv[:, 1]]
    touches_v0 = in_v0[uv[:, 0]] | in_v0[uv[:, 1]]
    cross = ~touches_v0 & (pu != pv)
    expected = np.ones(len(rows), dtype=np.int64)
    expected[touches_v0] = r
    expected[cross] = line_class[line_of[pu[cross], pv[cross]]] + 1
    if np.any(colors != expected):
        problems.append(f"{int(np.sum(colors != expected))} edges break the colour rules")

    rest = ~touches_v0
    pu, pv = pu[rest], pv[rest]
    a_l = np.array([np.count_nonzero(line[pu] & line[pv]) for line in member])
    threshold = n * d / 2.0
    if np.any(a_l >= threshold):
        problems.append(f"a line holds {int(a_l.max())} >= n*d/2 = {threshold} edges")
    m = re.search(r"max A_L = (\d+) <", stdout)
    if not m or int(m.group(1)) != int(a_l.max()):
        problems.append(f"printed max A_L does not match {int(a_l.max())}")
    return problems


def check_search_failure(code, stdout, trials):
    m = re.search(rf"no certificate in {trials} trials; best margin (-?[\d.]+)", stdout)
    if code != 3 or not m or float(m.group(1)) >= 0:
        return [f"expected exit 3 with a negative margin, got {code}: {stdout.strip()!r}"]
    return []


def check_optimize(code, stdout, r):
    m = re.search(r"cd\*=([\d.]+) g\(c\*,d\*\)=(\S+)", stdout)
    if code != 0 or not m:
        return [f"optimize r={r}: exit {code}, output {stdout.strip()[:80]!r}"]
    cd, g = float(m.group(1)), float(m.group(2))
    problems = []
    if abs(g) >= 1e-6:
        problems.append(f"optimize r={r}: |g(c*,d*)| = {abs(g)} >= 1e-6")
    if r == 3 and not 763.5 <= cd <= 764.1:
        problems.append(f"optimize r=3: cd* = {cd} outside [763.5, 764.1]")
    return problems


def check_bipartite_sample(path, code, stdout, side, degree, regular):
    """A sampled file: balanced bipartite, degrees at most `degree`
    (exactly `degree` when `regular`), edge count as printed."""
    if code != 0:
        return [f"sample exited {code}"]
    edges, bip = read_edges(path)
    problems = []
    if bip != (side, side):
        problems.append(f"bipartition header {bip}, expected ({side}, {side})")
    if len(edges) and (np.any(edges[:, 0] >= side) or np.any(edges[:, 1] < side)
                       or edges.max() >= 2 * side):
        problems.append("an edge does not cross the bipartition")
    if len(np.unique(edges[:, 0] * 2 * side + edges[:, 1])) != len(edges):
        problems.append("duplicate edge in a simple graph file")
    deg = np.bincount(edges.ravel(), minlength=2 * side)
    if regular and np.any(deg != degree):
        problems.append(f"degrees {deg.min()}..{deg.max()}, expected {degree}")
    if not regular and (deg.min() < 1 or deg.max() > degree):
        problems.append(f"degrees {deg.min()}..{deg.max()} outside 1..{degree}")
    if f"{2 * side} vertices, {len(edges)} edges" not in stdout:
        problems.append(f"printed summary does not match the file: {stdout.strip()!r}")
    return problems


def check_expand(code, stdout, samples):
    if code != 0 or stdout.strip() != f"no violation found ({samples} pairs checked)":
        return [f"expand: exit {code}, output {stdout.strip()!r}"]
    return []


def zero_pairs_oracle(edges, side, s):
    """Count (S, T), |S| = |T| = s, with no S-T edge, from neighbour bitmasks."""
    masks = [0] * side
    for u, v in edges.tolist():
        masks[u] |= 1 << (v - side)
    total = 0
    for subset in itertools.combinations(masks, s):
        cover = 0
        for mask in subset:
            cover |= mask
        free = side - cover.bit_count()
        total += math.comb(free, s)
    return total


def check_simple_rate(simple, draws, degree):
    """Simple fraction within 4 standard errors of exp(-(d-1)^2/2).  At 3
    standard errors a correct sampler would fail about one seed in 200."""
    p = math.exp(-0.5 * (degree - 1) ** 2)
    se = math.sqrt(p * (1 - p) / draws)
    if abs(simple / draws - p) > 4 * se:
        return [f"d={degree}: simple fraction {simple}/{draws} is more than "
                f"4 SE from {p:.4f}"]
    return []


def check_arrows(code, stdout):
    if code != 0 or not stdout.startswith("arrows:"):
        return [f"arrow-oracle: exit {code}, output {stdout.strip()[:80]!r}"]
    return []
