"""Slow reference implementations used as oracles by the differential tests.

These are the straightforward forms of the array kernels: a set-dedup
graph constructor and a breadth-first search over adjacency lists for
`pathramsey.graphs`; and for the lower-bound kernels a pair -> line dict
built from the plane's line listing, a dict coloring keyed by edge, a
breadth-first search over each color class for confinement, and a
per-line mask counter.  They share nothing with the array kernels in
`pathramsey.graphs` and `pathramsey.adversary` beyond `plane.lines` and
`plane.classes`.
"""

import math
from collections import deque

import numpy as np


def host_graph(n, edges, bipartition=None, edge_cap=10 ** 7):
    """(sorted unique (u, v) tuples with u < v, per-vertex degrees) of a
    simple graph, raising the ValueError `HostGraph` raises on bad input:
    the first self-loop or out-of-range edge in input order, then the
    edge cap, then the first edge in sorted order that does not cross
    the bipartition."""
    seen = set()
    clean = []
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            continue
        seen.add((u, v))
        clean.append((u, v))
    if len(clean) > edge_cap:
        raise ValueError(f"edge count {len(clean)} exceeds cap {edge_cap}")
    clean.sort()
    if bipartition is not None:
        n_left, n_right = bipartition
        if n_left + n_right != n:
            raise ValueError("bipartition sizes must sum to n_vertices")
        for u, v in clean:
            if (u < n_left) == (v < n_left):
                raise ValueError(f"edge ({u}, {v}) does not cross bipartition")
    degrees = [0] * n
    for u, v in clean:
        degrees[u] += 1
        degrees[v] += 1
    return clean, degrees


def components(n, edges):
    """Connected components as sorted vertex lists, by breadth-first
    search from each unvisited vertex in increasing order."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    dq.append(w)
        out.append(sorted(comp))
    return out


def line_of_pair(plane):
    """{(a, b): line index} for every pair a < b of point labels."""
    lookup = {}
    for idx, line in enumerate(plane.lines):
        for i in range(len(line)):
            for j in range(i + 1, len(line)):
                lookup[(line[i], line[j])] = idx
    return lookup


def color_edges(edges, v0, parts, plane):
    """{(u, v): color} by the three rules; `parts` maps each vertex
    outside v0 to its part label."""
    q = plane.q
    lookup = line_of_pair(plane)
    v0 = set(v0)
    colors = {}
    for u, v in edges:
        if u in v0 or v in v0:
            colors[(u, v)] = q + 2
            continue
        x, y = parts[u], parts[v]
        if x == y:
            colors[(u, v)] = 1
        else:
            colors[(u, v)] = lookup[(x, y) if x < y else (y, x)] // q + 1
    return colors


def confinement_failures(edge_colors, parts, plane):
    """(color, sorted component) for each component of a color class
    1..q+1 that is not inside one line's part union of that class.  A
    component with a vertex outside `parts` (a v0 vertex) fails."""
    q = plane.q
    failures = []
    for color in range(1, q + 2):
        adj = {}
        for (u, v), c in edge_colors.items():
            if c != color:
                continue
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen = set()
        class_lines = [set(plane.lines[i]) for i in plane.classes[color - 1]]
        for s in adj:
            if s in seen:
                continue
            stack = [s]
            seen.add(s)
            comp = [s]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            comp_parts = {parts.get(v) for v in comp}
            if not any(comp_parts <= line for line in class_lines):
                failures.append((color, sorted(comp)))
    return failures


def line_counts(edge_arr, part_arr, plane):
    """A_L for every line: edges with both endpoint parts on the line."""
    q = plane.q
    counts = np.zeros(plane.n_lines, dtype=np.int64)
    if edge_arr.shape[0] == 0:
        return counts
    pu = part_arr[edge_arr[:, 0]]
    pv = part_arr[edge_arr[:, 1]]
    for idx, line in enumerate(plane.lines):
        member = np.zeros(q * q + 1, dtype=bool)
        member[list(line)] = True
        counts[idx] = int(np.count_nonzero(member[pu] & member[pv]))
    return counts


def g_rate(r, c, d):
    """The first-moment rate g(c, d) written out term by term."""
    c1 = (2.0 * c + 1.0 - 2 ** r) / 2 ** (r + 1)
    return (2 * c * math.log(c)
            + 2 * (c - c1) * d * math.log(c - c1)
            - 2 * c1 * math.log(c1)
            - 2 * (c - c1) * math.log(c - c1)
            - (c - 2 * c1) * d * math.log(c - 2 * c1)
            - c * d * math.log(c))
