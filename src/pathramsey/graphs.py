"""Simple undirected host graphs with edge-list text I/O.

Vertices are dense 0-based integers.  A graph's edges are one read-only,
sorted, duplicate-free (m, 2) int64 array with u < v in each row.  The
text format is one edge per line, "u v", with '#' starting a comment
line; the writer emits sorted edges.  Duplicate input edges are merged
silently, self-loops are hard errors.
"""

import numpy as np

EDGE_CAP = 10 ** 7


class HostGraph:
    """Simple graph; optionally bipartite with parts [0, n_left) and
    [n_left, n).  `edges` is the edge array, `degrees[v]` the degree of v."""

    def __init__(self, n_vertices, edges, bipartition=None):
        self.n = int(n_vertices)
        arr = np.asarray(edges, dtype=np.int64)
        if arr.shape == (0,):
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {arr.shape}")
        u, v = arr[:, 0], arr[:, 1]
        loop = u == v
        bad = np.flatnonzero(loop | (u < 0) | (u >= self.n) | (v < 0) | (v >= self.n))
        if bad.size:
            i = bad[0]
            if loop[i]:
                raise ValueError(f"self-loop at vertex {u[i]}")
            raise ValueError(f"edge ({u[i]}, {v[i]}) outside vertex range")
        codes = np.unique(np.minimum(u, v) * self.n + np.maximum(u, v))
        if codes.size > EDGE_CAP:
            raise ValueError(f"edge count {codes.size} exceeds cap {EDGE_CAP}")
        self.edges = np.stack((codes // self.n, codes % self.n), axis=1)
        self.degrees = np.bincount(self.edges.ravel(), minlength=self.n)
        self.edges.flags.writeable = self.degrees.flags.writeable = False
        if bipartition is not None:
            n_left, n_right = bipartition
            if n_left + n_right != self.n:
                raise ValueError("bipartition sizes must sum to n_vertices")
            left = self.edges < n_left
            same_side = np.flatnonzero(left[:, 0] == left[:, 1])
            if same_side.size:
                u, v = self.edges[same_side[0]].tolist()
                raise ValueError(f"edge ({u}, {v}) does not cross bipartition")
            self.bipartition = (int(n_left), int(n_right))
        else:
            self.bipartition = None

    @property
    def n_edges(self):
        return len(self.edges)

    def degree(self, v):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return int(self.degrees[v])

    def components(self):
        """Connected components as sorted vertex lists, ordered by their
        smallest vertex.  Min-label propagation with root hooking and
        pointer jumping (Shiloach & Vishkin 1982): each round hooks the
        larger of two roots joined by an edge onto the smaller, then
        jumps pointers until every tree is a star rooted at its minimum."""
        u, v = self.edges[:, 0], self.edges[:, 1]
        root = np.arange(self.n)
        while True:
            ru, rv = root[u], root[v]
            joined = ru != rv
            if not joined.any():
                break
            # full-size value operand: ufunc.at with a broadcast one has
            # returned garbage under numpy 2.4.6
            np.minimum.at(root, np.maximum(ru, rv)[joined],
                          np.minimum(ru, rv)[joined])
            while True:
                up = root[root]
                if np.array_equal(up, root):
                    break
                root = up
        order = np.argsort(root, kind="stable")
        starts = np.flatnonzero(root[order] == order)
        return [c.tolist() for c in np.split(order, starts)[1:]]

    def is_independent(self, vertices):
        vs = np.fromiter(vertices, dtype=np.int64)
        bad = vs[(vs < 0) | (vs >= self.n)]
        if bad.size:
            raise ValueError(f"vertex {bad[0]} out of range")
        inside = np.zeros(self.n, dtype=bool)
        inside[vs] = True
        return not inside[self.edges].all(axis=1).any()

    def __repr__(self):
        return f"HostGraph(n={self.n}, m={self.n_edges})"


def read_edge_list(source) -> HostGraph:
    """Parse an edge list from a string or readable text stream."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source.read().splitlines()
    edges = []
    max_label = -1
    bipartition = None
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if line.startswith("# bipartition "):
            try:
                a, b = line.split()[2:4]
                bipartition = (int(a), int(b))
            except (ValueError, IndexError):
                raise ValueError(f"line {ln}: malformed bipartition header") from None
            continue
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {ln}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {ln}: non-integer label in {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {ln}: negative vertex label")
        if u == v:
            raise ValueError(f"line {ln}: self-loop at {u}")
        edges.append((u, v))
        max_label = max(max_label, u, v)
        if len(edges) > EDGE_CAP:
            raise ValueError(f"edge count exceeds cap {EDGE_CAP}")
    n = max_label + 1 if max_label >= 0 else 0
    if bipartition is not None:
        n = max(n, bipartition[0] + bipartition[1])
    return HostGraph(n, edges, bipartition=bipartition)


def write_edge_list(g: HostGraph, stream, header=None):
    if header:
        for line in header.splitlines():
            stream.write(f"# {line}\n")
    if g.bipartition is not None:
        stream.write(f"# bipartition {g.bipartition[0]} {g.bipartition[1]}\n")
    # one flat list: a list per row would cost more than the formatting
    stream.write("%d %d\n" * g.n_edges % tuple(g.edges.ravel().tolist()))


def power_of_path(n: int, k: int) -> HostGraph:
    """Graph on n path vertices joining pairs at path-distance <= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError("k must be < n")
    return HostGraph(n, np.concatenate(
        [np.stack((np.arange(n - j), np.arange(j, n)), axis=1)
         for j in range(1, k + 1)]))


def complete_graph(n: int) -> HostGraph:
    return HostGraph(n, np.stack(np.triu_indices(n, k=1), axis=1))


def gnm_random(n: int, m: int, seed) -> HostGraph:
    """Uniform random simple graph with exactly m edges."""
    total = n * (n - 1) // 2
    if m > total:
        raise ValueError(f"m = {m} exceeds {total} possible edges")
    rng = np.random.default_rng(seed)
    codes = rng.choice(total, size=m, replace=False)
    # row u covers codes [starts[u], starts[u+1]); within a row, v = u + 1 + offset
    row_sizes = np.arange(n - 1, 0, -1)
    starts = np.concatenate(([0], np.cumsum(row_sizes)))
    u = np.searchsorted(starts, codes, side="right") - 1
    v = u + 1 + (codes - starts[u])
    return HostGraph(n, np.stack((u, v), axis=1))


def gnp_random(n: int, p: float, seed) -> HostGraph:
    """Erdos-Renyi G(n, p)."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    return HostGraph(n, np.stack((iu[mask], iv[mask]), axis=1))
