"""Affine plane AG(2, q) built from slope/intercept lines over GF(q).

Points are coordinate pairs over GF(q) carrying the 1-based label
enc(x) * q + enc(y) + 1, where enc is the deterministic field element
enumeration.  Lines with the same slope form a parallel class; the
vertical lines x = const are the final class, and line i belongs to
class i // q.  Two int tables over the labels 0..q^2 answer incidence
queries in array code; label 0 stands for "no point" (the adversary's
v0 vertices) and maps to -1.
"""

from dataclasses import dataclass, field

import numpy as np

from .finite_field import field_for_order

PLANE_ORDER_CAP = 16


@dataclass(frozen=True)
class AffinePlane:
    q: int
    # coords[label - 1] = (enc(x), enc(y))
    coords: tuple
    # lines[i] = sorted tuple of point labels; classes[c] = tuple of line indices
    lines: tuple
    classes: tuple
    # line_of[a, b] = index of the line through labels a != b; -1 when
    # a == b or either label is 0
    line_of: np.ndarray = field(repr=False, compare=False)
    # point_line[c, x] = index of the class-c line through label x; -1 at x = 0
    point_line: np.ndarray = field(repr=False, compare=False)

    @property
    def n_points(self) -> int:
        return self.q * self.q

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def line_through(self, a: int, b: int) -> int:
        """Index of the unique line containing distinct point labels a, b."""
        if a == b:
            raise ValueError("line_through needs two distinct points")
        for v in (a, b):
            if not 1 <= v <= self.n_points:
                raise ValueError(f"point label {v} outside 1..{self.n_points}")
        return int(self.line_of[a, b])

    def class_of(self, line_index: int) -> int:
        """Parallel class (0-based) containing the line."""
        if not 0 <= line_index < self.n_lines:
            raise ValueError(f"line index {line_index} outside 0..{self.n_lines - 1}")
        return line_index // self.q


def build_plane(q: int) -> AffinePlane:
    """Construct AG(2, q) for a prime power q in [2, 16]."""
    if q < 2:
        raise ValueError("plane order must be at least 2")
    if q > PLANE_ORDER_CAP:
        raise ValueError(f"plane order {q} exceeds cap {PLANE_ORDER_CAP}")
    spec = field_for_order(q)  # raises for non prime powers
    elems = spec.elements()

    def label(x, y):
        return x.index * q + y.index + 1

    coords = [None] * (q * q)
    for x in elems:
        for y in elems:
            coords[label(x, y) - 1] = (x.index, y.index)

    lines = []
    classes = []
    # non-vertical lines y = m*x + b, one class per slope m
    for m in elems:
        start = len(lines)
        for b in elems:
            pts = sorted(label(x, m * x + b) for x in elems)
            lines.append(tuple(pts))
        classes.append(tuple(range(start, len(lines))))
    # vertical lines x = c
    start = len(lines)
    for c in elems:
        pts = sorted(label(c, y) for y in elems)
        lines.append(tuple(pts))
    classes.append(tuple(range(start, len(lines))))

    line_of = np.full((q * q + 1, q * q + 1), -1, dtype=np.int64)
    point_line = np.full((q + 1, q * q + 1), -1, dtype=np.int64)
    for idx, line in enumerate(lines):
        pts = np.asarray(line)
        line_of[np.ix_(pts, pts)] = idx
        point_line[idx // q, pts] = idx
    np.fill_diagonal(line_of, -1)
    line_of.flags.writeable = False
    point_line.flags.writeable = False

    return AffinePlane(q, tuple(coords), tuple(lines), tuple(classes),
                       line_of, point_line)


def classes_as_point_sets(plane: AffinePlane):
    """Each class as a list of point-label tuples (one per line)."""
    return [[plane.lines[i] for i in cls] for cls in plane.classes]


def find_incidence_isomorphism(plane: AffinePlane, target_classes):
    """Search for a point bijection mapping the plane's classes onto
    `target_classes` (a list of lists of point-label collections).

    Returns the mapping as a dict or None.  Backtracking over point
    images with line-structure pruning; intended for q <= 3 scale.
    """
    n = plane.n_points
    own = [frozenset(frozenset(line) for line in cls)
           for cls in classes_as_point_sets(plane)]
    tgt = [frozenset(frozenset(line) for line in cls) for cls in target_classes]
    if sorted(len(c) for c in own) != sorted(len(c) for c in tgt):
        return None
    tgt_lines = frozenset(l for cls in tgt for l in cls)
    own_lines = [frozenset(line) for line in plane.lines]

    mapping = {}
    used = set()

    def consistent():
        # every fully mapped line must land on a target line
        for line in own_lines:
            if all(p in mapping for p in line):
                if frozenset(mapping[p] for p in line) not in tgt_lines:
                    return False
        return True

    def extend(p):
        if p > n:
            return True
        for img in range(1, n + 1):
            if img in used:
                continue
            mapping[p] = img
            used.add(img)
            if consistent() and extend(p + 1):
                return True
            del mapping[p]
            used.remove(img)
        return False

    if not extend(1):
        return None
    # final check: classes must map onto classes
    mapped = {frozenset(frozenset(mapping[p] for p in line) for line in cls)
              for cls in own}
    if mapped == set(tgt):
        return dict(mapping)
    return None
