"""Walk through the affine plane construction that drives the coloring.

Builds the order-3 plane, prints its parallel classes, and verifies the
incidence axioms by brute force: every pair of points lies on exactly
one line, and each class partitions the points.
"""

import itertools

from pathramsey import build_plane

plane = build_plane(3)
print(f"order {plane.q}: {plane.n_points} points, {plane.n_lines} lines, "
      f"{len(plane.classes)} parallel classes\n")

for idx, cls in enumerate(plane.classes):
    lines = [sorted(plane.lines[i]) for i in cls]
    print(f"class {idx + 1}: {lines}")

print("\nchecking incidence axioms exhaustively...")
for a, b in itertools.combinations(range(1, plane.n_points + 1), 2):
    on = [line for line in plane.lines if a in line and b in line]
    assert len(on) == 1, (a, b)
for cls in plane.classes:
    covered = sorted(p for i in cls for p in plane.lines[i])
    assert covered == list(range(1, plane.n_points + 1))
print("every point pair lies on exactly one line; every class "
      "partitions the point set")

# the line through two points decides an edge color in the adversary;
# the lookup tables answer it without searching the line listing
x, y = 2, 9
line = plane.line_of[x, y]
color = line // plane.q + 1
print(f"\nline through parts {x} and {y}: line_of[{x}, {y}] = {line}, "
      f"points {sorted(plane.lines[line])}, in class {color}; an edge "
      f"between these parts gets color {color}")
print(f"lines through point {x}, one per class: "
      f"point_line[:, {x}] = {plane.point_line[:, x].tolist()}")
