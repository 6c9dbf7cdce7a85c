"""Counting the words one edit burst away from a fixed center.

Insertion spheres have an exact closed form that depends only on the
lengths.  Deletion spheres depend on the center's run count, and only
a sandwich is available; this script shows both ends being touched.
"""

from insdel.core import count_runs, parse_word
from insdel.spheres import (
    deletion_sphere_bounds,
    enumerate_deletion_sphere,
    enumerate_insertion_sphere,
    insertion_sphere_size,
)

center = parse_word("0101", 2)
for n2 in range(4):
    sphere = enumerate_insertion_sphere(center, n2)
    formula = insertion_sphere_size(len(center), n2, 2)
    print(f"insertions={n2}: enumerated {len(sphere):4d}, formula {formula:4d}")

print()

# Same number of runs, opposite extremes of the deletion sandwich.
alternating = parse_word("0101", 2)  # runs of length 1: fewest subsequences
blocky = parse_word("00110011", 2)  # runs of length 2: most subsequences
for c in (alternating, blocky):
    phi = count_runs(c)
    lo, hi = deletion_sphere_bounds(phi, 2)
    got = len(enumerate_deletion_sphere(c, 2))
    print(f"delete 2 from {c} (phi={phi}): size {got}, sandwich [{lo}, {hi}]")
