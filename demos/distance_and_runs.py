"""Edit distance and run structure on a few small words."""

from insdel.core import insdel_distance, parse_word, run_profile

a = parse_word("01101", 2)
b = parse_word("10110", 2)
print(f"distance({a}, {b}) = {insdel_distance(a, b)}")
print(f"distance({a}, {a}) = {insdel_distance(a, a)}")
print(f"distance({a}, '') = {insdel_distance(a, parse_word('', 2))}")
print()

# The run profile drives every sphere and ball estimate downstream:
# w nonzero symbols, t empty gaps between them, phi maximal runs.
for text in ("0110", "00100", "11111", "0102010"):
    q = 3 if "2" in text else 2
    w = parse_word(text, q)
    p = run_profile(w)
    print(f"{text:>8}  (q={q})  w={p.w}  t={p.t}  phi={p.phi}")

print()
print("for 0 < w < m the run count is pinched between 2(w-t)+1 and 2w-t+1:")
w = parse_word("0102010", 3)
p = run_profile(w)
print(f"  {2 * (p.w - p.t) + 1} <= {p.phi} <= {2 * p.w - p.t + 1}")
