"""Seeded synchronization channels: scripts, replay, block budgets."""

from insdel.channel import adversarial_block_channel, apply_script, random_channel
from insdel.core import insdel_distance, parse_word

sent = parse_word("0110100110", 2)

# A free-position channel with separate insertion and deletion budgets.
out, script = random_channel(sent, n_ins=2, n_del=3, seed=5)
print(f"sent     {sent}")
print(f"received {out}  (distance {insdel_distance(sent, out)})")
print("script:")
for op in script.ops:
    print(f"  {op}")

# Scripts are data: replaying one reproduces the corruption exactly.
assert apply_script(sent, script) == out

# The block variant spends per-block budgets and keeps the blocks'
# randomness independent, so block j's edits never depend on block i.
out, script = adversarial_block_channel(sent, block_len=5, budgets=[1, 3], seed=5)
print(f"\nblock channel: {sent} -> {out} via {len(script.ops)} edits")
