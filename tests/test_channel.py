"""Edit scripts and the two channel models."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from insdel import channel
from insdel.channel import EditScript, adversarial_block_channel, apply_script, random_channel
from insdel.core import CapacityError, DomainError, ScriptError, insdel_distance, word


def test_apply_script_empty_is_identity():
    w = word((0, 1, 0), 2)
    assert apply_script(w, EditScript(())) == w


def test_apply_script_prepend_insertion():
    out = apply_script(word((0, 1), 2), EditScript((("ins", 1, 1),)))
    assert out.symbols == (1, 0, 1)
    assert insdel_distance(out, word((0, 1), 2)) == 1


def test_apply_script_delete_everything():
    w = word((0, 1, 0), 2)
    out = apply_script(w, EditScript((("del", 1), ("del", 1), ("del", 1))))
    assert out.symbols == ()


def test_apply_script_sequential_positions():
    # After the first deletion the word is (1, 2); position 2 now means
    # the original third symbol.
    out = apply_script(word((0, 1, 2), 3), EditScript((("del", 1), ("del", 2))))
    assert out.symbols == (1,)


@pytest.mark.parametrize(
    "ops",
    [
        (("del", 0),),
        (("del", 3),),
        (("ins", 4, 0),),
        (("ins", 1, 2),),
    ],
)
def test_apply_script_rejects_bad_operations(ops):
    with pytest.raises(ScriptError):
        apply_script(word((0, 1), 2), EditScript(ops))


def test_edit_script_rejects_malformed_shapes():
    with pytest.raises(ScriptError):
        EditScript((("del", 1, 0),))
    with pytest.raises(ScriptError):
        EditScript((("swap", 1),))


def test_edit_script_json_roundtrip():
    script = EditScript((("del", 2), ("ins", 1, 3), ("ins", 4, 0)))
    assert EditScript.from_json_list(script.to_json_list()) == script
    with pytest.raises(ScriptError):
        EditScript.from_json_list([{"op": "move", "pos": 1}])
    # A position or symbol is refused, not truncated, when it is not an integer.
    for record in ({"op": "del", "pos": 1.5}, {"op": "ins", "pos": 1, "sym": 2.9},
                   {"op": "ins", "pos": "1", "sym": 0}, {"op": "del", "pos": True}):
        with pytest.raises(DomainError, match="must be an integer"):
            EditScript.from_json_list([record])


def test_random_channel_no_operations():
    w = word((0, 1, 1, 0), 2)
    out, script = random_channel(w, 0, 0, seed=9)
    assert out == w
    assert len(script) == 0


@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 2 ** 32),
)
def test_random_channel_length_and_distance(n_ins, n_del, seed):
    w = word((0, 1, 2, 0, 1, 2, 2, 1), 3)
    out, script = random_channel(w, n_ins, n_del, seed)
    assert len(out) == len(w) + n_ins - n_del
    assert len(script) == n_ins + n_del
    assert insdel_distance(out, w) <= n_ins + n_del
    assert apply_script(w, script) == out


def test_random_channel_is_deterministic():
    w = word((0, 1, 0, 1, 1, 0), 2)
    first = random_channel(w, 3, 2, seed=77)
    second = random_channel(w, 3, 2, seed=77)
    assert first == second
    assert random_channel(w, 3, 2, seed=78) != first


def test_random_channel_validation():
    w = word((0, 1), 2)
    with pytest.raises(DomainError):
        random_channel(w, 0, 3, seed=1)
    with pytest.raises(DomainError):
        random_channel(w, -1, 0, seed=1)


def test_random_channel_insertion_cap(monkeypatch):
    w = word((0, 1, 1), 2)
    expected = random_channel(w, 4, 1, seed=3)
    monkeypatch.setattr(channel, "_INSERTION_LIMIT", 4)
    assert random_channel(w, 4, 1, seed=3) == expected
    with pytest.raises(CapacityError, match="5 insertions exceed the channel limit 4"):
        random_channel(w, 5, 1, seed=3)
    # Deletion-side domain errors still come first.
    with pytest.raises(DomainError):
        random_channel(w, 5, 4, seed=3)


def test_block_channel_zero_budgets():
    c = word((0, 1, 1, 0, 1, 0), 2)
    out, script = adversarial_block_channel(c, 2, [0, 0, 0], seed=5)
    assert out == c
    assert len(script) == 0


def test_block_channel_replay_and_budget_accounting():
    c = word((0, 1, 2, 1, 0, 2, 2, 0, 1, 1, 0, 2), 3)
    budgets = [2, 0, 3, 1]
    out, script = adversarial_block_channel(c, 3, budgets, seed=31)
    assert apply_script(c, script) == out
    assert len(script) == sum(budgets)
    assert insdel_distance(out, c) <= sum(budgets)


def test_block_channel_is_deterministic():
    c = word((0, 1, 1, 0, 1, 0, 0, 1), 2)
    first = adversarial_block_channel(c, 4, [3, 2], seed=13)
    second = adversarial_block_channel(c, 4, [3, 2], seed=13)
    assert first == second


def test_block_channel_blocks_are_independent():
    """Changing a later block never disturbs an earlier block's output."""
    left = (0, 1, 1, 0)
    c1 = word(left + (0, 0, 1, 1), 2)
    c2 = word(left + (1, 1, 0, 0), 2)
    out1, script1 = adversarial_block_channel(c1, 4, [2, 2], seed=99)
    out2, script2 = adversarial_block_channel(c2, 4, [2, 2], seed=99)
    first_block_ops = script1.ops[:2]
    assert first_block_ops == script2.ops[:2]
    shift = sum(1 if op[0] == "ins" else -1 for op in first_block_ops)
    assert out1.symbols[: 4 + shift] == out2.symbols[: 4 + shift]


def test_block_channel_validation():
    c = word((0, 1, 1, 0), 2)
    with pytest.raises(DomainError):
        adversarial_block_channel(c, 0, [1, 1], seed=1)
    with pytest.raises(DomainError):
        adversarial_block_channel(c, 3, [1, 1], seed=1)
    with pytest.raises(DomainError):
        adversarial_block_channel(c, 2, [1, 5], seed=1)
    with pytest.raises(DomainError):
        adversarial_block_channel(c, 2, [-1, 0], seed=1)
    for seed in (-1, 2 ** 128):
        with pytest.raises(DomainError):
            adversarial_block_channel(c, 2, [1, 1], seed=seed)


CHANNEL_DIGEST = "9a704a4de90dd1e3ee84f53787c16ad9800394898e7f28efab4fc4e283b208c4"


def test_channels_are_pinned():
    """Seeded outputs and scripts of both channels, hashed; each script replays to its output."""
    digest = hashlib.sha256()

    def record(w, out, script):
        assert apply_script(w, script) == out
        digest.update(repr((out, script)).encode("ascii"))

    for q in (2, 3, 4, 11):
        for length in (0, 1, 2, 7):
            w = word(tuple((5 * i * i + 3 * i + q) % q for i in range(length)), q)
            for n_del in range(min(length, 3) + 1):
                for n_ins in (0, 1, 4):
                    seed = 1000 * q + 100 * length + 10 * n_del + n_ins
                    record(w, *random_channel(w, n_ins, n_del, seed))
        for block_len in (1, 2, 3):
            top = 2 * block_len
            for blocks in (0, 1, 3):
                c = word(tuple((7 * i + q * block_len) % q for i in range(block_len * blocks)), q)
                for budgets in (
                    [0] * blocks,
                    [top] * blocks,
                    [(3 * j + q) % (top + 1) for j in range(blocks)],
                ):
                    seed = 2 ** 64 + 100 * q + 10 * block_len + blocks + sum(budgets)
                    record(c, *adversarial_block_channel(c, block_len, budgets, seed))
    assert digest.hexdigest() == CHANNEL_DIGEST
