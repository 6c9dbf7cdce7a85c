"""Insertion-deletion channel simulation, random and block-adversarial.

Edit scripts use sequential semantics: each operation's position refers
to the word as it stands when that operation is applied, with positions
counted from 1.  A deletion removes the symbol at position p; an
insertion places its symbol before position p, so p = 1 prepends and
p = current length + 1 appends.  This makes scripts replayable and
serializable without any global coordinate bookkeeping.

Both channels apply each operation to a list of symbols as they draw
it, so apply_script replays the returned script to the returned word.
The draw order is the seeded stream contract: the block channel's
delete-or-insert coin (only while the block is nonempty), then the
position, then the inserted symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .codes import Seed, check_seed, philox_generator
from .core import CapacityError, DomainError, ScriptError, Word, _whole

if TYPE_CHECKING:
    import numpy as np

DELETE = "del"
INSERT = "ins"

# A random channel edits one list in memory, so its insertions are capped.
_INSERTION_LIMIT = 10 ** 6


@dataclass(frozen=True)
class EditScript:
    """Ordered insertion/deletion operations with 1-based positions.

    Operations are tuples ("del", pos) or ("ins", pos, symbol).
    """

    ops: tuple[tuple, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple([tuple(op) for op in self.ops]))
        for op in self.ops:
            if op[0] == DELETE and len(op) == 2:
                continue
            if op[0] == INSERT and len(op) == 3:
                continue
            raise ScriptError(f"malformed operation {op!r}")

    def __len__(self) -> int:
        return len(self.ops)

    def to_json_list(self) -> list[dict]:
        out = []
        for op in self.ops:
            if op[0] == DELETE:
                out.append({"op": DELETE, "pos": op[1]})
            else:
                out.append({"op": INSERT, "pos": op[1], "sym": op[2]})
        return out

    @classmethod
    def from_json_list(cls, items: Iterable[dict]) -> "EditScript":
        """Read to_json_list's records; a position or symbol must be an integer (core._whole)."""
        ops = []
        for item in items:
            if item.get("op") == DELETE:
                ops.append((DELETE, _whole(item["pos"], "an edit position")))
            elif item.get("op") == INSERT:
                pos = _whole(item["pos"], "an edit position")
                ops.append((INSERT, pos, _whole(item["sym"], "an inserted symbol")))
            else:
                raise ScriptError(f"malformed operation record {item!r}")
        return cls(tuple(ops))


def apply_script(w: Word, script: EditScript) -> Word:
    """Apply an edit script; the result is within len(script) of w."""
    syms = list(w.symbols)
    for op in script.ops:
        if op[0] == DELETE:
            pos = op[1]
            if not 1 <= pos <= len(syms):
                raise ScriptError(f"delete position {pos} invalid at length {len(syms)}")
            del syms[pos - 1]
        else:
            pos, sym = op[1], op[2]
            if not 1 <= pos <= len(syms) + 1:
                raise ScriptError(f"insert position {pos} invalid at length {len(syms)}")
            if not 0 <= sym < w.q:
                raise ScriptError(f"insert symbol {sym} outside alphabet of size {w.q}")
            syms.insert(pos - 1, sym)
    return Word(tuple(syms), w.q)


def _delete(rng: np.random.Generator, out: list[int], ops: list[tuple], offset: int) -> None:
    """Delete a uniform symbol of out[offset:], recording the op in whole-word coordinates."""
    pos = offset + int(rng.integers(1, len(out) - offset + 1))
    del out[pos - 1]
    ops.append((DELETE, pos))


def _insert(
    rng: np.random.Generator, out: list[int], ops: list[tuple], offset: int, q: int
) -> None:
    """Insert a uniform symbol at a uniform gap of out[offset:], drawing the position first."""
    pos = offset + int(rng.integers(1, len(out) - offset + 2))
    sym = int(rng.integers(0, q))
    out.insert(pos - 1, sym)
    ops.append((INSERT, pos, sym))


def random_channel(w: Word, n_ins: int, n_del: int, seed: Seed) -> tuple[Word, EditScript]:
    """Uniformly random channel: n_del deletions then n_ins insertions.

    Output length is always len(w) + n_ins - n_del, and the distance to
    w is at most n_ins + n_del.  Deterministic per seed.  More than 10^6
    insertions raise CapacityError before anything is drawn.
    """
    if n_ins < 0 or n_del < 0:
        raise DomainError("operation counts must be nonnegative")
    if n_del > len(w):
        raise DomainError(f"cannot delete {n_del} symbols from a word of length {len(w)}")
    if n_ins > _INSERTION_LIMIT:
        raise CapacityError(f"{n_ins} insertions exceed the channel limit {_INSERTION_LIMIT}")
    rng = philox_generator(seed)
    out = list(w.symbols)
    ops: list[tuple] = []
    for _ in range(n_del):
        _delete(rng, out, ops, 0)
    for _ in range(n_ins):
        _insert(rng, out, ops, 0, w.q)
    return Word._unchecked(tuple(out), w.q), EditScript(tuple(ops))


def adversarial_block_channel(
    c: Word, block_len: int, budgets: list[int], seed: Seed
) -> tuple[Word, EditScript]:
    """Apply an exact per-block edit budget to each length-block_len block.

    Block i gets its own Philox stream keyed by (seed, i), so blocks can
    be processed independently without changing the outcome.  Each block
    gets exactly budgets[i] operations (a uniform coin picks delete
    versus insert while deletion is possible), so the realized per-block
    distance never exceeds the budget.  Block i is edited as the tail of
    the output once blocks 0..i-1 are done, so its ops are recorded in
    whole-word coordinates, in left-to-right application order.
    """
    import numpy as np

    check_seed(seed)
    if block_len < 1:
        raise DomainError("block length must be at least 1")
    if len(c) != block_len * len(budgets):
        raise DomainError(
            f"word length {len(c)} is not block_len * #budgets = "
            f"{block_len * len(budgets)}"
        )
    for i, b in enumerate(budgets):
        if not 0 <= b <= 2 * block_len:
            raise DomainError(f"budget {b} for block {i} outside [0, 2*block_len]")
    out: list[int] = []
    ops: list[tuple] = []
    for i, b in enumerate(budgets):
        offset = len(out)
        out.extend(c.symbols[i * block_len : (i + 1) * block_len])
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i))))
        for _ in range(b):
            if len(out) > offset and int(rng.integers(0, 2)) == 0:
                _delete(rng, out, ops, offset)
            else:
                _insert(rng, out, ops, offset, c.q)
    return Word._unchecked(tuple(out), c.q), EditScript(tuple(ops))
