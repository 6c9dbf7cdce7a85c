"""Output checks for every benchmark op, and a self-check that each can fail.

Each check returns a list of failure messages; an empty list means the
op's output is correct.  CLI outputs are held to SHA-256 pins and, where
`tests/oracles.py` has an independent reference, to that reference too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

PINS = json.loads((Path(__file__).resolve().parent / "pins.json").read_text())
DEFAULT_SEED = PINS["default_seed"]


def concat_errors(params, sent, report) -> list[str]:
    """The three runtime guarantees of a concat decode."""
    errors = []
    if sent not in report.codewords:
        errors.append("sent codeword missing from the decoded list")
    if report.list_mass > params.ell_out:
        errors.append(f"list mass {report.list_mass} exceeds ell_out {params.ell_out}")
    cap = report.window_count * report.max_inner_list * (params.tau / params.eps_cont + 1)
    if report.list_mass > cap:
        errors.append(f"list mass {report.list_mass} exceeds the window bound {cap}")
    return errors


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pin_errors(name: str, seeded: bool, seed: int, stdout: bytes) -> list[str]:
    """Compare against the pinned digest; seeded ops are pinned for the default seed only."""
    if seeded and seed != DEFAULT_SEED:
        return []
    want = PINS["sha256"][name]
    got = sha256(stdout)
    return [] if got == want else [f"stdout sha256 {got[:12]} differs from pin {want[:12]}"]


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _symbols(text: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in text)


def _listing(stdout: bytes) -> list[str]:
    return stdout.decode().split()


def _fixed_length_oracle(center: str, q: int, length: int, keep) -> list[str]:
    import oracles

    words = oracles.word_matrix(q, length)
    lcs = oracles.batched_lcs(_symbols(center), words)
    return ["".join(map(str, row)) for row, v in zip(words.tolist(), lcs.tolist()) if keep(v)]


def _within(code: list[str], center: str, tau_n: int) -> int:
    import oracles

    return sum(1 for w in code if oracles.distance_ref(_symbols(w), _symbols(center)) <= tau_n)


def _certify_oracle(code: list[str], n: int, tau_n: int, L: int):
    """First violating center in length-then-lexicographic order, or None."""
    import oracles

    for m in range(max(0, n - tau_n), n + tau_n + 1):
        for syms in oracles.all_tuples(2, m):
            center = "".join(map(str, syms))
            if _within(code, center, tau_n) > L:
                return center
    return None


def oracle_errors(name: str, argv: list[str], stdout: bytes) -> list[str]:
    """Independent checks of one CLI op's stdout, by op name."""
    import oracles

    text = stdout.decode()
    if name.startswith("curve-"):
        rows = text.splitlines()
        steps = int(_arg(argv, "--steps"))
        if rows[:1] != ["x,rate_raw,rate_clamped,list_size_class,flag"] or len(rows) != steps + 1:
            return ["curve CSV has the wrong header or row count"]
        return ["curve has domain_error rows"] if "domain_error" in text else []
    if name == "distance":
        want = oracles.distance_ref(_symbols(argv[-2]), _symbols(argv[-1]))
        return [] if text.strip() == str(want) else [f"distance {text.strip()} != oracle {want}"]
    if name == "sphere":
        center, radius = _arg(argv, "--center"), int(_arg(argv, "--radius"))
        want = _fixed_length_oracle(center, 2, len(center) + radius, lambda v: v == len(center))
        return [] if _listing(stdout) == want else ["insertion sphere differs from the oracle"]
    if name == "ball":
        center, radius = _arg(argv, "--center"), int(_arg(argv, "--radius"))
        length = int(_arg(argv, "--length"))
        want = _fixed_length_oracle(
            center, 2, length, lambda v: len(center) + length - 2 * v <= radius
        )
        return [] if _listing(stdout) == want else ["ball slice differs from the oracle"]
    if name.startswith("certify-"):
        code = json.loads(Path(_arg(argv, "--code-file")).read_text())
        tau_n, L = int(_arg(argv, "--tau-n")), int(_arg(argv, "-L"))
        got = json.loads(text)
        witness = _certify_oracle(code["words"], code["n"], tau_n, L)
        if name == "certify-exhaustive":
            ok = (got["ok"], got["witness"]) == (witness is None, witness)
            return [] if ok else [f"certify verdict {got['ok']} differs from the oracle"]
        if got["witness"] is not None:
            violates = _within(code["words"], got["witness"], tau_n) > L
            return [] if violates else ["sampled certify reported a non-violating witness"]
        return [] if witness is None or got["ok"] else ["sampled verdict is inconsistent"]
    if name == "gv-greedy":
        got = json.loads(text)
        words, d = got["words"], got["d"]
        dists = [
            oracles.distance_ref(_symbols(a), _symbols(b))
            for i, a in enumerate(words)
            for b in words[i + 1 :]
        ]
        if got["size"] != len(words) or got["min_distance"] != min(dists) or min(dists) < d:
            return ["greedy code size or minimum distance is wrong"]
        for syms in oracles.all_tuples(2, got["n"]):
            if all(oracles.distance_ref(syms, _symbols(w)) >= d for w in words):
                if "".join(map(str, syms)) not in words:
                    return ["greedy code is not maximal"]
        return []
    if name == "sample":
        digest = text.strip()
        ok = len(digest) == 64 and all(c in "0123456789abcdef" for c in digest)
        return [] if ok else ["sample digest is not a sha256 hex string"]
    if name == "concat-roundtrip":
        got = json.loads(text)
        params = json.loads(Path(_arg(argv, "--params")).read_text())
        budget = int(_arg(argv, "--budget"))
        dist = oracles.distance_ref(_symbols(got["sent"]), _symbols(got["received"]))
        errors = []
        if not got["contained"] or got["list_size"] < 1:
            errors.append("sent codeword missing from the decoded list")
        if got["list_mass"] > params["ell_out"]:
            errors.append("list mass exceeds ell_out")
        if sum(got["budgets"]) != budget or got["script_length"] != budget or dist > budget:
            errors.append("channel did not spend exactly the budget")
        return errors
    raise KeyError(f"no check for op {name!r}")


def cli_errors(op, seed: int, returncode: int, stdout: bytes) -> list[str]:
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        return pin_errors(op.name, op.seeded, seed, stdout) + oracle_errors(op.name, op.argv, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # unparseable output
        return [f"output does not parse: {type(exc).__name__}: {exc}"]


def _drop_first_line(out: bytes) -> bytes:
    return out.split(b"\n", 1)[1]


def _json_edit(**changes):
    def edit(out: bytes) -> bytes:
        return (json.dumps({**json.loads(out), **changes}, indent=2) + "\n").encode()

    return edit


# Op name -> a corruption of its correct stdout that the oracle check must catch.
_ORACLE_MUTATIONS = {
    "curve-zyablov": lambda out: out + b"0.900000,,,,domain_error\n",
    "curve-random_binary": _drop_first_line,
    "curve-random_q3": lambda out: out.replace(b",constant,", b",,,,domain_error", 1),
    "certify-exhaustive": _json_edit(ok=False, witness="0000"),
    "certify-sampled": _json_edit(ok=False, witness="1010101"),
    "sphere": _drop_first_line,
    "ball": lambda out: out + b"1111111111\n",
    "gv-greedy": _json_edit(min_distance=2),
    "distance": lambda out: str(int(out) + 2).encode() + b"\n",
    "sample": lambda out: out[:10] + b"\n",
    "concat-roundtrip": _json_edit(contained=False),
}


def selfcheck(concat_workloads, cli_outputs) -> list[str]:
    """Show that every check rejects a corrupted output; returns the checks that did not.

    cli_outputs holds (op, returncode, stdout) for each CLI op, as the
    benchmark's own subprocess runner returned them.
    """
    missed = []
    for wl in concat_workloads:
        sent, report = wl.op(wl.draw())
        if concat_errors(wl.params, sent, report):
            missed.append(f"{wl.name}: a correct decode was rejected")
        others = tuple(w for w in report.codewords if w != sent) or (report.codewords[0][1:],)
        cases = {
            "containment": dataclasses.replace(report, codewords=others),
            "ell_out": dataclasses.replace(report, list_mass=wl.params.ell_out + 1),
            "window bound": dataclasses.replace(report, max_inner_list=0),
        }
        for label, bad in cases.items():
            if not concat_errors(wl.params, sent, bad):
                missed.append(f"{wl.name}: the {label} check accepted a bad report")
    for op, code, out in cli_outputs:
        if cli_errors(op, DEFAULT_SEED, code, out):
            missed.append(f"{op.name}: a correct output was rejected")
        if not cli_errors(op, DEFAULT_SEED, 1, out):
            missed.append(f"{op.name}: the exit-code check accepted exit 1")
        if not pin_errors(op.name, op.seeded, DEFAULT_SEED, out + b" "):
            missed.append(f"{op.name}: the pin check accepted changed output")
        if not oracle_errors(op.name, op.argv, _ORACLE_MUTATIONS[op.name](out)):
            missed.append(f"{op.name}: the oracle check accepted a corrupted output")
    return missed
