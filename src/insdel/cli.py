"""Command-line surface: distances, spheres, curves, codes, channels, concat.

Output conventions: words use the serialization from the core module
(digit strings for q <= 10, comma-separated integers above), structured
results are JSON with two-space indents, and curves are CSV with the
header ``x,rate_raw,rate_clamped,list_size_class,flag``.  Everything is
deterministic: randomized subcommands demand an explicit --seed, and
identical invocations produce byte-identical output.

Exit codes: 0 success, 2 usage or file error, 3 domain error, 4 capacity error.

Only core is imported with this module.  Each handler imports the
modules it runs (json included) when it runs, and looks their functions
up at call time, so a subcommand loads nothing it does not use.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import (
    CapacityError,
    DomainError,
    InsdelError,
    RegimeWarning,
    Word,
    _whole,
    format_word,
    insdel_distance,
    parse_word,
    run_profile,
)

if TYPE_CHECKING:
    from .bounds import RatePoint
    from .codes import Code
    from .concat import ConcatParams

CURVE_KINDS = (
    "singleton",
    "gv",
    "random_q3",
    "random_binary",
    "zyablov",
    "insertion_only",
    "deletion_only",
    "large_q",
)

CSV_HEADER = "x,rate_raw,rate_clamped,list_size_class,flag"

# A sweep is rendered whole in memory, so its row count is capped.
_CURVE_STEP_LIMIT = 10 ** 6


@dataclass(frozen=True)
class CurveRequest:
    """A sweep of one bound formula: kind, alphabet, epsilon, and grid."""

    kind: str
    q: int
    epsilon: float
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.kind not in CURVE_KINDS:
            raise DomainError(f"unknown curve kind {self.kind!r}")
        if self.steps < 2:
            raise DomainError("a sweep needs at least 2 steps")
        if self.q < 2:
            raise DomainError("alphabet size must be at least 2")
        if self.steps > _CURVE_STEP_LIMIT:
            raise CapacityError(f"{self.steps} steps exceed the sweep limit {_CURVE_STEP_LIMIT}")


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    import json

    _emit(args, json.dumps(payload, indent=2) + "\n")


def _sorted_words(words) -> list[Word]:
    return sorted(words, key=lambda w: (len(w), w.symbols))


def cmd_distance(args: argparse.Namespace) -> int:
    a = parse_word(args.a, args.q)
    b = parse_word(args.b, args.q)
    _emit(args, f"{insdel_distance(a, b)}\n")
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    profile = run_profile(parse_word(args.word, args.q))
    _emit_json(
        args,
        {
            "word": args.word,
            "q": args.q,
            "run_count": profile.phi,
            "weight": profile.w,
            "empty_zero_gaps": profile.t,
        },
    )
    return 0


def cmd_sphere(args: argparse.Namespace) -> int:
    from .spheres import enumerate_deletion_sphere, enumerate_insertion_sphere

    center = parse_word(args.center, args.q)
    if args.kind == "insertion":
        words = enumerate_insertion_sphere(center, args.radius)
    else:
        words = enumerate_deletion_sphere(center, args.radius)
    lines = "".join(format_word(w) + "\n" for w in _sorted_words(words))
    _emit(args, lines)
    return 0


def cmd_ball(args: argparse.Namespace) -> int:
    from .spheres import BallQuery, enumerate_ball_fixed_length

    center = parse_word(args.center, args.q)
    query = BallQuery(center=center, radius=args.radius, target_len=args.length)
    words = enumerate_ball_fixed_length(query, mode=args.mode)
    lines = "".join(format_word(w) + "\n" for w in _sorted_words(words))
    _emit(args, lines)
    return 0


def _curve_point(req: CurveRequest, x: float, bounds) -> RatePoint:
    if req.kind == "singleton":
        return bounds.RatePoint(x=x, rate=max(0.0, 1.0 - x), raw=1.0 - x)
    if req.kind == "gv":
        return bounds.RatePoint(
            x=x, rate=bounds.gv_lower_rate(req.q, x), raw=bounds.gv_lower_rate_raw(req.q, x)
        )
    if req.kind == "random_q3":
        return bounds.random_rate_tau_q3(req.q, x, req.epsilon)
    if req.kind == "random_binary":
        return bounds.random_rate_tau_binary(x, req.epsilon)
    if req.kind == "insertion_only":
        return bounds.rate_insertion_only(req.q, x, req.epsilon)
    if req.kind == "deletion_only":
        return bounds.rate_deletion_only(req.q, x, req.epsilon)
    if req.kind == "large_q":
        return bounds.large_q_rate(x, req.epsilon)
    point = bounds.zyablov_tau(bounds.ZyablovQuery(q=req.q, R=x, epsilon=req.epsilon))
    return bounds.RatePoint(
        x=x, rate=max(0.0, point.tau), raw=point.tau, list_size_class="polynomial"
    )


def render_curve(req: CurveRequest) -> str:
    """CSV text for a sweep; per-row domain failures land in the flag column."""
    from . import bounds

    rows = [CSV_HEADER]
    span = req.stop - req.start
    for i in range(req.steps):
        x = req.start + span * i / (req.steps - 1)
        flag = ""
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            try:
                point = _curve_point(req, x, bounds)
            except DomainError:
                rows.append(f"{x:.6f},,,,domain_error")
                continue
        if any(issubclass(w.category, RegimeWarning) for w in captured):
            flag = "regime_warning"
        rows.append(
            f"{x:.6f},{point.raw:.6f},{point.rate:.6f},{point.list_size_class},{flag}"
        )
    return "\n".join(rows) + "\n"


def cmd_curve(args: argparse.Namespace) -> int:
    req = CurveRequest(
        kind=args.kind,
        q=args.q,
        epsilon=args.epsilon,
        start=args.start,
        stop=args.stop,
        steps=args.steps,
    )
    _emit(args, render_curve(req))
    return 0


def cmd_gv_greedy(args: argparse.Namespace) -> int:
    from .codes import code_stats, greedy_gv_code

    code = greedy_gv_code(args.q, args.n, args.d)
    stats = code_stats(code)
    _emit_json(
        args,
        {
            "q": code.q,
            "n": code.n,
            "d": args.d,
            "size": stats.size,
            "rate": stats.rate,
            "min_distance": stats.min_distance,
            "relative_distance": stats.relative_distance,
            "words": [format_word(w) for w in code.sorted_words()],
        },
    )
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    from .codes import (
        Code,
        code_digest,
        code_to_json_dict,
        sample_random_linear_code,
        sample_word_sequence,
    )

    if args.linear:
        if args.k is None:
            raise DomainError("--linear needs a dimension -k")
        code = sample_random_linear_code(args.q, args.n, args.k, args.seed)
        listing = code.sorted_words()
    else:
        if args.size is None:
            raise DomainError("need a code size -M (or --linear with -k)")
        listing = sample_word_sequence(args.q, args.n, args.size, args.seed)
        code = Code(q=args.q, n=args.n, words=frozenset(listing))
    if args.digest:
        _emit(args, code_digest(code) + "\n")
    elif args.json:
        _emit_json(args, code_to_json_dict(code))
    else:
        _emit(args, "".join(format_word(w) + "\n" for w in listing))
    return 0


def _load_json_object(path: str) -> dict:
    """Read a JSON object; OSError (exit 2) if unreadable, DomainError if not an object."""
    import json

    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise DomainError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"{path} holds JSON {type(data).__name__}, not an object")
    return data


def _load_code(path: str) -> Code:
    from .codes import Code

    data = _load_json_object(path)
    try:
        q = _whole(data["q"], "code file has a malformed field: q")
        n = _whole(data["n"], "code file has a malformed field: n")
        words = frozenset(parse_word(s, q) for s in data["words"])
    except InsdelError:
        raise
    except KeyError as exc:
        raise DomainError(f"code file is missing field {exc.args[0]!r}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise DomainError(f"code file has a malformed field: {exc}") from exc
    return Code(q=q, n=n, words=words)


def cmd_certify(args: argparse.Namespace) -> int:
    from .decode import certify_list_decodable

    code = _load_code(args.code_file)
    ok, witness = certify_list_decodable(
        code,
        args.tau_n,
        args.L,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
    )
    _emit_json(
        args,
        {
            "ok": ok,
            "witness": None if witness is None else format_word(witness),
            "tau_n": args.tau_n,
            "L": args.L,
            "mode": args.mode,
            "samples": args.samples if args.mode == "sampled" else None,
            "seed": args.seed,
        },
    )
    return 0


def cmd_channel(args: argparse.Namespace) -> int:
    from .channel import adversarial_block_channel, random_channel

    w = parse_word(args.word, args.q)
    if args.budgets is not None:
        if args.block_len is None:
            raise DomainError("--budgets needs --block-len")
        result, script = adversarial_block_channel(w, args.block_len, args.budgets, args.seed)
        bound = sum(args.budgets)
    else:
        result, script = random_channel(w, args.insertions, args.deletions, args.seed)
        bound = args.insertions + args.deletions
    _emit_json(
        args,
        {
            "q": args.q,
            "input": format_word(w),
            "result": format_word(result),
            "result_length": len(result),
            "script": script.to_json_list(),
            "distance_bound": bound,
            "seed": args.seed,
        },
    )
    return 0


def _load_params(path: str) -> ConcatParams:
    from .concat import params_from_json_dict

    return params_from_json_dict(_load_json_object(path))


def _int_list(text: str) -> list[int]:
    """argparse type for a comma-separated integer list."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def _finite_float(text: str) -> float:
    """argparse type for a finite float: nan and +-inf are argument errors."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_symbols(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise DomainError(f"bad symbol list {text!r}") from exc


def cmd_concat_encode(args: argparse.Namespace) -> int:
    from .concat import concat_encode, concat_encode_message

    params = _load_params(args.params)
    if (args.message is None) == (args.outer is None):
        raise DomainError("give exactly one of --message or --outer")
    if args.message is not None:
        word = concat_encode_message(params, _parse_symbols(args.message))
    else:
        word = concat_encode(params, _parse_symbols(args.outer))
    _emit(args, format_word(word) + "\n")
    return 0


def cmd_concat_decode(args: argparse.Namespace) -> int:
    from .concat import list_decode_concat_detailed

    params = _load_params(args.params)
    received = parse_word(args.word, params.q)
    report = list_decode_concat_detailed(params, received)
    _emit_json(
        args,
        {
            "count": len(report.codewords),
            "codewords": [format_word(w) for w in report.codewords],
            "window_count": report.window_count,
            "list_mass": report.list_mass,
            "max_inner_list": report.max_inner_list,
        },
    )
    return 0


def concat_roundtrip(params: ConcatParams, seed: int, budget: int) -> dict:
    """Encode a random message, corrupt it within budget, decode, report.

    The budget is spread over blocks one random unit edit at a time,
    each block capped at 2n; containment of the sent codeword is
    reported, not asserted, since budgets beyond the decoder's
    guarantee are allowed.
    """
    from .channel import adversarial_block_channel
    from .codes import philox_generator
    from .concat import concat_encode_message, list_decode_concat_detailed

    if budget < 0 or budget > 2 * params.n * params.N:
        raise DomainError(f"budget {budget} outside [0, {2 * params.n * params.N}]")
    rng = philox_generator(seed)
    message = rng.integers(0, params.p, size=params.K)
    sent = concat_encode_message(params, message)
    budgets = [0] * params.N
    cap = 2 * params.n
    remaining = budget
    while remaining > 0:
        pick = rng.integers(0, params.N)
        if budgets[pick] < cap:
            budgets[pick] += 1
            remaining -= 1
    channel_seed = rng.integers(0, 2**63)
    received, script = adversarial_block_channel(sent, params.n, budgets, channel_seed)
    report: dict = {
        "seed": seed,
        "budget": budget,
        "budgets": budgets,
        "message": message,
        "sent": format_word(sent),
        "received": format_word(received),
        "received_length": len(received),
        "script_length": len(script),
    }
    try:
        decoded = list_decode_concat_detailed(params, received)
    except DomainError as exc:
        report["contained"] = False
        report["list_size"] = 0
        report["decode_error"] = str(exc)
        return report
    report["contained"] = sent in decoded.codewords
    report["list_size"] = len(decoded.codewords)
    report["list_mass"] = decoded.list_mass
    return report


def cmd_concat_roundtrip(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    _emit_json(args, concat_roundtrip(params, args.seed, args.budget))
    return 0


def _add_q(parser: argparse.ArgumentParser, default: int | None = None) -> None:
    kwargs: dict = {"type": int, "help": "alphabet size"}
    if default is None:
        kwargs["required"] = True
    else:
        kwargs["default"] = default
    parser.add_argument("-q", "--q", **kwargs)


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="FILE", help="write output to FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insdel",
        description="Insertion/deletion code toolkit: distances, spheres, "
        "bound curves, code sampling, certification, and concatenated codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="insdel distance between two words")
    _add_q(p)
    _add_out(p)
    p.add_argument("a", help="first word")
    p.add_argument("b", help="second word")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("runs", help="run-count profile of a word")
    _add_q(p)
    _add_out(p)
    p.add_argument("word")
    p.set_defaults(func=cmd_runs)

    p = sub.add_parser("sphere", help="enumerate an insertion or deletion sphere")
    _add_q(p)
    _add_out(p)
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--kind", choices=("insertion", "deletion"), required=True)
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("ball", help="enumerate a fixed-length slice of an insdel ball")
    _add_q(p)
    _add_out(p)
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--mode", choices=("fast", "oracle"), default="fast")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("curve", help="emit a rate/radius curve as CSV")
    _add_q(p, default=2)
    _add_out(p)
    p.add_argument("--kind", choices=CURVE_KINDS, required=True)
    p.add_argument("--epsilon", type=_finite_float, default=0.0)
    p.add_argument("--start", type=_finite_float, required=True)
    p.add_argument("--stop", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("gv-greedy", help="greedy code meeting a distance target")
    _add_q(p)
    _add_out(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(func=cmd_gv_greedy)

    p = sub.add_parser("sample", help="sample a random (or random linear) code")
    _add_q(p)
    _add_out(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-M", "--size", dest="size", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--linear", action="store_true")
    p.add_argument("-k", type=int, help="dimension for --linear")
    p.add_argument("--digest", action="store_true", help="print only the sha256 digest")
    p.add_argument("--json", action="store_true", help="print the code as JSON")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("certify", help="check list-decodability of a code file")
    _add_out(p)
    p.add_argument("--code-file", required=True)
    p.add_argument("--tau-n", dest="tau_n", type=int, required=True)
    p.add_argument("-L", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("channel", help="push a word through a random insdel channel")
    _add_q(p)
    _add_out(p)
    p.add_argument("--word", required=True)
    p.add_argument("--ins", dest="insertions", type=int, default=0)
    p.add_argument("--del", dest="deletions", type=int, default=0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--block-len", dest="block_len", type=int)
    p.add_argument("--budgets", type=_int_list, help="comma-separated per-block budgets")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("concat-encode", help="encode a message with a concat code")
    _add_out(p)
    p.add_argument("--params", required=True, help="ConcatParams JSON file")
    p.add_argument("--message", help="comma-separated outer message symbols")
    p.add_argument("--outer", help="comma-separated outer codeword symbols")
    p.set_defaults(func=cmd_concat_encode)

    p = sub.add_parser("concat-decode", help="list-decode a received word")
    _add_out(p)
    p.add_argument("--params", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_concat_decode)

    p = sub.add_parser("concat-roundtrip", help="encode, corrupt, decode, report")
    _add_out(p)
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.set_defaults(func=cmd_concat_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "curve" and args.kind == "zyablov" and not 0 < args.epsilon < 1:
        parser.error(
            f"argument --epsilon: --kind zyablov needs a value in (0, 1), got {args.epsilon}"
        )
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InsdelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
