"""Per-layer metrics from the spans of a traced run.

Times are medians per op over the ops that reach the layer, unless the
name says otherwise (see README.md).  Self time is a span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

from spans import END, NAME, OP, PARENT, START, VALUE, WRAPPED, TraceError

DECODE = "concat.list_decode_concat_detailed"
SAMPLE = "codes.sample_word_sequence"
INNER_BUILD = "concat.make_concat_params"
CONCAT_NAMES = {
    INNER_BUILD,
    SAMPLE,
    "concat.concat_encode_message",
    "concat.concat_encode",
    "decode.rs_encode",
    "channel.adversarial_block_channel",
    DECODE,
    "concat.build_windows",
    "concat.feasible_jN",
    "decode.brute_force_list_recover",
}
# Wrapped names that must record at least one span on each workload.
MUST_FIRE = {
    "concat-desk": CONCAT_NAMES,
    "concat-sharp": CONCAT_NAMES,
    "cli-mix": {f"{layer}.{name}" for layer, names in WRAPPED.items() for name in names},
}
SPHERES = {f"spheres.{name}" for name in WRAPPED["spheres"]}
RATE_TAU = {"bounds.random_rate_tau_binary", "bounds.random_rate_tau_q3"}


@dataclass(frozen=True)
class Span:
    name: str
    dur: float
    self_time: float
    parent: str | None
    value: object


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def group(raw: list[list]) -> dict:
    """op id -> {span name -> [Span, ...]} in call order."""
    child = [0.0] * len(raw)
    for s in raw:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    ops: dict = defaultdict(lambda: defaultdict(list))
    for i, s in enumerate(raw):
        dur = s[END] - s[START]
        parent = raw[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        ops[s[OP]][s[NAME]].append(Span(s[NAME], dur, dur - child[i], parent, s[VALUE]))
    return ops


def check_fired(raw: list[list], workload: str) -> None:
    fired = {s[NAME] for s in raw}
    silent = sorted(MUST_FIRE[workload] - fired)
    if silent:
        raise TraceError(f"wrapped names never fired on {workload}: {', '.join(silent)}")


def layer_metrics(raw: list[list], op_info: dict, workload: str) -> dict:
    """All per-layer metrics as {name: (value, unit)}.

    op_info maps op id -> (op name, wall seconds).  Raises TraceError
    when a name the workload must reach recorded no span.
    """
    check_fired(raw, workload)
    ops = group(raw)
    setup = ops.pop("setup", {})
    every = list(ops.values())

    def named(name, parent=None):
        return lambda op: [s for s in op.get(name, ()) if parent is None or s.parent == parent]

    def ms(spans, field="dur"):
        return 1e3 * sum(getattr(s, field) for s in spans)

    def over_ops(select, fn=ms):
        """Median of fn(select(op)) over the ops where select(op) is non-empty."""
        return _median(fn(spans) for spans in map(select, every) if spans)

    decode_ops = [op for op in every if DECODE in op]

    def per_decode(select, fn=ms):
        """Median of fn(select(op)) over every op that decodes, zero included."""
        return _median(fn(select(op)) for op in decode_ops)

    def counter(k):
        return per_decode(named(DECODE), lambda spans: sum(s.value[k] for s in spans))

    reencode = named("concat.concat_encode", DECODE)
    m = {
        "concat.decode_ms": (per_decode(named(DECODE)), "ms"),
        "concat.windows_ms": (per_decode(named("concat.build_windows")), "ms"),
        "concat.feasible_ms": (per_decode(named("concat.feasible_jN")), "ms"),
        "concat.feasible_calls": (per_decode(named("concat.feasible_jN"), len), "count"),
        "concat.reencode_ms": (per_decode(reencode), "ms"),
        "concat.reencode_calls": (per_decode(reencode, len), "count"),
        "concat.inner_scan_ms": (per_decode(named(DECODE), lambda spans: ms(spans, "self_time")), "ms"),
        "concat.encode_ms": (over_ops(named("concat.concat_encode_message")), "ms"),
        "concat.windows": (counter(0), "count"),
        "concat.inner_matches": (counter(1), "count"),
        "concat.max_inner_list": (counter(2), "count"),
        "concat.list_size": (counter(3), "count"),
        "concat.list_mass": (counter(4), "count"),
        "concat.list_useful_ratio": (
            per_decode(named(DECODE), lambda spans: 1 / max(1, sum(s.value[3] for s in spans))), "ratio"),
        "decode.recover_ms": (per_decode(named("decode.brute_force_list_recover")), "ms"),
        "decode.rs_encode_calls": (per_decode(named("decode.rs_encode"), len), "count"),
        "decode.certify_ms": (over_ops(named("decode.certify_list_decodable")), "ms"),
        "channel.block_ms": (over_ops(named("channel.adversarial_block_channel")), "ms"),
        "codes.greedy_ms": (over_ops(named("codes.greedy_gv_code")), "ms"),
        "core.distance_calls": (over_ops(named("core.insdel_distance"), len), "count"),
    }

    # Inner-encoder sampling happens in set-up on the concat workloads.
    inner = [s.dur for op in [setup, *every] for s in named(SAMPLE, INNER_BUILD)(op)]
    m["codes.inner_sample_ms"] = (1e3 * _median(inner), "ms")
    m["codes.sample_ms"] = (
        over_ops(lambda op: [s for s in op.get(SAMPLE, ()) if s.parent != INNER_BUILD]), "ms")

    distance = [s.dur for op in every for s in op.get("core.insdel_distance", ())]
    m["core.distance_us"] = (1e6 * sum(distance) / len(distance) if distance else 0.0, "us")

    def top_spheres(op):
        return [s for name in SPHERES for s in op.get(name, ()) if s.parent not in SPHERES]

    m["spheres.enumerate_ms"] = (over_ops(top_spheres), "ms")
    m["spheres.words"] = (over_ops(top_spheres, lambda spans: sum(s.value for s in spans)), "count")

    zyablov = [op["bounds.zyablov_tau"] for op in every if "bounds.zyablov_tau" in op]
    m["bounds.zyablov_first_ms"] = (1e3 * _median(calls[0].dur for calls in zyablov), "ms")
    m["bounds.zyablov_ms"] = (1e3 * _median(s.dur for calls in zyablov for s in calls[1:]), "ms")
    m["bounds.rate_tau_ms"] = (
        1e3 * _median(s.dur for op in every for name in RATE_TAU for s in op.get(name, ())), "ms")

    if workload == "cli-mix":
        by_kind = defaultdict(list)
        for op_id, op in ops.items():
            by_kind[op_info[op_id][0]].append(ms(op.get("cli.main", ())))
        for kind, values in by_kind.items():
            m[f"cli.{kind}_ms"] = (_median(values), "ms")
        m["cli.child_import_ms"] = (over_ops(named("cli.import")), "ms")

    coverage, layer_self, wall_total = [], defaultdict(float), 0.0
    for op_id, op in ops.items():
        wall = op_info[op_id][1]
        wall_total += wall
        coverage.append(sum(s.dur for spans in op.values() for s in spans if s.parent is None) / wall)
        for name, spans in op.items():
            layer_self[name.split(".")[0]] += sum(s.self_time for s in spans)
    m["trace.coverage"] = (_median(coverage), "ratio")
    for layer in WRAPPED:
        m[f"share.{layer}"] = (layer_self[layer] / wall_total if wall_total else 0.0, "ratio")
    return m
