"""Span tracing for the insdel benchmark, applied from outside the package.

`install` replaces selected public functions of each insdel module with
wrappers that record one span per call: name, start, end, parent span
and op id, plus an optional counter taken from the return value.  The
package source is untouched.  Modules import each other's functions by
name (`from .core import insdel_distance`), so a wrapper is bound in
every insdel namespace that holds the original function object, not
only in the module that defines it.

This module imports only the standard library, so the traced CLI child script
can load it before timing `import insdel`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Layer -> public functions wrapped in that layer.  Private helpers such as
# concat._lcs_prefix_row are deliberately absent; their time shows up as the
# self time of the public caller.
WRAPPED = {
    "core": ("insdel_distance",),
    "spheres": (
        "enumerate_insertion_sphere",
        "enumerate_deletion_sphere",
        "enumerate_ball_fixed_length",
    ),
    "bounds": ("zyablov_tau", "random_rate_tau_binary", "random_rate_tau_q3"),
    "codes": ("sample_word_sequence", "greedy_gv_code", "code_stats", "code_digest"),
    "decode": ("certify_list_decodable", "brute_force_list_recover", "rs_encode"),
    "channel": ("adversarial_block_channel",),
    "concat": (
        "make_concat_params",
        "list_decode_concat_detailed",
        "build_windows",
        "feasible_jN",
        "concat_encode",
        "concat_encode_message",
    ),
    "cli": ("main",),
}


def _decode_counters(report) -> tuple:
    return (
        report.window_count,
        report.inner_match_total,
        report.max_inner_list,
        len(report.codewords),
        report.list_mass,
    )


# Counters read from a wrapped function's return value, at the same boundary.
RESULT_COUNTERS = {
    "concat.list_decode_concat_detailed": _decode_counters,
    "spheres.enumerate_insertion_sphere": len,
    "spheres.enumerate_deletion_sphere": len,
    "spheres.enumerate_ball_fixed_length": len,
}

# Span fields, kept as plain lists so they serialize to JSON directly.
NAME, START, END, PARENT, OP, VALUE = range(6)


class TraceError(RuntimeError):
    """A wrapped name is missing, or never fired where it must."""


class Tracer:
    """In-memory span recorder; `op` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | str = "setup"
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured by the caller."""
        self.spans.append([name, start, end, -1, self.op, None])

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[VALUE] = counter(out)
            return out

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every name in WRAPPED wherever insdel binds it.

    Raises TraceError when a listed name no longer exists or is not a
    function defined in its module, so a rename cannot go unnoticed.
    """
    modules = {layer: importlib.import_module(f"insdel.{layer}") for layer in WRAPPED}
    namespaces = [sys.modules["insdel"], *modules.values()]
    for layer, names in WRAPPED.items():
        for name in names:
            fn = getattr(modules[layer], name, None)
            if not callable(fn) or getattr(fn, "__module__", None) != f"insdel.{layer}":
                raise TraceError(f"insdel.{layer}.{name} is missing; the trace cannot wrap it")
            wrapper = tracer.wrap(f"{layer}.{name}", fn)
            for ns in namespaces:
                for attr in [a for a, v in vars(ns).items() if v is fn]:
                    setattr(ns, attr, wrapper)
