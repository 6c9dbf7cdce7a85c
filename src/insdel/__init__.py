"""Combinatorics, bounds, and constructions for insertion/deletion codes.

The package is organized bottom-up: core (words, distance, runs),
spheres (exact enumeration and counting bounds), bounds (rate formulas
and optimizers), codes (sampling and greedy constructions), channel
(edit-script simulation), decode (brute-force list decoding and the
Reed-Solomon outer code), concat (the indexed concatenation scheme with
windowed list decoding), and cli (the ``insdel`` command).

``import insdel`` loads no submodule.  Each public name, and each
submodule named in _EXPORTS, is imported on first attribute access
(PEP 562) and then cached in this namespace.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "bounds": (
        "ChannelSpec", "RatePoint", "ZyablovPoint", "ZyablovQuery", "entropy_q",
        "gv_lower_rate", "large_q_list_size", "large_q_rate", "linear_rate_variants",
        "random_rate_binary", "random_rate_q3", "random_rate_tau_binary",
        "random_rate_tau_q3", "rate_deletion_only", "rate_insertion_only",
        "singleton_max_size", "sparse_gv_code", "theta_binary", "zyablov_gamma_kappa",
        "zyablov_tau",
    ),
    "channel": ("EditScript", "adversarial_block_channel", "apply_script", "random_channel"),
    "codes": (
        "Code", "CodeStats", "LinearCode", "code_digest", "code_stats", "greedy_gv_code",
        "philox_generator", "sample_random_code", "sample_random_linear_code",
        "sample_word_sequence",
    ),
    "concat": (
        "ConcatDecodeReport", "ConcatParams", "WindowGrid", "build_windows",
        "concat_encode", "concat_encode_message", "concat_stats", "feasible_jN",
        "list_decode_concat", "list_decode_concat_detailed", "make_concat_params",
        "params_from_json_dict", "params_to_json_dict",
    ),
    "core": (
        "AlphabetMismatchError", "BoundViolationError", "CapacityError", "DomainError",
        "InsdelError", "OutOfRegimeError", "RegimeWarning", "RunProfile", "ScriptError",
        "Word", "count_runs", "format_word", "hamming_weight", "insdel_distance",
        "is_repetition", "iter_words", "lcs_length", "parse_word", "run_profile", "word",
    ),
    "decode": (
        "DecodeResult", "RSCode", "brute_force_list_decode", "brute_force_list_recover",
        "certify_list_decodable", "monte_carlo_rate_experiment", "rs_encode",
    ),
    "spheres": (
        "BallQuery", "ball_size_upper_bound", "deletion_sphere_bounds",
        "enumerate_ball_fixed_length", "enumerate_deletion_sphere",
        "enumerate_insertion_sphere", "insertion_sphere_size", "repetition_ball_exact",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
