"""Command-line surface: formats, exit codes, determinism.

Byte-level pins run through a subprocess so they cover the real entry
point; everything else calls main() in-process for speed.
"""

import contextlib
import hashlib
import io
import json
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insdel import cli
from insdel.channel import adversarial_block_channel, random_channel
from insdel.cli import CURVE_KINDS, CurveRequest, main
from insdel.codes import code_to_json_dict, sample_random_code
from insdel.concat import concat_encode_message, params_to_json_dict
from insdel.core import CapacityError, format_word, iter_words, parse_word, word
from oracles import DESK, distance_ref

RANDOM_CODE_DIGEST = "37b80f99934c4ac587aab4656d2ef8e81c302153de2dc8482611955afdc1fdc3"
LINEAR_CODE_DIGEST = "eff94d3e0c7ef5cb12d1629a6f8f526e98e9aa229bc77907a80e537712f406d8"


def run_cli(*argv: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "insdel", *argv], capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture()
def desk_params_file(tmp_path, desk_params):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params_to_json_dict(desk_params)))
    return str(path)


def test_distance_output(capsys):
    assert main(["distance", "-q", "2", "0110", "0101"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert main(["distance", "-q", "3", "", "012"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_distance_bad_word_exits_3(capsys):
    assert main(["distance", "-q", "2", "01", "02"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_runs_json(capsys):
    assert main(["runs", "-q", "3", "00120"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "word": "00120",
        "q": 3,
        "run_count": 4,
        "weight": 2,
        "empty_zero_gaps": 1,
    }


def test_sphere_listings(capsys):
    assert main(
        ["sphere", "-q", "2", "--center", "00", "--radius", "1", "--kind", "insertion"]
    ) == 0
    assert capsys.readouterr().out == "000\n001\n010\n100\n"
    assert main(
        ["sphere", "-q", "2", "--center", "010", "--radius", "1", "--kind", "deletion"]
    ) == 0
    assert capsys.readouterr().out == "00\n01\n10\n"


def test_ball_modes_agree(capsys):
    base = ["ball", "-q", "2", "--center", "00", "--radius", "2", "--length", "2"]
    assert main(base) == 0
    fast = capsys.readouterr().out
    assert main(base + ["--mode", "oracle"]) == 0
    assert capsys.readouterr().out == fast
    assert fast == "00\n01\n10\n"


def test_curve_csv_pinned_gv():
    result = run_cli("curve", "--kind", "gv", "-q", "2", "--start", "0", "--stop", "0.5", "--steps", "3")
    assert result.returncode == 0
    assert result.stdout == (
        "x,rate_raw,rate_clamped,list_size_class,flag\n"
        "0.000000,1.000000,1.000000,,\n"
        "0.250000,-0.713688,0.000000,,\n"
        "0.500000,-1.377444,0.000000,,\n"
    )


def test_curve_domain_error_rows(capsys):
    # random_q3 rejects q=2 pointwise, so every row carries the flag.
    assert main(
        ["curve", "--kind", "random_q3", "-q", "2", "--start", "0.1", "--stop", "0.2", "--steps", "2"]
    ) == 0
    assert capsys.readouterr().out == (
        "x,rate_raw,rate_clamped,list_size_class,flag\n"
        "0.100000,,,,domain_error\n"
        "0.200000,,,,domain_error\n"
    )


def test_curve_regime_warning_flag(capsys):
    assert main(
        ["curve", "--kind", "deletion_only", "-q", "2", "--start", "0.5", "--stop", "0.51", "--steps", "2"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.count(",") == 4 for line in lines)
    assert lines[1].endswith(",constant,")
    assert lines[2].endswith(",constant,regime_warning")


def test_curve_validation(capsys):
    assert main(["curve", "--kind", "gv", "--start", "0", "--stop", "1", "--steps", "1"]) == 3
    capsys.readouterr()
    result = run_cli("curve", "--kind", "unheard_of", "--start", "0", "--stop", "1", "--steps", "3")
    assert result.returncode == 2


def test_gv_greedy_json(capsys):
    assert main(["gv-greedy", "-q", "2", "-n", "4", "-d", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "q": 2,
        "n": 4,
        "d": 8,
        "size": 2,
        "rate": 0.25,
        "min_distance": 8,
        "relative_distance": 1.0,
        "words": ["0000", "1111"],
    }


def test_gv_greedy_rejects_small_alphabets(capsys):
    assert main(["gv-greedy", "-q", "0", "-n", "3", "-d", "2"]) == 3
    assert "alphabet size must be at least 2, got 0" in capsys.readouterr().err


def test_sample_digest_pin(capsys):
    assert main(["sample", "-q", "2", "-n", "8", "-M", "16", "--seed", "42", "--digest"]) == 0
    assert capsys.readouterr().out == RANDOM_CODE_DIGEST + "\n"


def test_sample_listing_in_draw_order(capsys):
    assert main(["sample", "-q", "3", "-n", "5", "-M", "4", "--seed", "11"]) == 0
    assert capsys.readouterr().out == "20222\n12101\n20112\n11010\n"


def test_sample_json(capsys):
    assert main(["sample", "-q", "2", "-n", "3", "-M", "4", "--seed", "9", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 2 and payload["n"] == 3
    assert len(payload["words"]) == 4
    assert payload["words"] == sorted(payload["words"])


def test_sample_linear_digest_pin(capsys):
    assert main(
        ["sample", "-q", "3", "-n", "4", "--linear", "-k", "2", "--seed", "7", "--digest"]
    ) == 0
    assert capsys.readouterr().out == LINEAR_CODE_DIGEST + "\n"


def test_sample_needs_a_size(capsys):
    assert main(["sample", "-q", "2", "-n", "4", "--seed", "1"]) == 3
    assert main(["sample", "-q", "2", "-n", "4", "--seed", "1", "--linear"]) == 3
    capsys.readouterr()


def _write_code_file(tmp_path, code):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_json_dict(code)))
    return str(path)


def test_certify_ok_and_witness(tmp_path, capsys):
    from insdel.codes import Code

    reps = Code(q=2, n=2, words=frozenset({word((0, 0), 2), word((1, 1), 2)}))
    path = _write_code_file(tmp_path, reps)
    assert main(["certify", "--code-file", path, "--tau-n", "1", "-L", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "ok": True,
        "witness": None,
        "tau_n": 1,
        "L": 1,
        "mode": "exhaustive",
        "samples": None,
        "seed": None,
    }

    square = Code(q=2, n=2, words=frozenset(iter_words(2, 2)))
    path = _write_code_file(tmp_path, square)
    assert main(["certify", "--code-file", path, "--tau-n", "2", "-L", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["witness"] == ""


def test_certify_capacity_exit_4(tmp_path, capsys):
    from insdel.codes import Code

    wide = Code(q=2, n=20, words=frozenset({word((0,) * 20, 2), word((1,) * 20, 2)}))
    path = _write_code_file(tmp_path, wide)
    assert main(["certify", "--code-file", path, "--tau-n", "3", "-L", "1"]) == 4
    assert "error:" in capsys.readouterr().err


def test_certify_sampled_needs_seed(tmp_path, capsys):
    code = sample_random_code(2, 4, 6, 1)
    path = _write_code_file(tmp_path, code)
    assert main(
        ["certify", "--code-file", path, "--tau-n", "1", "-L", "6", "--mode", "sampled"]
    ) == 3
    capsys.readouterr()
    assert main(
        ["certify", "--code-file", path, "--tau-n", "1", "-L", "6", "--mode", "sampled", "--seed", "4"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == 1000 and payload["seed"] == 4


def test_channel_random_mode(capsys):
    assert main(["channel", "-q", "2", "--word", "0110", "--ins", "1", "--del", "1", "--seed", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected, script = random_channel(word((0, 1, 1, 0), 2), 1, 1, 7)
    assert payload["result"] == format_word(expected)
    assert payload["result_length"] == 4
    assert payload["script"] == script.to_json_list()
    assert payload["distance_bound"] == 2


def test_channel_block_mode(capsys):
    assert main(
        ["channel", "-q", "2", "--word", "0110", "--block-len", "2", "--budgets", "1,0", "--seed", "3"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    expected, _ = adversarial_block_channel(word((0, 1, 1, 0), 2), 2, [1, 0], 3)
    assert payload["result"] == format_word(expected)
    assert payload["distance_bound"] == 1


def test_channel_budgets_need_block_len(capsys):
    assert main(["channel", "-q", "2", "--word", "0110", "--budgets", "1,0", "--seed", "3"]) == 3
    capsys.readouterr()


def test_concat_encode_decode_cycle(tmp_path, desk_params, desk_params_file, capsys):
    out_file = tmp_path / "encoded.txt"
    assert main(
        ["concat-encode", "--params", desk_params_file, "--message", "1,2,0", "--out", str(out_file)]
    ) == 0
    sent = concat_encode_message(desk_params, (1, 2, 0))
    assert out_file.read_text() == format_word(sent) + "\n"

    assert main(["concat-decode", "--params", desk_params_file, "--word", format_word(sent)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert format_word(sent) in payload["codewords"]
    assert payload["count"] == len(payload["codewords"])
    assert set(payload) == {"count", "codewords", "window_count", "list_mass", "max_inner_list"}


def test_concat_encode_wants_exactly_one_input(desk_params_file, capsys):
    assert main(["concat-encode", "--params", desk_params_file]) == 3
    assert main(
        ["concat-encode", "--params", desk_params_file, "--message", "1,2,0", "--outer", "0,0,0,0,0,0,0,0"]
    ) == 3
    capsys.readouterr()


def test_concat_roundtrip_reports(desk_params_file, capsys):
    assert main(["concat-roundtrip", "--params", desk_params_file, "--seed", "5", "--budget", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contained"] is True
    assert payload["received"] == payload["sent"]
    assert payload["script_length"] == 0
    assert payload["list_size"] >= 1

    assert main(["concat-roundtrip", "--params", desk_params_file, "--seed", "5", "--budget", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contained"] is True
    assert sum(payload["budgets"]) == 16


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "distance.txt"
    assert main(["distance", "-q", "2", "0110", "0101", "--out", str(target)]) == 0
    assert target.read_text() == "2\n"


def test_usage_errors_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("sphere", "-q", "2", "--center", "00", "--radius", "1", "--kind", "bogus").returncode == 2


CERTIFY = ("certify", "--code-file", "{file}", "--tau-n", "1", "-L", "2")
BLOCK_CHANNEL = ("channel", "-q", "2", "--word", "0110", "--block-len", "2", "--seed")
CODE_N7 = json.dumps({"q": 2, "n": 7, "words": ["0000000", "0101101", "1011010", "1111111"]})
DESK_RECORD = {k: str(v) if isinstance(v, Fraction) else v for k, v in DESK.items()}
# DESK with n = 4540: 99,880 inner symbols, just under the encoder limit,
# and a window scan of about 5 * 10^10 lane bits.
DESK_N4540 = json.dumps({**DESK_RECORD, "n": 4540})
ROUNDTRIP = ("concat-roundtrip", "--params", "{file}", "--seed", "1", "--budget", "3")


@pytest.mark.parametrize(
    "argv, content, code",
    [
        pytest.param(CERTIFY, None, 2, id="certify-missing-file"),
        pytest.param(CERTIFY, "{not json", 3, id="certify-malformed-json"),
        pytest.param(CERTIFY, "[1, 2]", 3, id="certify-json-list"),
        pytest.param(CERTIFY, '{"q": "two", "n": 2, "words": []}', 3, id="certify-bad-field"),
        pytest.param(
            CERTIFY, '{"q": 2.9, "n": 3.5, "words": ["010", "111"]}', 3, id="certify-fractional-q-n"
        ),
        pytest.param(
            ("concat-decode", "--params", "{file}", "--word", "01"), None, 2,
            id="concat-decode-missing-file",
        ),
        pytest.param(
            ("concat-roundtrip", "--params", "{file}", "--seed", "1", "--budget", "0"), "{", 3,
            id="concat-roundtrip-malformed-json",
        ),
        pytest.param(
            ("concat-encode", "--params", "{file}", "--message", "1"), '"params"', 3,
            id="concat-encode-json-string",
        ),
        pytest.param((*BLOCK_CHANNEL, "-1", "--budgets", "1,1"), None, 3, id="channel-negative-seed"),
        pytest.param((*BLOCK_CHANNEL, "1", "--budgets", "1,x"), None, 2, id="channel-bad-budget"),
        # Capacity refusals whose counts run to thousands of digits.
        pytest.param(("gv-greedy", "-q", "2", "-n", "15000", "-d", "2"), None, 4, id="greedy-huge-n"),
        pytest.param(
            ("ball", "-q", "2", "--center", "0", "--radius", "15000", "--length", "15000"), None, 4,
            id="ball-huge-length",
        ),
        pytest.param(
            ("certify", "--code-file", "{file}", "--tau-n", "15000", "-L", "4"), CODE_N7, 4,
            id="certify-huge-radius",
        ),
        pytest.param(
            ("sphere", "-q", "2", "--center", "0", "--radius", "14300", "--kind", "insertion"), None, 4,
            id="insertion-sphere-huge-radius",
        ),
        pytest.param(
            ("sample", "-q", "2", "-n", "15000", "--linear", "-k", "15000", "--seed", "1"), None, 4,
            id="linear-huge-dimension",
        ),
        pytest.param(
            ("sample", "-q", str(2 ** 61 - 1), "-n", "1", "-k", "1", "--linear", "--seed", "1"),
            None, 4, id="linear-huge-prime",
        ),
        pytest.param(
            ("sample", "-q", "2", "-n", "1000000000", "-M", "1", "--seed", "1"), None, 4,
            id="sample-huge-length",
        ),
        pytest.param(
            ("sample", "-q", "2", "-n", "1000000000", "-k", "0", "--linear", "--seed", "1"), None, 4,
            id="linear-huge-length",
        ),
        pytest.param(ROUNDTRIP, DESK_N4540, 4, id="concat-roundtrip-huge-scan"),
        # Integer fields that int() would truncate or pass.
        pytest.param(
            ROUNDTRIP, json.dumps({**DESK_RECORD, "points": [0, 1.5, 2, 3, 4, 5, 6, 7]}), 3,
            id="concat-roundtrip-fractional-point",
        ),
        pytest.param(ROUNDTRIP, json.dumps({**DESK_RECORD, "N": 8.5}), 3, id="concat-roundtrip-fractional-N"),
        pytest.param(ROUNDTRIP, json.dumps({**DESK_RECORD, "K": 3.0}), 3, id="concat-roundtrip-float-K"),
        pytest.param(ROUNDTRIP, json.dumps({**DESK_RECORD, "ell_out": True}), 3, id="concat-roundtrip-bool-ell"),
        # A 40-symbol ternary center: the deletion BFS passes through levels of millions of words.
        pytest.param(
            ("sphere", "-q", "3", "--center", "012" * 13 + "0", "--radius", "20", "--kind", "deletion"),
            None, 4, id="deletion-sphere-long-center",
        ),
        pytest.param(
            ("ball", "-q", "3", "--center", "012" * 13 + "0", "--radius", "28", "--length", "12"),
            None, 4, id="ball-long-center",
        ),
        # 29 insertions into the one-word deletion sphere: 2^30 - 1 words.
        pytest.param(
            ("ball", "-q", "2", "--center", "0", "--radius", "30", "--length", "30"), None, 4,
            id="ball-insertion-levels",
        ),
    ],
)
def test_bad_files_and_arguments_exit_without_traceback(tmp_path, argv, content, code):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    # Each refusal is immediate, so one that computes first runs out of time.
    result = run_cli(*(str(path) if arg == "{file}" else arg for arg in argv), timeout=10)
    assert result.returncode == code
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr


def test_empty_ball_slices_of_any_length_exit_0():
    """A radius that cannot bridge the lengths gives the empty slice, however long the target."""
    result = run_cli("ball", "-q", "2", "--center", "0101", "--radius", "3", "--length", "15000", timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


def test_fast_ball_slices_past_the_length_space_limit():
    """Fast mode bounds its own levels, not 2**24: this slice holds 301 words."""
    argv = ("ball", "-q", "2", "--center", "01" * 12, "--radius", "2", "--length", "24")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    words = out.getvalue().split()
    assert len(words) == 301 and "01" * 12 in words
    assert all(distance_ref("01" * 12, w) <= 2 and len(w) == 24 for w in words)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--mode", "oracle"]) == 4


def test_zyablov_curve_rejects_epsilon_outside_unit_interval():
    for eps in ("0", "1"):
        result = run_cli(
            "curve", "--kind", "zyablov", "--epsilon", eps, "--start", "0.1", "--stop", "0.2", "--steps", "2"
        )
        assert result.returncode == 2
        assert "error:" in result.stderr and "--epsilon" in result.stderr
        assert result.stdout == ""
    # Other kinds keep accepting the default epsilon of 0.
    assert main(["curve", "--kind", "gv", "--epsilon", "0", "--start", "0", "--stop", "0.1", "--steps", "2"]) == 0


# SHA-256 of stdout, taken before q = 2, 3 and 4 read committed table knots.
# The first sweep is the cli-mix benchmark's; q = 5 builds its table.
ZYABLOV_CURVE_PINS = {
    "q2-cli-mix": ("-q 2 --epsilon 0.01 --start 0.1 --stop 0.5 --steps 3",
                   "5f46dc28501d0528b2b26f92cccc79515d919b98190a76622a1aaa279d377888"),
    "q3": ("-q 3 --epsilon 0.01 --start 0.2 --stop 0.6 --steps 2",
           "2f813c92c3cf5abb1d19789a63c9b5ea85105aa1fa52b93c87f368e24522f4f2"),
    "q4": ("-q 4 --epsilon 0.01 --start 0.2 --stop 0.6 --steps 2",
           "d1f7652dda7f568995530d52ad0cffa3b6065d8c63a4a6d976cf1c9b9d80e19e"),
    "q5": ("-q 5 --epsilon 0.01 --start 0.2 --stop 0.6 --steps 2",
           "5e216908a6611bdf9509ccd3d38422b639daaf33f14794b8b364b1e4e8dbf0a3"),
}


@pytest.mark.parametrize("name", sorted(ZYABLOV_CURVE_PINS))
def test_zyablov_curve_output_is_pinned(name):
    sweep, digest = ZYABLOV_CURVE_PINS[name]
    result = run_cli("curve", "--kind", "zyablov", *sweep.split())
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--epsilon", "--start", "--stop"])
def test_curve_rejects_non_finite_floats(flag, value):
    given = {"--epsilon": "0", "--start": "0", "--stop": "0.2", flag: value}
    # --flag=value keeps argparse from reading "-inf" as an option name.
    result = run_cli("curve", "--kind", "random_binary", "--steps", "2", *(f"{k}={v}" for k, v in given.items()))
    assert result.returncode == 2
    assert f"error: argument {flag}: not a finite number" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_curve_step_cap(monkeypatch):
    monkeypatch.setattr(cli, "_CURVE_STEP_LIMIT", 5)
    CurveRequest(kind="singleton", q=2, epsilon=0.0, start=0.0, stop=1.0, steps=5)
    with pytest.raises(CapacityError, match="6 steps exceed the sweep limit 5"):
        CurveRequest(kind="singleton", q=2, epsilon=0.0, start=0.0, stop=1.0, steps=6)


def test_oversized_requests_exit_4_before_any_work(tmp_path):
    """Steps, insertions and samples past their caps are refused, not run.

    Each would otherwise hold 10^8 rows or operations in memory, or draw
    10^12 centers.
    """
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(code_to_json_dict(sample_random_code(2, 4, 3, 1))))
    for argv in (
        ("curve", "--kind", "singleton", "--start", "0", "--stop", "0.5", "--steps", "100000000"),
        ("channel", "-q", "2", "--word", "0101", "--ins", "100000000", "--seed", "1"),
        ("certify", "--code-file", str(code_file), "--tau-n", "1", "-L", "2",
         "--mode", "sampled", "--samples", str(10 ** 12), "--seed", "1"),
    ):
        result = run_cli(*argv, timeout=60)
        assert result.returncode == 4, argv
        assert result.stderr.startswith("error: ") and "exceed the" in result.stderr, argv
        assert "Traceback" not in result.stderr
        assert result.stdout == ""


def test_huge_field_orders_exit_within_a_second(tmp_path, desk_params):
    """Primality is decided by Miller-Rabin, so no huge order runs trial division.

    2^61 - 1 is prime: as a DESK field order it asks for 2^62 inner
    words of length 10 (exit 4), and the k = 0 linear code over it is the
    zero word.  2^89 - 1 lies past the proven Miller-Rabin bound and is
    refused (exit 4).
    """
    record = params_to_json_dict(desk_params)
    cases = []
    for p in (2 ** 61 - 1, 2 ** 89 - 1):
        path = tmp_path / f"p{p}.json"
        path.write_text(json.dumps({**record, "p": p}))
        cases.append((("concat-encode", "--params", str(path), "--message", "1,2,0"), 4, ""))
    for q, code, out in ((2 ** 61 - 1, 0, "0\n"), (2 ** 89 - 1, 4, "")):
        cases.append((("sample", "-q", str(q), "-n", "1", "-k", "0", "--linear", "--seed", "1"), code, out))
    for argv, code, out in cases:
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(list(argv)) == code, argv
        assert time.perf_counter() - start < 1.0, argv
        assert stdout.getvalue() == out, argv
        assert stderr.getvalue().startswith("error: ") == (code != 0), argv


def test_a_params_file_past_the_codebook_symbol_limit_exits_within_a_second(tmp_path, desk_params):
    """DESK with N = p = 997 and K = 2 is refused at load (exit 4).

    Its 994,009 codewords are under the 10^6 codeword limit, and its 997
    inner words of 10 symbols and window scan of about 1.6 * 10^9 lane
    bits pass their limits too, but a first recovery would build about
    9.9 * 10^8 codebook symbols, past the 10^7 symbol limit.
    """
    record = {key: value for key, value in params_to_json_dict(desk_params).items() if key != "points"}
    path = tmp_path / "codebook.json"
    path.write_text(json.dumps({**record, "N": 997, "p": 997, "K": 2, "eps_cont": "1/997",
                                "ell_out": 10 ** 6}))
    for argv in (
        ["concat-roundtrip", "--params", str(path), "--seed", "1", "--budget", "3"],
        ["concat-decode", "--params", str(path), "--word", "01" * 4985],
    ):
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(argv) == 4, argv
        assert time.perf_counter() - start < 1.0, argv
        assert stdout.getvalue() == "", argv
        assert stderr.getvalue() == (
            "error: a codebook of 997**2 words of length 997 exceeds 10000000 symbols\n"
        ), argv


def test_oversized_params_files_exit_within_a_second(tmp_path, desk_params):
    """Cheap bounds come first: nothing of a huge params file is built or sampled.

    DESK with n = 10^6 (22 inner words of 10^6 symbols), or with an
    inner encoder over a huge field or of huge words, passes the inner
    encoder's symbol limit (exit 4).  N = 10^18 with the evaluation
    points omitted exceeds p (exit 3) or, over p = 2^61 - 1, the symbol
    limit (exit 4); K = 10^18 exceeds N (exit 3).
    """
    record = params_to_json_dict(desk_params)
    no_points = {key: value for key, value in record.items() if key != "points"}
    cases = [
        ({**record, "n": 10 ** 6}, 4),
        ({**record, "n": 10 ** 18}, 4),
        ({**no_points, "p": 10 ** 18 + 9}, 4),
        ({**no_points, "N": 10 ** 18}, 3),
        ({**no_points, "N": 10 ** 18, "p": 2 ** 61 - 1}, 4),
        ({**record, "K": 10 ** 18}, 3),
    ]
    for number, (fields, code) in enumerate(cases):
        path = tmp_path / f"params{number}.json"
        path.write_text(json.dumps(fields))
        argv = ["concat-encode", "--params", str(path), "--message", "1,2,0"]
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(argv) == code, fields
        assert time.perf_counter() - start < 1.0, fields
        assert stdout.getvalue() == "" and stderr.getvalue().startswith("error: "), fields


def test_certify_sampled_pins_a_witness(tmp_path, capsys):
    """A sampled run on a code that violates the bound prints its exact witness.

    The witness is the first sampled center whose radius-2 ball holds
    more than L = 3 codewords (checked here by the oracle distance); the
    exhaustive scan of the same code stops at a different, earlier one.
    """
    code = sample_random_code(2, 6, 12, 1)
    path = _write_code_file(tmp_path, code)
    argv = ["certify", "--code-file", path, "--tau-n", "2", "-L", "3"]
    assert main(argv + ["--mode", "sampled", "--samples", "200", "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "ok": False,
        "witness": "1011",
        "tau_n": 2,
        "L": 3,
        "mode": "sampled",
        "samples": 200,
        "seed": 2,
    }
    crowd = [w for w in code.words if distance_ref(w.symbols, (1, 0, 1, 1)) <= 2]
    assert len(crowd) > 3
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["witness"] != "1011"


def test_sampled_certify_beyond_int64_centers(tmp_path):
    # n = 40, tau_n = 30 gives sum(2**m for m in 10..70) > 2**63 candidate centers.
    code_file = tmp_path / "big.json"
    sample = run_cli("sample", "-q", "2", "-n", "40", "-M", "2", "--seed", "1", "--json", "--out", str(code_file))
    assert sample.returncode == 0
    argv = ("certify", "--code-file", str(code_file), "--tau-n", "30", "-L", "2", "--mode", "sampled")
    result = run_cli(*argv, "--seed", "1", "--samples", "5")
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    assert json.loads(result.stdout)["ok"] is True


def test_cli_import_loads_neither_numpy_nor_scipy():
    # Nor the committed Zyablov knots, which only a Zyablov curve reads.
    heavy = "{'numpy', 'scipy', 'insdel._zyablov_knots'}"
    # Seeded sampling and the block channel draw from the standard-library stream.
    draws = (
        "insdel.sample_random_code(3, 6, 20, 1); "
        "insdel.adversarial_block_channel(insdel.word((0, 1, 2, 0), 3), 2, [2, 1], 5); "
    )
    for module, run in (("insdel.cli", ""), ("insdel", ""), ("insdel", draws)):
        probe = f"import {module}, sys; {run}print(sorted({heavy} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n", (module, run)


# Runs main(argv) in a fresh interpreter and prints its exit code and the
# insdel modules it loaded; stdout of the command itself is discarded.
_MODULE_PROBE = (
    "import contextlib, io, sys\n"
    "from insdel.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(code, sorted(m for m in sys.modules if m.startswith('insdel')))\n"
)

_CERTIFY = ["certify", "--code-file", "{code}", "--tau-n", "2", "-L", "4"]


# Subcommand -> (argv, the insdel submodules it loads beyond cli and core).
# The rows cover the benchmark's 11-call cli-mix cycle and the other commands.
_SUBCOMMAND_MODULES = {
    "import": ([], ()),
    "distance": (["distance", "-q", "4", "0123", "3210"], ()),
    "runs": (["runs", "-q", "3", "00120"], ()),
    "curve-zyablov": (["curve", "--kind", "zyablov", "-q", "2", "--epsilon", "0.01",
                       "--start", "0.1", "--stop", "0.5", "--steps", "3"],
                      ("bounds", "_zyablov_knots")),
    "curve-random_binary": (["curve", "--kind", "random_binary", "--start", "0", "--stop", "0.5",
                             "--steps", "11"], ("bounds",)),
    "curve-random_q3": (["curve", "--kind", "random_q3", "-q", "4", "--start", "0",
                         "--stop", "0.6", "--steps", "11"], ("bounds",)),
    "sphere": (["sphere", "-q", "2", "--center", "0110100", "--radius", "3",
                "--kind", "insertion"], ("spheres",)),
    "ball": (["ball", "-q", "2", "--center", "01101001", "--radius", "4", "--length", "10"],
             ("spheres",)),
    "gv-greedy": (["gv-greedy", "-q", "2", "-n", "8", "-d", "4"], ("codes",)),
    "sample": (["sample", "-q", "2", "-n", "16", "-M", "256", "--seed", "7", "--digest"],
               ("codes",)),
    "certify-exhaustive": (_CERTIFY, ("codes", "decode")),
    "certify-sampled": (_CERTIFY + ["--mode", "sampled", "--samples", "300", "--seed", "5"],
                        ("codes", "decode")),
    "channel": (["channel", "-q", "2", "--word", "0110", "--ins", "2", "--del", "1",
                 "--seed", "9"], ("codes", "channel")),
    "concat-roundtrip": (["concat-roundtrip", "--params", "{params}", "--seed", "7",
                          "--budget", "16"], ("codes", "decode", "concat", "channel")),
    "concat-encode": (["concat-encode", "--params", "{params}", "--message", "1,2,3"],
                      ("codes", "decode", "concat")),
}


@pytest.mark.parametrize("command", list(_SUBCOMMAND_MODULES))
def test_each_subcommand_imports_only_the_modules_it_runs(command, tmp_path, desk_params_file):
    """`insdel.cli` loads only core; a subcommand adds just the modules it runs."""
    argv, modules = _SUBCOMMAND_MODULES[command]
    code_file = _write_code_file(tmp_path, sample_random_code(2, 7, 8, 3))
    argv = [arg.format(code=code_file, params=desk_params_file) for arg in argv]
    result = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *argv], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    expected = sorted(["insdel", "insdel.cli", "insdel.core", *(f"insdel.{m}" for m in modules)])
    assert result.stdout == f"0 {expected}\n"


# Blocks numpy outright: an import of it anywhere raises ImportError.
_WITHOUT_NUMPY = (
    "import sys; sys.modules['numpy'] = None; from insdel.cli import main; sys.exit(main())"
)


def test_seeded_subcommands_run_without_numpy(tmp_path, desk_params_file):
    code_file = tmp_path / "code.json"
    made = run_cli(
        "sample", "-q", "2", "-n", "7", "-M", "8", "--seed", "3", "--json", "--out", str(code_file)
    )
    assert made.returncode == 0, made.stderr
    for argv in (
        ("sample", "-q", "3", "-n", "9", "-M", "40", "--seed", "11", "--digest"),
        ("certify", "--code-file", str(code_file), "--tau-n", "2", "-L", "4", "--mode", "sampled",
         "--samples", "300", "--seed", "5"),
        ("channel", "-q", "2", "--word", "0110", "--ins", "2", "--del", "1", "--seed", "9"),
        ("channel", "-q", "3", "--word", "012012", "--block-len", "3", "--budgets", "2,3",
         "--seed", "4"),
        ("concat-roundtrip", "--params", desk_params_file, "--seed", "7", "--budget", "16"),
    ):
        blocked = subprocess.run(
            [sys.executable, "-c", _WITHOUT_NUMPY, *argv], capture_output=True, text=True
        )
        assert blocked.returncode == 0, (argv, blocked.stderr)
        assert blocked.stdout == run_cli(*argv).stdout, argv


def test_seeded_subcommands_are_byte_identical():
    for argv in (
        ("sample", "-q", "2", "-n", "8", "-M", "16", "--seed", "42", "--digest"),
        ("channel", "-q", "2", "--word", "0110", "--ins", "2", "--del", "1", "--seed", "9"),
        ("curve", "--kind", "singleton", "--start", "0", "--stop", "1", "--steps", "5"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == 0
        assert first.stdout == second.stdout


# Alphabet sizes, lengths and radii stay tiny, so no drawn call comes near
# an enumeration limit; other integers (seeds, counts, budgets) span -3..12.
# Counts that size a whole output or run (--steps, --ins, --del, --samples)
# also draw 10**12, which must be refused, not run.
FUZZ_INTS = st.integers(-3, 12)
FUZZ_COUNTS = FUZZ_INTS | st.just(10 ** 12)
FUZZ_SIZES = st.integers(-3, 4)
FUZZ_WORDS = st.text(alphabet="0123x,", max_size=8)
FUZZ_SYMBOLS = st.lists(FUZZ_INTS, max_size=9).map(lambda xs: ",".join(map(str, xs)))
FUZZ_FLAG = object()  # a store_true option


def _fuzz_options(paths) -> dict:
    """Subcommand -> ([required], [optional]) (option or None for a positional, values)."""
    q = ("-q", FUZZ_SIZES)
    return {
        "distance": ([q, (None, FUZZ_WORDS), (None, FUZZ_WORDS)], []),
        "runs": ([q, (None, FUZZ_WORDS)], []),
        "sphere": ([q, ("--center", FUZZ_WORDS), ("--radius", FUZZ_SIZES),
                    ("--kind", st.sampled_from(["insertion", "deletion", "both"]))], []),
        "ball": ([q, ("--center", FUZZ_WORDS), ("--radius", FUZZ_SIZES),
                  ("--length", FUZZ_SIZES)],
                 [("--mode", st.sampled_from(["fast", "oracle"]))]),
        "curve": ([("--kind", st.sampled_from(CURVE_KINDS + ("bogus",))),
                   ("--start", FUZZ_INTS.map(lambda v: v / 10)),
                   ("--stop", FUZZ_INTS.map(lambda v: v / 10)), ("--steps", FUZZ_COUNTS)],
                  [q, ("--epsilon", st.sampled_from(["0", "0.01", "0.5", "1", "-1", "x"]))]),
        "gv-greedy": ([q, ("-n", FUZZ_SIZES), ("-d", FUZZ_SIZES)], []),
        "sample": ([q, ("-n", FUZZ_SIZES), ("--seed", FUZZ_INTS)],
                   [("-M", FUZZ_INTS), ("--linear", FUZZ_FLAG), ("-k", FUZZ_SIZES),
                    ("--digest", FUZZ_FLAG), ("--json", FUZZ_FLAG)]),
        "certify": ([("--code-file", paths), ("--tau-n", FUZZ_SIZES), ("-L", FUZZ_INTS)],
                    [("--mode", st.sampled_from(["exhaustive", "sampled"])),
                     ("--samples", FUZZ_COUNTS), ("--seed", FUZZ_INTS)]),
        "channel": ([q, ("--word", FUZZ_WORDS), ("--seed", FUZZ_INTS)],
                    [("--ins", FUZZ_COUNTS), ("--del", FUZZ_COUNTS), ("--block-len", FUZZ_INTS),
                     ("--budgets", FUZZ_SYMBOLS)]),
        "concat-encode": ([("--params", paths)],
                          [("--message", FUZZ_SYMBOLS), ("--outer", FUZZ_SYMBOLS)]),
        "concat-decode": ([("--params", paths), ("--word", FUZZ_WORDS)], []),
        "concat-roundtrip": ([("--params", paths), ("--seed", FUZZ_INTS),
                              ("--budget", FUZZ_INTS)], []),
    }


def _fuzz_argv(command, inputs, outputs):
    """The subcommand with its required options and any subset of the rest."""
    def present(option, values):
        if values is FUZZ_FLAG:
            return st.just([option])
        return values.map(lambda v: [str(v)] if option is None else [option, str(v)])

    def maybe(option, values):
        return st.just([]) | present(option, values)

    required, optional = _fuzz_options(st.sampled_from(inputs))[command]
    return st.tuples(
        st.just([command]),
        *(present(o, v) for o, v in required),
        *(maybe(o, v) for o, v in optional),
        maybe("--out", st.sampled_from(outputs)),
    ).map(lambda parts: [arg for part in parts for arg in part])


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory, desk_params):
    """Input paths (missing, a directory, malformed JSON, a JSON list, a code,
    DESK params) and --out paths (a file, one in a missing directory, a directory)."""
    root = tmp_path_factory.mktemp("fuzz")
    contents = {
        "malformed.json": "{not json",
        "list.json": "[1, 2]",
        "code.json": json.dumps(code_to_json_dict(sample_random_code(2, 4, 3, 1))),
        "params.json": json.dumps(params_to_json_dict(desk_params)),
    }
    for name, text in contents.items():
        (root / name).write_text(text)
    inputs = [str(root / name) for name in ("missing.json", *contents)] + [str(root)]
    return inputs, [str(root / "out.txt"), str(root / "no-such-dir" / "out.txt"), str(root)]


# Wall-clock bound on one fuzzed call: far above the slowest valid request
# a draw can make (a decode near the inner encoder's symbol limit takes
# seconds), far below a hang.
FUZZ_WALL_S = 60


class WallTimeExceeded(BaseException):
    """Raised by SIGALRM; a BaseException, so no handler in main() catches it."""


def exit_code_within_wall_bound(argv) -> int:
    """main(argv)'s exit code, failing the test if the call runs past FUZZ_WALL_S."""

    def expire(signum, frame):
        raise WallTimeExceeded

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, FUZZ_WALL_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return main(argv)
            except SystemExit as exc:
                return exc.code
    except WallTimeExceeded:
        pytest.fail(f"{argv} ran past {FUZZ_WALL_S} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command", sorted(_fuzz_options(st.nothing())))
def test_cli_fuzz_exits_with_a_documented_code(fuzz_files, command):
    """Every drawn invocation returns 0, 2, 3 or 4 within FUZZ_WALL_S; no other exception escapes."""

    @settings(max_examples=60, deadline=None)
    @given(_fuzz_argv(command, *fuzz_files))
    def run(argv):
        assert exit_code_within_wall_bound(argv) in (0, 2, 3, 4), argv

    run()


def _fuzz_params_record(base: dict):
    """DESK's params record with p, N, n and K each kept or drawn up to 10^18,
    or one of the records at the limits (one draw in five).

    The evaluation points are kept or omitted, so N also sizes the
    default points 0..N-1.  At the limits: n = 4540, 4545 and 4546 put
    DESK's 2 * 11 inner words at 99,880, 99,990 and 100,012 symbols,
    around the 10^5 limit (4545 is refused by the grid step); with one
    encoder index (eps_cont = 1/N) and default points, N in {996, 1000},
    p in {997, 1009} and K in {1, 2} put the outer codebook at or past
    its 10^6-word and 10^7-symbol limits.
    """
    no_points = {k: v for k, v in base.items() if k != "points"}

    def field(name):
        return st.just(base[name]) | st.integers(-3, 64) | st.integers(-3, 10 ** 18)

    def record(drawn: dict, keep_points: bool) -> dict:
        return {**(base if keep_points else no_points), **drawn}

    fields = st.fixed_dictionaries({name: field(name) for name in ("p", "N", "n", "K")})
    drawn = st.builds(record, fields, st.booleans())
    inner_limit = st.sampled_from((4540, 4545, 4546)).map(lambda n: {**base, "n": n})
    codebook_limit = st.builds(
        lambda N, p, K: {**no_points, "N": N, "p": p, "K": K, "eps_cont": f"1/{N}"},
        st.sampled_from((996, 1000)), st.sampled_from((997, 1009)), st.sampled_from((1, 2)),
    )
    return st.sampled_from([drawn] * 8 + [inner_limit, codebook_limit]).flatmap(lambda s: s)


@pytest.mark.parametrize("command", ["concat-decode", "concat-encode", "concat-roundtrip"])
def test_cli_fuzz_params_files_exit_with_a_documented_code(tmp_path, desk_params, command):
    """Params files with huge or tiny p, N, n and K exit 0, 2, 3 or 4 within FUZZ_WALL_S."""
    path = tmp_path / "drawn.json"

    @settings(max_examples=60, deadline=None)
    @given(
        _fuzz_params_record(params_to_json_dict(desk_params)),
        _fuzz_argv(command, [str(path)], [str(tmp_path / "out.txt")]),
    )
    def run(record, argv):
        path.write_text(json.dumps(record))
        assert exit_code_within_wall_bound(argv) in (0, 2, 3, 4), argv

    run()
