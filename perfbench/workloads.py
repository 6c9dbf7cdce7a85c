"""The benchmark's workloads: inputs from a seed, one op, and its check.

Every workload is a closed loop driven by one client from one process:
the next op starts only after the previous one has returned.  Package
functions are looked up on their module at call time, so the span
wrappers of a traced run are the ones called.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The sharp instance: the same decoder as DESK with the opposite stage
# balance.  The list holds about one codeword, so almost no time goes to
# re-encoding or feasibility and most goes to the inner LCS scan.
SHARP = dict(
    N=8,
    n=20,
    q=4,
    p=11,
    K=3,
    eps_cont=Fraction(1, 4),
    eps_in=Fraction(1, 10),
    eps_out=Fraction(1, 8),
    eps_conc=Fraction(1, 40),
    tau_in=Fraction(1, 4),
    tau_star=Fraction(1, 5),
    alpha_out=Fraction(1, 2),
    ell_out=88,
    inner_seed=2024,
)


def desk() -> dict:
    import oracles

    return oracles.DESK


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class ConcatWorkload:
    """Seeded concat roundtrips at the full decoding budget."""

    def __init__(self, name: str, instance: dict, seed: int) -> None:
        self.name = name
        self.concat = importlib.import_module("insdel.concat")
        self.channel = importlib.import_module("insdel.channel")
        core = importlib.import_module("insdel.core")
        with warnings.catch_warnings():
            warnings.simplefilter("error", core.RegimeWarning)
            self.params = self.concat.make_concat_params(**instance)
        p = self.params
        self.budget = int(p.tau * p.n * p.N)
        self.rng = random.Random(seed)

    def draw(self) -> tuple:
        """Message, per-block budgets and channel seed for the next op.

        The budget is spread one unit at a time over random blocks, each
        capped at 2n, by the same rule as `insdel.cli.concat_roundtrip`.
        """
        p, rng = self.params, self.rng
        message = [rng.randrange(p.outer.p) for _ in range(p.outer.k)]
        budgets = [0] * p.N
        remaining = self.budget
        while remaining:
            pick = rng.randrange(p.N)
            if budgets[pick] < 2 * p.n:
                budgets[pick] += 1
                remaining -= 1
        return message, budgets, rng.randrange(2**63)

    def op(self, inputs: tuple):
        message, budgets, channel_seed = inputs
        p = self.params
        sent = self.concat.concat_encode_message(p, message)
        received, _ = self.channel.adversarial_block_channel(sent, p.n, budgets, channel_seed)
        return sent, self.concat.list_decode_concat_detailed(p, received)

    def errors(self, result) -> list[str]:
        sent, report = result
        return checks.concat_errors(self.params, sent, report)


@dataclass(frozen=True)
class CliOp:
    name: str
    argv: list
    seeded: bool  # argv depends on the workload seed


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall: float
    maxrss_kb: int
    spans: list | None = None


# Fixed certify code: list-decodable at (tau_n=2, L=4), so both certify
# modes scan their whole space and cost the same on every seed.
CERTIFY_CODE = dict(q=2, n=7, size=8, seed=3)


def cli_ops(seed: int, workdir: Path) -> list[CliOp]:
    """Write the op input files into workdir and return the 11-op cycle."""
    codes = importlib.import_module("insdel.codes")
    concat = importlib.import_module("insdel.concat")
    code = codes.sample_random_code(
        CERTIFY_CODE["q"], CERTIFY_CODE["n"], CERTIFY_CODE["size"], CERTIFY_CODE["seed"]
    )
    code_file = workdir / "code.json"
    code_file.write_text(json.dumps(codes.code_to_json_dict(code)))
    params_file = workdir / "desk.json"
    params_file.write_text(
        json.dumps(concat.params_to_json_dict(concat.make_concat_params(**desk())))
    )

    rng = random.Random(seed)
    a = "".join(str(rng.randrange(4)) for _ in range(28))
    b = "".join(str(rng.randrange(4)) for _ in range(28))
    center = "".join(str(rng.randrange(2)) for _ in range(7))
    sample_seed, certify_seed, concat_seed = (str(rng.randrange(2**32)) for _ in range(3))
    certify = ["certify", "--code-file", str(code_file), "--tau-n", "2", "-L", "4"]
    return [
        CliOp("curve-zyablov", ["curve", "--kind", "zyablov", "-q", "2", "--epsilon", "0.01",
                                "--start", "0.1", "--stop", "0.5", "--steps", "3"], False),
        CliOp("curve-random_binary", ["curve", "--kind", "random_binary",
                                      "--start", "0", "--stop", "0.5", "--steps", "11"], False),
        CliOp("curve-random_q3", ["curve", "--kind", "random_q3", "-q", "4",
                                  "--start", "0", "--stop", "0.6", "--steps", "11"], False),
        CliOp("certify-exhaustive", certify, False),
        CliOp("certify-sampled", certify + ["--mode", "sampled", "--samples", "300",
                                            "--seed", certify_seed], True),
        CliOp("sphere", ["sphere", "-q", "2", "--center", center, "--radius", "3",
                         "--kind", "insertion"], True),
        CliOp("ball", ["ball", "-q", "2", "--center", "01101001", "--radius", "4",
                       "--length", "10"], False),
        CliOp("gv-greedy", ["gv-greedy", "-q", "2", "-n", "8", "-d", "4"], False),
        CliOp("distance", ["distance", "-q", "4", a, b], True),
        CliOp("sample", ["sample", "-q", "2", "-n", "16", "-M", "256", "--seed", sample_seed,
                         "--digest"], True),
        CliOp("concat-roundtrip", ["concat-roundtrip", "--params", str(params_file),
                                   "--seed", concat_seed, "--budget", "16"], True),
    ]


def run_cli(argv: list, workdir: Path, spans_file: Path | None = None) -> CliResult:
    """One CLI invocation in a fresh interpreter, waited for with its rusage.

    With spans_file, the traced child script stands in for `-m insdel`.
    """
    if spans_file is None:
        cmd = [sys.executable, "-m", "insdel", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), *argv]
    err_path = workdir / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        try:
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    spans = None
    if spans_file is not None and spans_file.exists():
        spans = json.loads(spans_file.read_text())
        spans_file.unlink()
    return CliResult(proc.returncode, stdout, err_path.read_bytes(), wall, usage.ru_maxrss, spans)
