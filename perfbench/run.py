"""The insdel benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload concat-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # every workload, both modes
    python3 perfbench/run.py --selfcheck                     # every output check can fail

One run sets up, drives one workload for --seconds with a single client
(one op at a time), checks every op's output and prints two JSON lines:
the full record (environment, every metric with its details) and, last,
the summary {"correct", "attempted", "failed", "metrics"} whose metrics
are the end-to-end ones of BENCHMARK.json with --trace 0 and the
per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("concat-desk", "concat-sharp", "cli-mix")
SETUP_PROBES = 4  # fresh-interpreter setups per run, besides the run's own
CONTROL_REPEATS = 3  # bare-interpreter and import timings per traced run
# Nominal cli-mix cycle length.  A run holds round(--seconds / this) whole
# cycles, so its sample count, and the percentile of its tail, do not
# depend on how fast the code is.
CLI_CYCLE_S = 15.0


def require_package() -> None:
    init = ROOT / "src" / "insdel" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from an insdel checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def setup(workload: str, seed: int, workdir: Path):
    """Import the package and build the workload: params, inner encoder, input files."""
    importlib.import_module("insdel")
    if workload == "cli-mix":
        return workloads.cli_ops(seed, workdir)
    instance = workloads.desk() if workload == "concat-desk" else workloads.SHARP
    return workloads.ConcatWorkload(workload, instance, seed)


def timed_setup(workload: str, seed: int, workdir: Path):
    start = time.perf_counter()
    state = setup(workload, seed, workdir)
    return state, time.perf_counter() - start


def setup_probe(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
           "--seed", str(seed)]
    out = subprocess.run(cmd, capture_output=True, check=True, cwd=ROOT)
    return float(out.stdout.decode().split()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value, percentile).

    With 20 samples or fewer that percentile is at or below the median,
    so the maximum is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_concat(wl, seconds: float, tracer) -> dict:
    latencies, failures, op_info = [], [], {}
    start = time.perf_counter()
    while True:
        inputs = wl.draw()
        op_id = len(latencies)
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            result = wl.op(inputs)
            errors = None
        except Exception as exc:  # an op that raises counts as failed; the loop goes on
            errors = [f"{type(exc).__name__}: {exc}"]
        latency = time.perf_counter() - t0
        errors = wl.errors(result) if errors is None else errors
        result = None
        latencies.append(latency)
        op_info[op_id] = (wl.name, latency)
        if errors:
            failures.append(f"op {op_id}: {'; '.join(errors)}")
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return dict(latencies=latencies, failures=failures, op_info=op_info, elapsed=elapsed,
                peak_rss_mb=peak_kb / 1024, spans=tracer.spans if tracer else None)


def run_cli_mix(ops, seed: int, seconds: float, workdir: Path, traced: bool) -> dict:
    """A fixed number of whole cycles, so every run holds each op equally often.

    The cycle count comes from --seconds and CLI_CYCLE_S, not from the
    measured speed: a faster or slower program runs the same ops.
    """
    results, op_info, raw = [], {}, []
    start = time.perf_counter()
    for _ in range(max(1, round(seconds / CLI_CYCLE_S))):
        for op in ops:
            op_id = len(results)
            res = workloads.run_cli(op.argv, workdir, workdir / "spans.json" if traced else None)
            results.append((op, res))
            op_info[op_id] = (op.name, res.wall)
            base = len(raw)
            for name, start_t, end_t, parent, _, value in res.spans or ():
                raw.append([name, start_t, end_t, parent + base if parent >= 0 else -1, op_id, value])
    elapsed = time.perf_counter() - start
    failures = []
    verdicts: dict = {}
    outputs: dict = {}
    for op_id, (op, res) in enumerate(results):
        key = (op.name, res.returncode, res.stdout)
        if key not in verdicts:
            verdicts[key] = checks.cli_errors(op, seed, res.returncode, res.stdout)
        errors = list(verdicts[key])
        if traced and res.spans is None:
            errors.append("traced child wrote no spans")
        if outputs.setdefault(op.name, res.stdout) != res.stdout:
            errors.append("stdout differs between cycles")
        if errors:
            detail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
            failures.append(f"op {op_id} {op.name}: {'; '.join(errors + detail)}")
    return dict(latencies=[res.wall for _, res in results], failures=failures, op_info=op_info,
                elapsed=elapsed, peak_rss_mb=max(res.maxrss_kb for _, res in results) / 1024,
                spans=raw if traced else None)


def interpreter_controls() -> dict:
    """Bare interpreter start, and `import insdel.cli` beyond it, in fresh interpreters."""
    env = workloads.child_env()
    bare, imported = [], []
    for _ in range(CONTROL_REPEATS):
        for code, sink in (("pass", bare), ("import insdel.cli", imported)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT)
            sink.append(time.perf_counter() - start)
    interpreter = statistics.median(bare)
    return {
        "cli.interpreter_ms": (1e3 * interpreter, "ms"),
        "cli.import_ms": (1e3 * (statistics.median(imported) - interpreter), "ms"),
    }


def environment(seed: int) -> dict:
    from importlib import metadata

    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "insdel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, spans_path: Path | None) -> dict:
    require_package()
    tracer = None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workdir = Path(tmp)
        if trace and workload != "cli-mix":
            importlib.import_module("insdel")
            tracer = spans.Tracer()
            spans.install(tracer)
        state, own_setup = timed_setup(workload, seed, workdir)
        setup_times = [own_setup]
        if not trace:
            setup_times += [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
        if workload == "cli-mix":
            run = run_cli_mix(state, seed, seconds, workdir, trace)
        else:
            run = run_concat(state, seconds, tracer)

    latencies = run["latencies"]
    attempted, failed = len(latencies), len(run["failures"])
    ops_per_s = attempted / run["elapsed"]
    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "attempted": attempted,
        "failed": failed,
        "failures": run["failures"][:20],
    }
    if trace:
        per_layer = layers.layer_metrics(run["spans"], run["op_info"], workload)
        per_layer.update(interpreter_controls())
        per_layer["trace.ops_per_s"] = (ops_per_s, "1/s")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(per_layer.items())}
        if spans_path is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                for s in run["spans"]:
                    fh.write(json.dumps(s) + "\n")
    else:
        tail_value, percentile = tail(latencies)
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s", "elapsed_s": run["elapsed"]},
            "latency_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms",
                               "samples": attempted},
            "latency_tail_ms": {"value": 1e3 * tail_value, "unit": "ms",
                                "percentile": percentile, "samples": attempted},
            "error_rate": {"value": failed / attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s",
                        "samples": setup_times},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    record["metrics"] = metrics
    return record


def summary(record: dict) -> dict:
    """The last output line: the BENCHMARK.json metrics of this mode, nothing else."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = {}
    for metric in spec["per_layer" if record["trace"] else "end_to_end"]:
        got = record["metrics"][metric["name"]]
        if got["unit"] != metric["unit"]:
            raise SystemExit(f"error: {metric['name']} is in {got['unit']}, BENCHMARK.json says {metric['unit']}")
        chosen[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": chosen}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced; prints every metric, the overhead and stage balance."""
    records = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return out.returncode
            records[workload, trace] = json.loads(out.stdout.splitlines()[-2])
    print(json.dumps(records[WORKLOADS[0], 0]["environment"]))
    for workload in WORKLOADS:
        plain, traced = records[workload, 0]["metrics"], records[workload, 1]["metrics"]
        for name, m in plain.items():
            extra = f" (p{m['percentile']:.1f} of {m['samples']})" if "percentile" in m else ""
            print(f"{workload:13s} {name:24s} {m['value']:12.4f} {m['unit']}{extra}")
        overhead = plain["ops_per_s"]["value"] / traced["trace.ops_per_s"]["value"]
        print(f"{workload:13s} {'trace_overhead':24s} {overhead:12.4f} untraced/traced ops_per_s")
        for name, m in traced.items():
            print(f"{workload:13s} {name:24s} {m['value']:12.4f} {m['unit']} (traced)")
        if workload.startswith("concat-"):
            bookkeeping = traced["concat.feasible_ms"]["value"] + traced["concat.reencode_ms"]["value"]
            scan = traced["concat.inner_scan_ms"]["value"]
            print(f"{workload:13s} {'feasible+reencode_ms':24s} {bookkeeping:12.4f} ms"
                  f" vs inner_scan_ms {scan:.4f} ms")
    return 0


def selfcheck() -> int:
    require_package()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workdir = Path(tmp)
        concat = [setup(w, checks.DEFAULT_SEED, workdir) for w in ("concat-desk", "concat-sharp")]
        outputs = []
        for op in setup("cli-mix", checks.DEFAULT_SEED, workdir):
            res = workloads.run_cli(op.argv, workdir)
            outputs.append((op, res.returncode, res.stdout))
        missed = checks.selfcheck(concat, outputs)
    for line in missed:
        print(f"MISSED {line}")
    print(f"selfcheck: {len(missed)} checks missed a corrupted output" if missed
          else "selfcheck: every check rejected its corrupted output")
    return 1 if missed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="traced run: also write every span as a JSON line")
    parser.add_argument("--selfcheck", action="store_true", help="show that every output check can fail")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        require_package()
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            print(timed_setup(args.workload, args.seed, Path(tmp))[1])
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    except spans.TraceError as exc:
        raise SystemExit(f"error: {exc}") from exc
    print(json.dumps(record))
    print(json.dumps(summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
