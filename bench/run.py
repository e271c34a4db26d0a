"""framecore benchmark: CLI pass times on three frame corpora.

Run from the root of a framecore checkout (the package is imported from
``src/``; nothing needs to be installed):

    python3 bench/run.py --workload etf-cone --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the real CLI (``analyze``, ``core``, ``check``,
``naimark``, ``double``) as sequential child processes, one fresh process
per frame and command, and prints the end-to-end metrics.  ``--trace 1``
drives ``framecore.cli.run`` in-process with the layer tracer and prints
the per-layer metrics.  ``--workload all`` runs every workload in both
modes.  Each metric is printed as ``name value unit``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, with a provenance
block, and the spans of traced runs are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One BLAS thread in this process and in every child, set before numpy loads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

MIN_PASSES = 2  # also the passes the tail latency is taken from, so its rank is fixed
SETUP_REPEATS = 4  # at the start, then SETUP_PER_PASS after every pass
SETUP_PER_PASS = 2
REFERENCE_INTERVAL_S = 1.5  # wall time between reference children
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 140.0
SETUP_ARGV = ("catalog", "--m", "6", "--n", "4")
# What the installed ``framecore`` console script does, plus an exit hook
# that records the process's peak RSS.  wait4's ru_maxrss would report
# max(child, driver at spawn), because the child's memory starts as a copy
# of the driver's; VmHWM counts only the exec'd interpreter.
LAUNCH = """\
import atexit, os, sys

def _record_peak_rss():
    with open("/proc/self/status", encoding="ascii") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["BENCH_PEAK_RSS_FILE"], "w", encoding="ascii") as out:
        out.write(kib)

atexit.register(_record_peak_rss)
from framecore.cli import main
sys.argv[0] = "framecore"
main()
"""

# The host's speed drifts by tens of percent over minutes (shared cores), so
# every time is rescaled by a reference child interleaved with the CLI
# children: an interpreter that imports numpy and none of the program.
# Times are reported as seconds at the speed where that child takes
# REFERENCE_S, its typical time on the machine the benchmark was defined
# on (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6); the raw wall times are
# kept in the result file.
REFERENCE = "import numpy"
REFERENCE_S = 0.125

END_TO_END_UNITS = {
    "setup_s": "s",
    "analyze_s": "s",
    "core_s": "s",
    "check_s": "s",
    "transform_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in tracing.TRACED for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "coreanalysis.cone_queries_per_vector": "queries/vector",
    "coreanalysis.verdicts.indeterminate": "count",
    "coreanalysis.core.levels": "count",
    "report.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Invocation:
    code: int
    seconds: float
    rss_mb: float
    stdout: str


class Ledger:
    """Counts invocations and gate failures.

    An invocation fails when its exit code or decided content differs from
    the recorded expectation, or its output bytes differ from the first
    invocation of the same command on the same file.
    """

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict = {}
        self._verdicts: dict = {}

    def check(self, label: str, base: str, command: str, perm, code: int, stdout: str) -> None:
        self.attempted += 1
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        if self._first.setdefault((label, command), digest) != digest:
            self.failures.append(f"{label} {command}: output differs from its first invocation")
            return
        key = (label, command, code, digest)
        if key not in self._verdicts:
            expected = self.expected.get(base, {}).get(command)
            self._verdicts[key] = gate.failure(command, expected, code, stdout, perm)
        if self._verdicts[key]:
            self.failures.append(f"{label} {command}: {self._verdicts[key]}")


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(command: list[str], env: dict, io_dir: Path) -> Invocation:
    """One child process: wall time from spawn to reap, and its peak RSS."""
    out_path, err_path, rss_path = io_dir / "stdout", io_dir / "stderr", io_dir / "peak_rss_kib"
    rss_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            command,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env={**env, "BENCH_PEAK_RSS_FILE": str(rss_path)},
            cwd=ROOT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8")
    rss_mb = int(rss_path.read_text()) / 1024.0 if rss_path.exists() else math.nan
    return Invocation(proc.returncode, seconds, rss_mb, stdout)


def invoke(argv, env: dict, io_dir: Path) -> Invocation:
    """One CLI invocation in a fresh interpreter."""
    return spawn([sys.executable, "-c", LAUNCH, *argv], env, io_dir)


def reference(env: dict, io_dir: Path) -> float:
    """Wall time of the reference child, which imports numpy and nothing of the program."""
    inv = spawn([sys.executable, "-c", REFERENCE], env, io_dir)
    if inv.code != 0:
        raise RuntimeError(f"reference child exited with {inv.code}")
    return inv.seconds


def pass_time(rounds: dict, commands) -> float:
    """One pass over the corpus: per-frame medians over rounds, summed over frames."""
    return sum(
        statistics.median(sum(group[c].seconds for c in commands) for group in groups)
        for groups in rounds.values()
    )


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def trimmed_mean(values: list[float]) -> float:
    """Mean of the middle 80%: the host switches between a fast and a slow
    state, and a median of such a mixture jumps between the two."""
    cut = len(values) // 10
    return statistics.fmean(sorted(values)[cut : len(values) - cut])


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path, ledger: Ledger):
    frames = corpus.write_corpus(workload, seed, workdir / "frames")
    io_dir = workdir / "io"
    io_dir.mkdir()
    env = child_env()
    setup: list[float] = []
    references: list[float] = []
    rounds: dict[str, list[dict]] = {f.path.name: [] for f in frames}
    last_reference = 0.0

    def cli(argv) -> Invocation:
        nonlocal last_reference
        if perf_counter() - last_reference >= REFERENCE_INTERVAL_S:
            references.append(reference(env, io_dir))
            last_reference = perf_counter()
        return invoke(argv, env, io_dir)

    def sample_setup() -> None:
        inv = cli(SETUP_ARGV)
        ledger.check("setup", "setup", "catalog", (), inv.code, inv.stdout)
        setup.append(inv.seconds)

    # The first invocation also compiles bytecode: gated, not timed.
    sample_setup()
    setup.clear()
    references.clear()
    for _ in range(SETUP_REPEATS):
        sample_setup()

    # Frames are visited round-robin until the next one would overrun
    # --seconds, after at least MIN_PASSES full passes; set-up samples are
    # spread over the run so their median sees the same conditions.
    group_s: dict[str, float] = {}
    begin = perf_counter()
    for k in itertools.count():
        frame = frames[k % len(frames)]
        if k and k % len(frames) == 0:
            for _ in range(SETUP_PER_PASS):
                sample_setup()
        elapsed = perf_counter() - begin
        if k >= MIN_PASSES * len(frames) and (
            elapsed + group_s[frame.path.name] > seconds or elapsed > RUN_DEADLINE_S
        ):
            break
        start = perf_counter()
        group = {}
        for command in gate.COMMANDS:
            inv = cli((command, str(frame.path)))
            ledger.check(frame.path.name, frame.name, command, frame.perm, inv.code, inv.stdout)
            group[command] = inv
        group_s[frame.path.name] = perf_counter() - start
        rounds[frame.path.name].append(group)

    tail_s, percentile, samples = tail(
        [groups[i]["analyze"].seconds for groups in rounds.values() for i in range(MIN_PASSES)]
    )
    raw = {
        "setup_s": statistics.median(setup),
        "analyze_s": pass_time(rounds, ("analyze",)),
        "core_s": pass_time(rounds, ("core",)),
        "check_s": pass_time(rounds, ("check",)),
        "transform_s": pass_time(rounds, ("naimark", "double")),
    }
    speed = REFERENCE_S / trimmed_mean(references)
    metrics = {name: value * speed for name, value in raw.items()}
    # Per frame and command the median over rounds, so one outlier child does not set it.
    metrics["peak_rss_mb"] = max(
        statistics.median(group[c].rss_mb for group in groups)
        for groups in rounds.values()
        for c in gate.COMMANDS
    )
    details = {
        "rounds_per_frame": {name: len(groups) for name, groups in rounds.items()},
        # Not in BENCHMARK.json: one order statistic of 12 to 26 samples from
        # frames whose costs differ by up to 5x is not steady within a bound.
        "analyze_tail": {
            "value_s": tail_s * speed,
            "raw_s": tail_s,
            "percentile": percentile,
            "samples": samples,
        },
        "raw_seconds": raw,
        "speed_factor": speed,
        "reference_samples_s": references,
        "setup_samples_s": setup,
        "invocations": [
            [i, name, c, inv.code, inv.seconds, inv.rss_mb]
            for name, groups in rounds.items()
            for i, group in enumerate(groups)
            for c, inv in group.items()
        ],
    }
    return metrics, details


def run_traced(workload: str, seed: int, seconds: float, workdir: Path, ledger: Ledger):
    cli = tracing.load_cli(SRC)
    frames = corpus.write_corpus(workload, seed, workdir / "frames")
    calls = [(f, c, [c, str(f.path)]) for f in frames for c in gate.COMMANDS]

    def one_pass(tracer=None):
        outputs = []
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = perf_counter()
            for _, _, argv in calls:
                outputs.append(tracing.call(cli, argv))
            wall = perf_counter() - start
        for (frame, command, _), (code, stdout) in zip(calls, outputs):
            ledger.check(frame.path.name, frame.name, command, frame.perm, code, stdout)
        return wall, outputs

    one_pass()  # warm-up, untraced
    traced, untraced, layers = [], [], []
    first = None
    begin = perf_counter()
    while True:
        tracer = tracing.Tracer()
        wall, outputs = one_pass(tracer)
        traced.append(wall)
        layers.append(_layer_totals(tracer))
        if first is None:
            first = (tracer, outputs)
        untraced.append(one_pass()[0])
        elapsed = perf_counter() - begin
        if elapsed + traced[-1] + untraced[-1] > seconds or elapsed > RUN_DEADLINE_S:
            break

    tracer, outputs = first
    calls_first, _ = layers[0]
    unsteady = [name for name in tracing.TRACED if any(c[name] != calls_first[name] for c, _ in layers)]
    queries, reached = tracer.cone_stage()
    analyze_out = [out for (_, cmd, _), (_, out) in zip(calls, outputs) if cmd == "analyze"]
    core_out = [out for (_, cmd, _), (_, out) in zip(calls, outputs) if cmd == "core"]
    metrics = {}
    for name in tracing.TRACED:
        metrics[f"{name}.calls"] = calls_first[name]
        metrics[f"{name}.self_s"] = statistics.median(s[name] for _, s in layers)
    metrics["coreanalysis.cone_queries_per_vector"] = queries / reached if reached else 0.0
    metrics["coreanalysis.verdicts.indeterminate"] = sum(
        v["status"] == "indeterminate" for out in analyze_out for v in json.loads(out)["vectors"]
    )
    metrics["coreanalysis.core.levels"] = sum(len(json.loads(out)["levels"]) for out in core_out)
    metrics["report.bytes"] = sum(len(out.encode("utf-8")) for out in analyze_out)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)

    spans_path = workdir.parent / f"{workdir.name}-spans.jsonl"
    commands = [c for _, c, _ in calls]
    with open(spans_path, "w", encoding="utf-8") as fh:
        for record in tracer.records():
            fh.write(json.dumps(record) + "\n")
    root_spans = [i for i, span in enumerate(tracer.spans) if span[3] < 0]
    cone_by_frame = {}
    for root, (frame, command, _) in zip(root_spans, calls):
        if command == "analyze":
            q, r = tracer.cone_stage({root})
            cone_by_frame[frame.name] = {"nnls_queries": q, "classifications_reaching_cone": r}
    details = {
        "traced_passes": len(traced),
        "traced_wall_s": traced,
        "untraced_wall_s": untraced,
        "cone_stage": {"nnls_queries": queries, "classifications_reaching_cone": reached},
        "analyze_cone_stage_by_frame": cone_by_frame,
        "calls_differ_between_passes": unsteady,
        "self_time_sum_s": sum(tracer.self_times()),
        "root_wall_sum_s": sum(e - s for n, s, e, p in tracer.spans if p < 0),
        "by_command": _by_command(tracer, commands),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details


def _layer_totals(tracer: tracing.Tracer) -> tuple[Counter, dict]:
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    for (name, *_), own in zip(tracer.spans, tracer.self_times()):
        calls[name] += 1
        self_s[name] += own
    return calls, self_s


def _by_command(tracer: tracing.Tracer, commands: list[str]) -> dict:
    """Per CLI command: invocations, and calls / self / inclusive seconds per layer."""
    roots = tracer.roots()
    root_command = {}
    for index, (_, _, _, parent) in enumerate(tracer.spans):
        if parent < 0:
            root_command[index] = commands[len(root_command)]
    own = tracer.self_times()
    out: dict = {}
    for index, (name, start, end, parent) in enumerate(tracer.spans):
        entry = out.setdefault(root_command[roots[index]], {"invocations": 0, "layers": {}})
        if parent < 0:
            entry["invocations"] += 1
        layer = entry["layers"].setdefault(name, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
        layer["calls"] += 1
        layer["self_s"] += own[index]
        # inclusive time counts only the outermost span of a name (no recursion double count)
        ancestor = parent
        while ancestor >= 0 and tracer.spans[ancestor][0] != name:
            ancestor = tracer.spans[ancestor][3]
        if ancestor < 0:
            layer["inclusive_s"] += end - start
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not the root of a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "framecore").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "child_blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    ledger = Ledger(json.loads(EXPECTED.read_text(encoding="utf-8")))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = run_traced if trace else run_untraced
        metrics, details = runner(workload, seed, seconds, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    failed = len(ledger.failures)
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "provenance": provenance(workload, seed, seconds, trace),
        "failed_ratio": failed / ledger.attempted,
        "failures": ledger.failures,
        "details": details,
        **result,
    }
    (OUT / f"{workdir.name}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {workload} seed={seed} trace={trace}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{workload}/{name} {metric['value']!r} {metric['unit']}")
    print(f"{workload}/failed_ratio {record['failed_ratio']!r} ratio ({failed} of {ledger.attempted})")
    if not trace:
        t = details["analyze_tail"]
        print(f"{workload}/analyze_tail_s {t['value_s']!r} s (p{t['percentile']:.1f} "
              f"of {t['samples']} analyze samples from the first {MIN_PASSES} rounds; not bounded)")
        print(f"{workload}/rounds_per_frame {details['rounds_per_frame']}")
        print(f"{workload}/speed_factor {details['speed_factor']!r} (reference child trimmed mean "
              f"{trimmed_mean(details['reference_samples_s'])!r} s vs {REFERENCE_S} s)")
        for name, value in details["raw_seconds"].items():
            print(f"{workload}/raw.{name} {value!r} s")
    for line in ledger.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*corpus.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "framecore" / "cli.py").is_file():
        print(f"error: no framecore sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = {
        (w, t): run_one(w, args.seed, args.seconds, t) for w in corpus.WORKLOADS for t in (0, 1)
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for (w, _), r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
