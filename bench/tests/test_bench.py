"""Self-tests: the benchmark measures what it claims and gates what it should."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import corpus
import gate
import run
import tracing


@pytest.fixture(scope="module")
def cli():
    return tracing.load_cli(run.SRC)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_same_corpus_bytes(tmp_path, workload):
    a = corpus.write_corpus(workload, 7, tmp_path / "a")
    corpus.write_corpus(workload, 7, tmp_path / "b")
    corpus.write_corpus(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [f.name for f in a] == [f.name for f in corpus.WORKLOADS[workload]]


def test_transform_keeps_duplicate_rows_bit_equal():
    base = corpus.simplex(3)[[0, 0, 1, 2, 3]]
    rows, perm = corpus.transform(base, seed=5, index=0)
    twins = [k for k, p in enumerate(perm) if p in (0, 1)]
    assert abs(rows[twins[0]]).tolist() == abs(rows[twins[1]]).tolist()


def test_fingerprint_ignores_certificates_but_catches_a_flipped_status(cli, tmp_path):
    (frame,) = [f for f in corpus.write_corpus("small-batch", 3, tmp_path) if f.name == "tripod-0.5"]
    code, stdout = tracing.call(cli, ["analyze", str(frame.path)])
    expected = json.loads(run.EXPECTED.read_text())[frame.name]["analyze"]
    assert gate.failure("analyze", expected, code, stdout, frame.perm) is None

    report = json.loads(stdout)
    assert any(v["witness"] for v in report["vectors"])
    for verdict in report["vectors"]:
        verdict["witness"] = [0.0] * 7 if verdict["witness"] else None
        verdict["certificate"] = [[1.0, 2.0]]
    rewritten = json.dumps(report, indent=2) + "\n"
    assert gate.failure("analyze", expected, code, rewritten, frame.perm) is None

    report["vectors"][0]["status"] = "not_isolable"
    flipped = json.dumps(report, indent=2) + "\n"
    assert "fingerprint" in gate.failure("analyze", expected, code, flipped, frame.perm)
    assert "exit code" in gate.failure("analyze", expected, 3, stdout, frame.perm)


def test_ledger_fails_output_that_changes_between_invocations():
    expected = {"x": {"core": {"exit": 0, "fingerprint": {"core": [0], "levels": 1}}}}
    ledger = run.Ledger(expected)
    out = json.dumps({"levels": [{}], "core": [0]})
    ledger.check("f", "x", "core", (0,), 0, out)
    ledger.check("f", "x", "core", (0,), 0, out)
    assert ledger.failures == []
    ledger.check("f", "x", "core", (0,), 0, out + " ")
    assert ledger.attempted == 3 and len(ledger.failures) == 1


def test_self_times_sum_to_the_wall_time_of_cli_run(cli, tmp_path):
    frames = corpus.write_corpus("etf-cone", 2, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        for command in ("analyze", "core", "check"):
            tracing.call(cli, [command, str(frames[0].path)])
    roots = [s for s in tracer.spans if s[3] < 0]
    assert [s[0] for s in roots] == [tracing.ROOT] * 3
    own = tracer.self_times()
    assert min(own) >= 0.0
    wall = sum(end - start for _, start, end, _ in roots)
    assert math.isclose(sum(own), wall, rel_tol=1e-9, abs_tol=1e-9)


def test_wrappers_cover_every_binding_and_are_removed_afterwards(cli, tmp_path):
    import framecore.coreanalysis as coreanalysis
    import framecore.frames as frames
    import framecore.numerics as numerics

    original = numerics.sym_eig
    (frame,) = [f for f in corpus.write_corpus("etf-cone", 2, tmp_path) if f.name == "six-in-r4"]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert frames.rank_of is numerics.rank_of is coreanalysis.rank_of
        assert numerics.sym_eig is not original
        tracing.call(cli, ["analyze", str(frame.path)])
    assert numerics.sym_eig is original
    parents = {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "numerics.sym_eig"}
    assert "numerics.rank_of" in parents  # reached through the numerics globals
    isolable_sets = sum(s[0] == "coreanalysis.isolable_set" for s in tracer.spans)
    assert isolable_sets == 2


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_traced_output_bytes_equal_child_process_bytes(cli, tmp_path, workload):
    frames = corpus.write_corpus(workload, 4, tmp_path / "frames")
    io_dir = tmp_path / "io"
    io_dir.mkdir()
    env = run.child_env()
    tracer = tracing.Tracer()
    for frame in frames:
        for command in gate.COMMANDS:
            argv = [command, str(frame.path)]
            with tracer.installed():
                code, stdout = tracing.call(cli, argv)
            child = run.invoke(argv, env, io_dir)
            assert (child.code, child.stdout) == (code, stdout), (frame.name, command)


def test_benchmark_json_names_exactly_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
