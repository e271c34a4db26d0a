"""What a command-line child executes: entry points, lazy package names, and
the modules each command runs."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import framecore
from framecore import emit_frame, six_in_r4
from framecore.cli import run

SRC = Path(framecore.__file__).resolve().parents[1]
SUBMODULES = sorted(
    p.stem for p in (SRC / "framecore").glob("*.py") if p.stem not in ("__init__", "__main__")
)

# Imports the CLI in a fresh interpreter, runs one command and reports which
# framecore modules are registered and which have executed, the public names
# whose home modules executed, whether ``dataclasses`` and ``numpy`` are
# loaded, and which of the argument-parsing modules.  A
# module whose execution LazyLoader defers keeps a ModuleType subclass until
# its first attribute access runs it.
PROBE_IMPORTS = "import contextlib, io, json, sys, types"
PARSING = ("argparse", "gettext", "locale")
PROBE = PROBE_IMPORTS + """
import framecore.cli
registered = sorted(k for k in sys.modules if k.startswith("framecore."))
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = framecore.cli.run(sys.argv[1:])
executed = sorted(
    k for k, m in sys.modules.items() if k.startswith("framecore.") and type(m) is types.ModuleType
)
homes = {k.removeprefix("framecore.") for k in executed}
print(json.dumps({
    "code": code, "registered": registered, "executed": executed,
    "public": sorted(n for n, home in framecore._HOME.items() if home in homes),
    "dataclasses": "dataclasses" in sys.modules,
    "numpy": "numpy" in sys.modules,
    "parsing": [m for m in %r if m in sys.modules],
}))
""" % (PARSING,)

ANALYSIS = ("analyze", "core", "classify", "check")
TRANSFORMS = ("naimark", "double")

# What every command executes: the shell and the frame reader and writer.
SHELL = {"cli", "errors", "frameio"}
# The frame primitives, which import numpy: every command that reads or writes a frame runs them.
FRAMES = {"frames", "numerics"}
# The modules each command executes beyond SHELL.
RUNS = {
    "analyze": FRAMES | {"coreanalysis", "diagnostics", "report"},
    "check": FRAMES | {"coreanalysis", "diagnostics", "report"},
    "core": FRAMES | {"coreanalysis", "report"},
    "classify": FRAMES | {"coreanalysis", "report"},
    "naimark": FRAMES | {"constructions"},
    "double": FRAMES | {"constructions"},
    "construct": FRAMES | {"constructions"},
    "catalog": {"angles"},
}
# Public names by the part of the program they belong to: a command that does
# not run them executes none of their code.
DIAGNOSTICS = (
    "classify_n_plus_2",
    "eigen_span_diagnostic",
    "neighbor_count_report",
    "tight_grassmannian_diagnostic",
    "validate_core",
)
ANGLES = ("AngleCatalogEntry", "angle_catalog", "catalog_consistency")
CONSTRUCTIONS = ("circular_frame", "double", "naimark_complement", "simplex_etf")


def _child(args, env_extra=None, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, **kwargs
    )


@pytest.fixture(scope="module")
def frame_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("frames") / "six.json"
    path.write_text(emit_frame(six_in_r4()), encoding="utf-8")
    return str(path)


EVERY_COMMAND = [[c] for c in ANALYSIS + TRANSFORMS] + [
    ["construct", "six_in_r4"], ["catalog", "--m", "6", "--n", "4"]
]
COMMANDS = pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
HELP = [["--help"], ["analyze", "--help"], ["catalog", "-h"]]
USAGE_ERRORS = [["catalog", "--m", "6"], ["no-such-command"], ["analyze", "--no-such-flag"]]


@pytest.fixture(scope="module")
def probe(frame_path):
    """``probe(argv)``: PROBE's report for one command, one child per command."""
    reports = {}

    def run_probe(argv):
        if argv[0] in ANALYSIS + TRANSFORMS:
            argv = argv + [frame_path]
        if tuple(argv) not in reports:
            done = _child(["-c", PROBE, *argv])
            assert done.returncode == 0, done.stderr
            reports[tuple(argv)] = json.loads(done.stdout)
        return reports[tuple(argv)]

    return run_probe


@COMMANDS
def test_each_command_executes_only_the_modules_it_runs(argv, probe):
    probe = probe(argv)
    assert probe["code"] == 0
    # Every module is registered at import, as code that walks sys.modules expects.
    assert probe["registered"] == [f"framecore.{m}" for m in SUBMODULES]
    executed = {name.removeprefix("framecore.") for name in probe["executed"]}
    # The default JSON output never executes the text views.
    assert executed == SHELL | RUNS[argv[0]]


@COMMANDS
def test_each_command_executes_only_the_code_it_runs(argv, probe):
    # The core diagnostics and the packing-angle catalog live apart from the
    # peeling and the transforms that the other commands run.
    public = set(probe(argv)["public"])
    assert public.isdisjoint(DIAGNOSTICS) is (argv[0] not in ("analyze", "check"))
    assert public.isdisjoint(ANGLES) is (argv[0] != "catalog")
    assert public.isdisjoint(CONSTRUCTIONS) is (argv[0] not in ("naimark", "double", "construct"))


@pytest.mark.parametrize("command", ANALYSIS)
def test_text_format_executes_the_text_views(command, probe):
    probe = probe([command, "--format", "text"])
    assert probe["code"] == 0
    executed = {name.removeprefix("framecore.") for name in probe["executed"]}
    assert {"report", "text"} <= executed
    assert "constructions" not in executed


def test_the_package_registers_its_submodules_and_executes_only_those_used():
    probe = PROBE_IMPORTS + """
def executed():
    return sorted(
        k[10:] for k, m in sys.modules.items() if k.startswith("framecore.") and type(m) is types.ModuleType
    )
import framecore.report
from framecore import constructions
registered = sorted(k[10:] for k in sys.modules if k.startswith("framecore."))
at_import = executed()
framecore.core
print(json.dumps([registered, at_import, executed()]))
"""
    done = _child(["-c", probe])
    assert done.returncode == 0, done.stderr
    registered, at_import, after_core = json.loads(done.stdout)
    assert registered == [m for m in SUBMODULES if m != "cli"]
    assert at_import == []
    # Reading one public name executes its home module and the modules that
    # home imports, and no other.
    assert {"angles", "diagnostics"} <= set(registered)
    assert {"coreanalysis", "errors", "frames", "numerics"} <= set(after_core)
    assert not set(after_core) & {"angles", "constructions", "diagnostics", "report", "text"}


@pytest.fixture(scope="module")
def numpy_loads():
    """The modules that a child with only the probe's own imports and numpy holds,
    of ``dataclasses`` and the argument-parsing modules."""
    names = ("dataclasses", *PARSING)
    code = PROBE_IMPORTS + f"; import numpy; print(json.dumps([m for m in {names!r} if m in sys.modules]))"
    done = _child(["-c", code])
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


@pytest.fixture(scope="module")
def numpy_loads_dataclasses(numpy_loads):
    return "dataclasses" in numpy_loads


@COMMANDS
def test_no_command_loads_dataclasses(argv, probe, numpy_loads_dataclasses):
    # Each dataclass execs generated source for its methods at class
    # creation, a cost every child pays at start-up; the records are
    # NamedTuples.  A numpy that imports dataclasses itself does not fail this.
    assert probe(argv)["code"] == 0
    assert probe(argv)["dataclasses"] <= numpy_loads_dataclasses


@pytest.mark.parametrize("argv", EVERY_COMMAND + HELP, ids=lambda argv: " ".join(argv[:2]))
def test_no_command_loads_argparse(argv, probe, numpy_loads):
    # The command table parses argv: argparse, and the gettext and locale
    # modules its messages load, cost every child a few ms at start-up.  A
    # numpy that imports one of them itself does not fail this.
    assert probe(argv)["code"] == 0
    assert set(probe(argv)["parsing"]) <= numpy_loads


NO_FRAME = [
    ["catalog", "--m", "6", "--n", "4"], ["catalog", "--m", "6", "--n", "4", "--format", "text"],
    *HELP, *USAGE_ERRORS,
]


@pytest.mark.parametrize("argv", NO_FRAME, ids=" ".join)
def test_commands_that_read_no_frame_never_import_numpy(argv, probe):
    # The packing-angle catalog is closed-form scalars, and help and usage
    # errors stop before any frame is read: numpy's import is most of a
    # child's start-up.
    probe = probe(argv)
    assert probe["code"] == (1 if argv in USAGE_ERRORS else 0)
    assert not probe["numpy"]
    executed = {name.removeprefix("framecore.") for name in probe["executed"]}
    assert executed.isdisjoint(FRAMES)


def test_public_names_resolve_to_their_home_modules():
    for name in framecore.__all__:
        value = getattr(framecore, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("framecore.")
        assert getattr(home, name) is value, name
    namespace = {}
    exec("from framecore import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(framecore.__all__)
    assert set(framecore.__all__) <= set(dir(framecore))


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        framecore.no_such_name  # noqa: B018
    assert not hasattr(framecore, "no_such_name")


@pytest.mark.parametrize("module", ["framecore", "framecore.cli"])
def test_python_dash_m_runs_the_cli(module, monkeypatch, capsys):
    done = _child(["-m", module, "catalog", "--m", "6", "--n", "4"])
    code = run(["catalog", "--m", "6", "--n", "4"])
    assert (done.returncode, done.stdout) == (code, capsys.readouterr().out)
    assert code == 0 and done.stdout
    done = _child(["-m", module, "construct", "circular", "--m", "1"])
    assert done.returncode == 2 and done.stderr.startswith("error: construct circular")


# Launches ``main`` the way a benchmark child does: an atexit hook registered
# before the CLI is imported, which writes the collector's freeze count.
CONSOLE = """\
import atexit, gc, os, sys

def _hook():
    with open(os.environ["HOOK_FILE"], "w", encoding="ascii") as out:
        out.write(str(gc.get_freeze_count()))

atexit.register(_hook)
from framecore.cli import main
sys.argv[0] = "framecore"
main()
"""


@pytest.fixture(scope="module")
def antipodal_path(tmp_path_factory):
    # ±e1 share one line: check fails (exit 4).
    path = tmp_path_factory.mktemp("frames") / "antipodal.txt"
    path.write_text("1 0\n-1 0\n0 1\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("case, expected", [
    ("analyze", 0), ("unknown flag", 1), ("missing file", 2), ("check failed", 4)
])
def test_console_exit_matches_run_and_runs_atexit_hooks(
    case, expected, frame_path, antipodal_path, tmp_path, capsys
):
    argv = {
        "analyze": ["analyze", frame_path],
        "unknown flag": ["analyze", "--no-such-flag", frame_path],
        "missing file": ["analyze", str(tmp_path / "missing.json")],
        "check failed": ["check", antipodal_path],
    }[case]
    hook_file = tmp_path / "freeze_count"
    done = _child(["-c", CONSOLE, *argv], env_extra={"HOOK_FILE": str(hook_file)})
    code = run(argv)
    captured = capsys.readouterr()
    assert code == expected
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
    # The hook ran, and main had frozen the collector: shutdown collects nothing it tracked.
    assert int(hook_file.read_text(encoding="ascii")) > 0


@COMMANDS
def test_run_leaves_the_collector_alone(argv, frame_path, capsys):
    if argv[0] in ANALYSIS + TRANSFORMS:
        argv = argv + [frame_path]
    before = gc.isenabled(), gc.get_freeze_count()
    assert run(argv) == 0
    capsys.readouterr()
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def _compile_peak(module: str) -> int:
    """The tracemalloc peak of compiling ``module``'s source, in bytes."""
    source = (SRC / "framecore" / f"{module}.py").read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        compile(source, f"{module}.py", "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# A child run from source without bytecode (PYTHONDONTWRITEBYTECODE) keeps the
# compiler's working set for the largest module it compiles after numpy loads.
# Only __init__, cli, errors and frames compile before ``import numpy``, whose
# import reuses that memory; every later module adds its own to the child's peak
# RSS.  So none may take more to compile than frames.py (981 KiB on Python
# 3.11.7).  One module holding the core peeling and its diagnostics takes
# 1,169 KiB, and one holding the transforms and the angle catalog 902 KiB: with
# those two, the small-batch benchmark's highest child (``analyze`` or ``check``)
# peaked at 31.14 MB instead of 30.60 MB.
@pytest.mark.parametrize("module", [m for m in SUBMODULES if m not in ("cli", "errors", "frames")])
def test_no_module_compiled_after_numpy_needs_more_than_frames(module):
    assert _compile_peak(module) <= _compile_peak("frames")
