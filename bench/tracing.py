"""In-process driving of ``framecore.cli.run`` and the span tracer.

The tracer wraps the public functions listed in ``LAYERS`` from the
outside: every module namespace of the package that binds a function gets
the same wrapper, because ``coreanalysis``, ``frames`` and
``constructions`` import numerics names directly and ``rank_of`` reaches
``sym_eig`` through the ``numerics`` globals.  Spans (name, start, end,
parent) are kept in memory; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# module -> public functions whose spans and call counts the traced run reports
LAYERS: dict[str, tuple[str, ...]] = {
    "numerics": (
        "nnls_cone_feasible",
        "min_norm_point",
        "sym_eig",
        "rank_of",
        "orthonormal_complement",
    ),
    "frames": ("spans", "gram", "neighbors", "spectral_data"),
    "coreanalysis": (
        "classify_vector",
        "isolable_set",
        "core",
        "validate_core",
        "eigen_span_diagnostic",
    ),
    "report": ("build_analysis_report", "emit_report"),
    "frameio": ("parse_frame_with_overrides", "emit_frame"),
    "constructions": ("naimark_complement", "double"),
    "cli": ("run",),
}

TRACED = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)
ROOT = "cli.run"
CLASSIFY = "coreanalysis.classify_vector"
CONE_QUERY = "numerics.nnls_cone_feasible"
CONE_STAGE = frozenset({CONE_QUERY, "numerics.min_norm_point"})


def load_cli(src: Path):
    """Import ``framecore.cli`` from ``src`` and make sure it is that copy."""
    src = src.resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("framecore.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"framecore was imported from {cli.__file__}, not from {src}")
    return cli


def call(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI invocation in-process; returns (exit code, stdout text).

    An exception escaping ``run`` gives exit code 1 with its traceback on
    the captured stderr, as it would in a child interpreter.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception:  # noqa: BLE001 - mirror the interpreter's exit status
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


@dataclass
class Tracer:
    # one [name, start, end, parent index] per call, in call order
    spans: list[list] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of each traced function in the framecore modules."""
        package = [m for k, m in list(sys.modules.items()) if k == "framecore" or k.startswith("framecore.")]
        saved = []
        for module_name, names in LAYERS.items():
            module = sys.modules[f"framecore.{module_name}"]
            for name in names:
                original = getattr(module, name, None)
                if original is None:  # removed by a later change: counted as 0 calls
                    continue
                wrapper = self.wrap(f"{module_name}.{name}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def roots(self) -> list[int]:
        """Index of the root span above each span."""
        out = []
        for index, (_, _, _, parent) in enumerate(self.spans):
            out.append(index if parent < 0 else out[parent])
        return out

    def cone_stage(self, roots: set[int] | None = None) -> tuple[int, int]:
        """(NNLS queries inside classifications, classifications that reached the cone stage).

        ``roots`` restricts the count to the calls under those root spans.
        """
        top = self.roots()
        nearest = []  # nearest classify_vector span at or above each span
        for index, (name, _, _, parent) in enumerate(self.spans):
            nearest.append(index if name == CLASSIFY else (nearest[parent] if parent >= 0 else -1))
        queries = 0
        reached = set()
        for index, (name, _, _, _) in enumerate(self.spans):
            if name in CONE_STAGE and nearest[index] >= 0 and (roots is None or top[index] in roots):
                reached.add(nearest[index])
                queries += name == CONE_QUERY
        return queries, len(reached)

    def records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
