"""Command-line interface.

Commands: analyze, core, classify, naimark, double, construct, catalog,
check.  Frame files are read from a path argument or stdin ("-"), and
``construct``/``naimark``/``double`` write the same structured format that
the other commands read, so shell pipelines compose.  Exit codes: 0
success, 1 usage, 2 parse/validation or an input too large to allocate,
3 numerical failure, 4 check-suite failure.

This module is only the shell (arguments, input, output and exit codes):
``report`` builds and renders what each analysis command prints.
"""

from __future__ import annotations

import argparse
import os
import sys

# The package executes a submodule on its first attribute access: the analysis
# commands never execute ``constructions``, nor the transforms the analysis.
from . import constructions, report
from .errors import NumericalError, ValidationError
from .frames import UnitVectorSystem, gram, tightness
from .frameio import emit_json, parse_frame_with_overrides, round15, write_frame
from .numerics import Tolerances

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    # Each command gets only the options it reads.
    tols = argparse.ArgumentParser(add_help=False)
    tols.add_argument("--tol-eq", type=float, default=None, help="absolute equality tolerance")
    tols.add_argument(
        "--tol-neighbor", type=float, default=None, help="neighbor membership tolerance"
    )
    tols.add_argument(
        "--tol-hull", type=float, default=None, help="zero threshold for hull points"
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output to this path")
    analysis, transform = [tols, fmt, out], [tols, out]

    # --help shows the docstring without its last paragraph, which is about the code.
    parser = _Parser(prog="framecore", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=analysis, help="full analysis report")
    p.add_argument("file", nargs="?", default="-")
    p = sub.add_parser("core", parents=analysis, help="core extraction trace")
    p.add_argument("file", nargs="?", default="-")
    p = sub.add_parser("classify", parents=analysis, help="per-vector verdicts")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--index", type=int, default=None, help="classify only this vector")
    p = sub.add_parser("naimark", parents=transform, help="complementary system")
    p.add_argument("file", nargs="?", default="-")
    p = sub.add_parser("double", parents=transform, help="doubled system in R^{2n}")
    p.add_argument("file", nargs="?", default="-")
    p = sub.add_parser("construct", parents=[out], help="emit a catalog frame")
    p.add_argument(
        "name", choices=("circular", "six_in_r4", "mub_r2", "simplex"), help="construction"
    )
    p.add_argument("--m", type=int, default=None, help="vector count (circular)")
    p.add_argument("--n", type=int, default=None, help="dimension (simplex)")
    p = sub.add_parser("catalog", parents=[fmt, out], help="exactly known packing angles")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = sub.add_parser("check", parents=analysis, help="invariant suite for one file")
    p.add_argument("file", nargs="?", default="-")
    return parser


def _read_source(path: str) -> str:
    """The frame text: bytes decoded as strict UTF-8, or a text-only stdin as it reads."""
    try:
        if path == "-":
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {'stdin' if path == '-' else path}: {exc}") from None


def _load(args) -> tuple[UnitVectorSystem, Tolerances]:
    system, values = parse_frame_with_overrides(_read_source(args.file))
    flags = {"eq_abs": args.tol_eq, "neighbor_abs": args.tol_neighbor, "hull_abs": args.tol_hull}
    values.update((name, value) for name, value in flags.items() if value is not None)
    try:
        return system, Tolerances(**values)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _write(args, write) -> None:
    """Call ``write(stream)`` with the ``--out`` file, or with stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _emit(args, payload: dict, text_renderer) -> None:
    text = report.emit_report(payload) if args.format == "json" else text_renderer(payload)
    _write(args, lambda out: out.write(text))


def _cmd_analyze(args) -> int:
    system, tol = _load(args)
    _emit(args, report.build_analysis_report(system, tol), report.render_text)
    return EXIT_OK


def _cmd_core(args) -> int:
    system, tol = _load(args)
    _emit(args, report.build_core_report(system, tol), report.render_core_text)
    return EXIT_OK


def _cmd_classify(args) -> int:
    system, tol = _load(args)
    if args.index is not None and not 0 <= args.index < system.size:
        raise ValidationError(f"--index {args.index} out of range for {system.size} vectors")
    payload = report.build_classify_report(system, tol, args.index)
    _emit(args, payload, report.render_classify_text)
    return EXIT_OK


def _cmd_naimark(args) -> int:
    system, tol = _load(args)
    complement, lam, k = constructions.naimark_complement(system, tol)
    summary = (
        f"naimark complement: {complement.size} vectors in R^{complement.dim}, "
        f"lambda={round15(lam)}, top multiplicity k={k}\n"
        f"verified: unit norms and Gram relation G_Y (1 - lambda) = G_X within 1e-8; "
        f"coherence {round15(gram(system).coherence)} -> {round15(gram(complement).coherence)}\n"
    )
    _write(args, lambda out: write_frame(complement, out))
    sys.stderr.write(summary)
    return EXIT_OK


def _cmd_double(args) -> int:
    system, tol = _load(args)
    doubled = constructions.double(system)
    summary = (
        f"doubled: {doubled.size} vectors in R^{doubled.dim}; "
        f"coherence {round15(gram(system).coherence)} -> {round15(gram(doubled).coherence)}; "
        f"tightness {tightness(system, tol).kind} -> {tightness(doubled, tol).kind}\n"
    )
    _write(args, lambda out: write_frame(doubled, out))
    sys.stderr.write(summary)
    return EXIT_OK


def _cmd_construct(args) -> int:
    try:
        if args.name == "circular":
            if args.m is None:
                raise _UsageError("construct circular requires --m")
            system = constructions.circular_frame(args.m)
        elif args.name == "six_in_r4":
            system = constructions.six_in_r4()
        elif args.name == "mub_r2":
            system = constructions.mub_r2()
        else:
            if args.n is None:
                raise _UsageError("construct simplex requires --n")
            system = constructions.simplex_etf(args.n)
    except ValueError as exc:  # an out-of-range --m or --n
        raise ValidationError(f"construct {args.name}: {exc}") from None
    _write(args, lambda out: write_frame(system, out))
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.n < 2 or args.m <= args.n:
        raise ValidationError(f"catalog needs m > n >= 2, got m={args.m}, n={args.n}")
    entries = constructions.angle_catalog(args.m, args.n)
    if args.format == "text":
        text = "".join(f"{e.kind} ({e.rule}): {e.value:.12g}\n" for e in entries)
        _write(args, lambda out: out.write(text or "unknown\n"))
        return EXIT_OK
    payload = {
        "m": args.m,
        "n": args.n,
        "known": bool(entries),
        "entries": [
            {"kind": e.kind, "rule": e.rule, "value": round15(e.value)} for e in entries
        ],
    }
    _write(args, lambda out: out.write(emit_json(payload)))  # catalog runs no analysis
    return EXIT_OK


def _cmd_check(args) -> int:
    system, tol = _load(args)
    payload = report.build_check_report(system, tol)
    _emit(args, payload, report.render_check_text)
    return EXIT_CHECK_FAILED if payload["failed"] else EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "core": _cmd_core,
    "classify": _cmd_classify,
    "naimark": _cmd_naimark,
    "double": _cmd_double,
    "construct": _cmd_construct,
    "catalog": _cmd_catalog,
    "check": _cmd_check,
}


def run(argv=None) -> int:
    """Parse arguments and execute one command; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter shutdown
        return code
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (ValidationError, MemoryError) as exc:  # MemoryError: an input too large to allocate
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_VALIDATION
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # stdout's exit flush then goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
