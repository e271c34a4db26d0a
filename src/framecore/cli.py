"""Command-line interface.

Commands: analyze, core, classify, naimark, double, construct, catalog,
check.  Frame files are read from a path argument or stdin ("-"), and
``construct``/``naimark``/``double`` write the same structured format that
the other commands read, so shell pipelines compose.  A flag's value
follows it or an "=", its last occurrence wins, "--" ends the flags, and
abbreviations are usage errors.  Exit codes: 0 success, 1 usage, 2
parse/validation or an input too large to allocate, 3 numerical
failure, 4 check-suite failure.

This module is only the shell (arguments, input, output and exit codes):
``_parse_args`` reads argv through ``_COMMANDS``, ``report`` builds what
each analysis command prints and ``text`` renders its text views.
"""

from __future__ import annotations

import gc
import os
import re
import sys
import types

# The package executes a submodule on its first attribute access: the analysis
# commands never execute ``constructions``, the transforms never the analysis,
# only ``catalog`` executes ``angles``, and only the commands that read or
# build a frame execute ``frames`` and ``numerics``, and so import numpy.
from . import angles, constructions, frameio, frames, numerics, report, text
from .errors import NumericalError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4


class _UsageError(Exception):
    pass


def _is_flag(token: str) -> bool:
    """Whether ``token`` is a flag: it starts with "-" and is not "-" (stdin) or a negative number."""
    return token[:1] == "-" and token != "-" and not re.match(r"^-\d+$|^-\d*\.\d+$", token)


def _convert(name: str, convert, value: str):
    """``convert(value)``, where a tuple ``convert`` lists the choices ``value`` must be one of."""
    if isinstance(convert, tuple) and value not in convert:
        choices = ", ".join(map(repr, convert))
        raise _UsageError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    try:
        return value if isinstance(convert, tuple) else convert(value)
    except ValueError:
        raise _UsageError(f"argument {name}: invalid {convert.__name__} value: {value!r}") from None


def _help(command=None) -> str:
    """The --help text of ``command``, or of the program, read from ``_COMMANDS``."""
    if command is None:
        rows = "".join(f"  {name:<10} {entry[1]}\n" for name, entry in _COMMANDS.items())
        about = __doc__.rsplit("\n\n", 1)[0]  # the last paragraph is about the code
        return f"usage: framecore <command> [-h] ...\n\n{about}\n\ncommands:\n{rows}"
    words = []
    for name, (convert, default) in _COMMANDS[command][2].items():
        value = "{%s}" % ",".join(convert) if isinstance(convert, tuple) else name.lstrip("-").upper()
        word = value if name[0] != "-" else f"{name} {value}"
        words.append(word if default is ... else f"[{word}]")
    return f"usage: framecore {command} [-h] {' '.join(words)}\n\n{_COMMANDS[command][1]}\n"


def _parse_args(argv: list[str]):
    """Read ``argv`` through ``_COMMANDS``: the arguments as attributes, or the help text."""
    start = next((i for i, t in enumerate(argv) if t == "--" or not _is_flag(t)), len(argv))
    if any(t in ("-h", "--help") for t in argv[:start]):
        return _help()
    if start == len(argv):
        raise _UsageError("the following arguments are required: command")
    command, extras = _convert("command", tuple(_COMMANDS), argv[start]), argv[:start]
    spec = _COMMANDS[command][2]
    args = {name: default for name, (_, default) in spec.items()}
    positional = next((name for name in spec if name[0] != "-"), None)
    ended, tokens = False, iter(argv[start + 1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if token == "--" and not ended:
            ended = True
        elif ended or not _is_flag(token):
            if positional:
                args[positional] = _convert(positional, spec[positional][0], token)
            else:
                extras.append(token)
            positional = None
        elif token in ("-h", "--help"):
            return _help(command)
        elif name not in spec:
            extras.append(token)
        else:
            if not eq:
                value = next(tokens, "--")
                if value == "--" or _is_flag(value):
                    raise _UsageError(f"argument {name}: expected one argument")
            args[name] = _convert(name, spec[name][0], value)
    missing = [name for name, value in args.items() if value is ...]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    dests = (name.lstrip("-").replace("-", "_") for name in args)
    return types.SimpleNamespace(command=command, **dict(zip(dests, args.values())))


def _read_source(path: str) -> str:
    """The frame text: bytes decoded as strict UTF-8, or a text-only stdin as it reads."""
    try:
        if path == "-":
            if sys.stdin is None:  # file descriptor 0 was closed at start-up
                raise OSError("file descriptor 0 is closed")
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {'stdin' if path == '-' else path}: {exc}") from None


def _load(args) -> tuple[frames.UnitVectorSystem, numerics.Tolerances]:
    system, values = frameio.parse_frame_with_overrides(_read_source(args.file))
    flags = {"eq_abs": args.tol_eq, "neighbor_abs": args.tol_neighbor, "hull_abs": args.tol_hull}
    values.update((name, value) for name, value in flags.items() if value is not None)
    try:
        return system, numerics.Tolerances(**values)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _stdout():
    """``sys.stdout``, which Python sets to None when file descriptor 1 was closed at start-up."""
    if sys.stdout is None:
        raise OSError("cannot write stdout: file descriptor 1 is closed")
    return sys.stdout


def _say(line: str) -> None:
    """Write ``line`` to stderr, or drop it when file descriptor 2 is closed."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line)
        except OSError:
            pass


def _write(args, write) -> None:
    """Call ``write(stream)`` with the ``--out`` file, or with stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write(fh)
    else:
        write(_stdout())


def _emit(args, payload: dict, view: str) -> None:
    """Write the payload as JSON, or as the ``text`` module's view named ``view``."""
    if args.format == "json":
        _write(args, lambda out: frameio.write_json(payload, out))
    else:
        rendered = getattr(text, view)(payload)
        _write(args, lambda out: out.write(rendered))


def _cmd_analyze(args) -> int:
    system, tol = _load(args)
    _emit(args, report.build_analysis_report(system, tol), "render_text")
    return EXIT_OK


def _cmd_core(args) -> int:
    system, tol = _load(args)
    _emit(args, report.build_core_report(system, tol), "render_core_text")
    return EXIT_OK


def _cmd_classify(args) -> int:
    system, tol = _load(args)
    if args.index is not None and not 0 <= args.index < system.size:
        raise ValidationError(f"--index {args.index} out of range for {system.size} vectors")
    payload = report.build_classify_report(system, tol, args.index)
    _emit(args, payload, "render_classify_text")
    return EXIT_OK


def _cmd_naimark(args) -> int:
    system, tol = _load(args)
    complement, lam, k = constructions.naimark_complement(system, tol)
    summary = (
        f"naimark complement: {complement.size} vectors in R^{complement.dim}, "
        f"lambda={frameio.round15(lam)}, top multiplicity k={k}\n"
        f"verified: unit norms and Gram relation G_Y (1 - lambda) = G_X within 1e-8; "
        f"coherence {frameio.round15(frames.coherence(system))} -> "
        f"{frameio.round15(frames.coherence(complement))}\n"
    )
    _write(args, lambda out: frameio.write_frame(complement, out))
    _say(summary)
    return EXIT_OK


def _cmd_double(args) -> int:
    system, tol = _load(args)
    doubled = constructions.double(system)
    summary = (
        f"doubled: {doubled.size} vectors in R^{doubled.dim}; "
        f"coherence {frameio.round15(frames.coherence(system))} -> "
        f"{frameio.round15(frames.coherence(doubled))}; "
        f"tightness {frames.tightness(system, tol).kind} -> {frames.tightness(doubled, tol).kind}\n"
    )
    _write(args, lambda out: frameio.write_frame(doubled, out))
    _say(summary)
    return EXIT_OK


# construct name -> (the size flag it requires or None, its ``constructions`` function)
_CONSTRUCTIONS = {"circular": ("--m", "circular_frame"), "six_in_r4": (None, "six_in_r4"),
                  "mub_r2": (None, "mub_r2"), "simplex": ("--n", "simplex_etf")}


def _cmd_construct(args) -> int:
    flag, builder = _CONSTRUCTIONS[args.name]
    sizes = () if flag is None else (getattr(args, flag.lstrip("-")),)
    if None in sizes:
        raise _UsageError(f"construct {args.name} requires {flag}")
    try:
        system = getattr(constructions, builder)(*sizes)
    except ValueError as exc:  # an out-of-range --m or --n
        raise ValidationError(f"construct {args.name}: {exc}") from None
    _write(args, lambda out: frameio.write_frame(system, out))
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.n < 2 or args.m <= args.n:
        raise ValidationError(f"catalog needs m > n >= 2, got m={args.m}, n={args.n}")
    entries = angles.angle_catalog(args.m, args.n)
    if args.format == "text":
        text = "".join(f"{e.kind} ({e.rule}): {e.value:.12g}\n" for e in entries)
        _write(args, lambda out: out.write(text or "unknown\n"))
        return EXIT_OK
    rows = [{"kind": e.kind, "rule": e.rule, "value": frameio.round15(e.value)} for e in entries]
    payload = {"m": args.m, "n": args.n, "known": bool(entries), "entries": rows}
    _write(args, lambda out: frameio.write_json(payload, out))  # catalog runs no analysis
    return EXIT_OK


def _cmd_check(args) -> int:
    system, tol = _load(args)
    payload = report.build_check_report(system, tol)
    _emit(args, payload, "render_check_text")
    return EXIT_CHECK_FAILED if payload["failed"] else EXIT_OK


_TOLERANCES = {"--tol-eq": (float, None), "--tol-neighbor": (float, None), "--tol-hull": (float, None)}
_TRANSFORM = {"file": (str, "-"), **_TOLERANCES, "--out": (str, None)}
_FORMAT = {"--format": (("json", "text"), "json")}
_ANALYSIS = {**_TRANSFORM, **_FORMAT}

# command -> (handler, help line, {argument: (converter, default)}).  A tuple converter
# lists the choices, a default of ... marks a required argument, and the one
# argument without dashes is positional.
_COMMANDS = {
    "analyze": (_cmd_analyze, "full analysis report", _ANALYSIS),
    "core": (_cmd_core, "core extraction trace", _ANALYSIS),
    "classify": (_cmd_classify, "per-vector verdicts", {**_ANALYSIS, "--index": (int, None)}),
    "naimark": (_cmd_naimark, "complementary system", _TRANSFORM),
    "double": (_cmd_double, "doubled system in R^{2n}", _TRANSFORM),
    "construct": (_cmd_construct, "emit a catalog frame", {
        "name": (tuple(_CONSTRUCTIONS), ...),
        "--m": (int, None), "--n": (int, None), "--out": (str, None)}),
    "catalog": (_cmd_catalog, "exactly known packing angles",
                {"--m": (int, ...), "--n": (int, ...), **_FORMAT, "--out": (str, None)}),
    "check": (_cmd_check, "invariant suite for one file", _ANALYSIS),
}


def run(argv=None) -> int:
    """Parse arguments and execute one command; returns the exit code."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):  # the --help text
            _stdout().write(args)
        elif args.command != "catalog":  # the others read or build a frame
            # numpy loads before the frame exists: input held across its import raises peak RSS
            frames.UnitVectorSystem
        code = EXIT_OK if isinstance(args, str) else _COMMANDS[args.command][0](args)
        if sys.stdout is not None:  # None only when every write went to --out
            sys.stdout.flush()  # a closed reader fails here, not at interpreter shutdown
        return code
    except _UsageError as exc:
        code, message = EXIT_USAGE, f"usage error: {exc}"
    except (ValidationError, MemoryError) as exc:  # MemoryError: an input too large to allocate
        code, message = EXIT_VALIDATION, f"error: {str(exc) or 'out of memory'}"
    except NumericalError as exc:
        code, message = EXIT_NUMERICAL, f"numerical failure: {exc}"
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # stdout's exit flush then goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code, message = EXIT_VALIDATION, f"error: {exc}"
    _say(message + "\n")
    return code


def main() -> None:
    code = run()
    # Frozen objects are skipped by the shutdown collections, which would
    # traverse all numpy and framecore track (~15 ms) after the output is out.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
