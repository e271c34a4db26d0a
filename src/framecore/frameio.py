"""Reading and writing frame files.

Two formats are accepted.  The structured format is a JSON object
``{"dim": n, "vectors": [[...], ...], "labels": [...]?, "tolerances":
{...}?}``; the plain format is whitespace-separated ASCII decimals
without ``_``, one vector per line, with ``#`` comments.  Both store
vectors one per row, though the literature prints frames as column
matrices.  Rows within 1e-6 of unit norm are renormalized with a
warning; anything farther off is rejected.  No numpy is imported here, so
``catalog`` writes its JSON and reads ``round15`` and ``welch_bound`` without it.
"""

from __future__ import annotations

import io
import json
import math
from itertools import islice

from . import frames, numerics
from .errors import ParseError, ShapeError

# encoder chunks joined per write by ``write_json``
JSON_BATCH = 4096


def round15(x: float) -> float:
    """Round to 15 significant digits (the report/file precision)."""
    return float(f"{float(x):.15g}")


def welch_bound(m: int, n: int) -> float:
    """sqrt((m - n) / (n (m - 1))); requires m > n."""
    if m <= n:
        raise ValueError(f"Welch bound needs m > n, got m={m}, n={n}")
    return math.sqrt((m - n) / (n * (m - 1.0)))


def parse_frame(text: str) -> frames.UnitVectorSystem:
    """Parse frame file content (either format) into a validated system."""
    return parse_frame_with_overrides(text)[0]


def parse_frame_with_overrides(text: str) -> tuple[frames.UnitVectorSystem, dict]:
    """Like :func:`parse_frame` but also returns tolerance overrides; ignores a leading BOM."""
    text = text.removeprefix("\ufeff")
    first = next((c for c in text if not c.isspace()), "")
    if first in ("{", "["):  # no plain-format row starts with "["
        return _parse_structured(text)
    return _parse_plain(text), {}


def _parse_plain(text: str) -> frames.UnitVectorSystem:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.partition("#")[0]
        parts = line.split()
        if not parts:
            continue
        try:
            if not "".join(parts).isascii() or "_" in line:  # float() reads "1_0" and "\u0661"
                bad = next(p for p in parts if not p.isascii() or "_" in p)
                raise ValueError(f"{bad!r} is not an ASCII decimal number")
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if not rows:
        raise ParseError("empty frame file")
    width = len(rows[0])
    for idx, row in enumerate(rows):
        if len(row) != width:
            raise ShapeError(f"row {idx} has {len(row)} entries, expected {width} (ragged rows)")
    return frames.UnitVectorSystem.from_vectors(rows)


def _number(value) -> float:
    """``float(value)`` for a JSON number, not a boolean or string; vector entries are only checked."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)  # OverflowError for an integer beyond the float range


def _parse_structured(text: str) -> tuple[frames.UnitVectorSystem, dict]:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("structured frame file must be a JSON object")
    if "dim" not in obj or "vectors" not in obj:
        raise ParseError('structured frame file needs "dim" and "vectors" keys')
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f'"dim" must be a positive integer, got {dim!r}')
    vectors = obj["vectors"]
    if not isinstance(vectors, list) or not vectors:
        raise ParseError('"vectors" must be a nonempty list of rows')
    for idx, row in enumerate(vectors):
        if not isinstance(row, list):
            raise ParseError(f"row {idx} is not a list")
        if len(row) != dim:
            raise ShapeError(f"row {idx} has {len(row)} entries, expected dim = {dim}")
        try:
            for v in row:
                _number(v)
        except (TypeError, OverflowError) as exc:
            raise ParseError(f"row {idx}: {exc}") from None
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise ParseError('"labels" must be a list')
        for idx, label in enumerate(labels):
            if not isinstance(label, str):
                raise ParseError(f"label {idx} must be a string, got {label!r}")
    overrides = {}
    tols = obj.get("tolerances")
    if tols is not None:
        if not isinstance(tols, dict):
            raise ParseError('"tolerances" must be an object')
        for key, value in tols.items():
            if key not in numerics.Tolerances._fields:
                raise ParseError(f"unknown tolerance {key!r}")
            try:
                overrides[key] = _number(value)
            except (TypeError, OverflowError):
                raise ParseError(f"tolerance {key!r} must be a number, got {value!r}") from None
    return frames.UnitVectorSystem.from_vectors(vectors, labels=labels), overrides


def write_json(payload, out: io.TextIOBase) -> None:
    """Write the JSON text of a report or other payload, indent 2 and newline-terminated.

    The bytes are those of ``json.dumps(payload, indent=2) + "\n"``.  The
    encoder's chunks are written joined in batches of ``JSON_BATCH``, so the
    text is never held whole and an unbuffered stream is not written once
    per chunk.
    """
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while batch := "".join(islice(chunks, JSON_BATCH)):
        out.write(batch)
    out.write("\n")


def emit_json(payload) -> str:
    """The text that ``write_json`` writes for the payload."""
    buffer = io.StringIO()
    write_json(payload, buffer)
    return buffer.getvalue()


def _coordinate(v: float) -> str:
    """``json.dumps(round15(v))``, from one 15-significant-digit formatting.

    A normal double keeps every 15-digit decimal apart, so outside exponent
    form (1e-4 <= |v| < 1e15) ``%.15g`` is the shortest repr of
    ``round15(v)`` without its ``.0``.  In exponent form repr decides,
    because a subnormal holds fewer than 15 digits.
    """
    text = f"{v:.15g}"
    if "e" in text:
        return repr(float(text))
    return text if "." in text else text + ".0"


# %.15g is _coordinate's text from the least normal |v| to below the least it writes as "1".
_SMALLEST_NORMAL, _ROUNDS_TO_ONE = 2.2250738585072014e-308, 0.9999999999999996


def write_frame(system: frames.UnitVectorSystem, out: io.TextIOBase) -> None:
    """Write a system to a text stream in the structured format, one row at a time.

    The text is ``emit_json`` of ``{"dim", "vectors", "labels"?}`` with
    ``round15`` applied to every coordinate (15 significant digits).
    """
    out.write(f'{{\n  "dim": {system.dim},\n  "vectors": [')
    joint = ",\n      "
    row_text = "    [\n      " + joint.join(["%.15g"] * system.dim) + "\n    ]"
    sep = "\n"
    for row in system.vectors:
        values = row.tolist()
        if _SMALLEST_NORMAL <= min(map(abs, values)) and max(map(abs, values)) < _ROUNDS_TO_ONE:
            out.write(sep + row_text % tuple(values))
        else:
            out.write(f"{sep}    [\n      {joint.join(map(_coordinate, values))}\n    ]")
        sep = ",\n"
    out.write("\n  ]")
    if system.labels:
        out.write(',\n  "labels": [\n    ' + json.dumps(system.labels[0]))
        for label in system.labels[1:]:
            out.write(",\n    " + json.dumps(label))
        out.write("\n  ]")
    out.write("\n}\n")


def emit_frame(system: frames.UnitVectorSystem) -> str:
    """The text that ``write_frame`` writes for the system."""
    buffer = io.StringIO()
    write_frame(system, buffer)
    return buffer.getvalue()
