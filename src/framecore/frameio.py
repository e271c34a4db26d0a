"""Reading and writing frame files.

Two formats are accepted.  The structured format is a JSON object
``{"dim": n, "vectors": [[...], ...], "labels": [...]?, "tolerances":
{...}?}``; the plain format is whitespace-separated reals, one vector per
line, with ``#`` comments.  Vectors are stored one per row in both
formats, even though the literature prints frames as column matrices.
Rows within 1e-6 of unit norm are renormalized with a warning; anything
farther off is rejected.
"""

from __future__ import annotations

import io
import json
from dataclasses import fields

import numpy as np

from .errors import ParseError, ShapeError
from .frames import UnitVectorSystem
from .numerics import Tolerances

_TOLERANCE_KEYS = tuple(f.name for f in fields(Tolerances))


def round15(x: float) -> float:
    """Round to 15 significant digits (the report/file precision)."""
    return float(f"{float(x):.15g}")


def parse_frame(text: str) -> UnitVectorSystem:
    """Parse frame file content (either format) into a validated system."""
    system, _ = parse_frame_with_overrides(text)
    return system


def parse_frame_with_overrides(text: str) -> tuple[UnitVectorSystem, dict]:
    """Like :func:`parse_frame` but also returns tolerance overrides."""
    stripped = _strip_comments(text)
    if not stripped.strip():
        raise ParseError("empty frame file")
    if stripped.lstrip()[0] == "{":
        return _parse_structured(text)
    return _parse_plain(stripped), {}


def _strip_comments(text: str) -> str:
    lines = []
    for line in text.splitlines():
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        lines.append(line)
    return "\n".join(lines)


def _parse_plain(text: str) -> UnitVectorSystem:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if not rows:
        raise ParseError("no vectors found")
    width = len(rows[0])
    for idx, row in enumerate(rows):
        if len(row) != width:
            raise ShapeError(
                f"row {idx} has {len(row)} entries, expected {width} (ragged rows)"
            )
    return UnitVectorSystem.from_vectors(np.array(rows))


def _number(value) -> float:
    """``float(value)`` for a JSON number; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)  # OverflowError for an integer beyond the float range


def _parse_structured(text: str) -> tuple[UnitVectorSystem, dict]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
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
    rows = []
    for idx, row in enumerate(vectors):
        if not isinstance(row, list):
            raise ParseError(f"row {idx} is not a list")
        if len(row) != dim:
            raise ShapeError(f"row {idx} has {len(row)} entries, expected dim = {dim}")
        try:
            rows.append([_number(v) for v in row])
        except (TypeError, OverflowError) as exc:
            raise ParseError(f"row {idx}: {exc}") from None
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise ParseError('"labels" must be a list')
        if len(labels) != len(rows):
            raise ShapeError(f"{len(labels)} labels for {len(rows)} vectors")
        for idx, label in enumerate(labels):
            if not isinstance(label, str):
                raise ParseError(f"label {idx} must be a string, got {label!r}")
    overrides = {}
    tols = obj.get("tolerances")
    if tols is not None:
        if not isinstance(tols, dict):
            raise ParseError('"tolerances" must be an object')
        for key, value in tols.items():
            if key not in _TOLERANCE_KEYS:
                raise ParseError(f"unknown tolerance {key!r}")
            try:
                overrides[key] = _number(value)
            except (TypeError, OverflowError):
                raise ParseError(f"tolerance {key!r} must be a number, got {value!r}") from None
    return UnitVectorSystem.from_vectors(np.array(rows), labels=labels), overrides


def emit_json(payload) -> str:
    """The JSON text of a report or other payload: indent 2, newline-terminated."""
    return json.dumps(payload, indent=2) + "\n"


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


def write_frame(system: UnitVectorSystem, out: io.TextIOBase) -> None:
    """Write a system to a text stream in the structured format, one row at a time.

    The text is ``emit_json`` of ``{"dim", "vectors", "labels"?}`` with
    ``round15`` applied to every coordinate (15 significant digits).
    """
    out.write(f'{{\n  "dim": {system.dim},\n  "vectors": [')
    sep = "\n"
    for row in system.vectors:
        coordinates = ",\n      ".join(map(_coordinate, row.tolist()))
        out.write(f"{sep}    [\n      {coordinates}\n    ]")
        sep = ",\n"
    out.write("\n  ]")
    if system.labels:
        out.write(',\n  "labels": [\n    ' + json.dumps(system.labels[0]))
        for label in system.labels[1:]:
            out.write(",\n    " + json.dumps(label))
        out.write("\n  ]")
    out.write("\n}\n")


def emit_frame(system: UnitVectorSystem) -> str:
    """The text that ``write_frame`` writes for the system."""
    buffer = io.StringIO()
    write_frame(system, buffer)
    return buffer.getvalue()
