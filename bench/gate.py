"""Correctness gate: the decided content of one CLI invocation.

A fingerprint keeps what the program decided and drops how it proved it:
per-vector statuses, core members, check names with their statuses and
the coherence to 12 digits.  ``witness`` and ``certificate`` payloads are
never read, so a change of certificate schema is not a failure.  Indices
in the program's output refer to rows of the generated file; they are
mapped back to rows of the base frame through the corpus permutation so
that one recorded fingerprint serves every seed.
"""

from __future__ import annotations

import json

import numpy as np

COMMANDS = ("analyze", "core", "check", "naimark", "double")

# Coherences are rounded to 12 decimals; a value that straddles a rounding
# boundary between two seeds moves by exactly 1e-12.
_COHERENCE_SLACK = 1.5e-12


def _round12(value: float) -> float:
    return round(float(value), 12)


def _base_indices(indices, perm) -> list[int]:
    return sorted(perm[k] for k in indices)


def _diagnostic_checks(diagnostics: dict) -> list[list[str]]:
    out = []
    for name, block in diagnostics.items():
        if "status" in block:
            out.append([name, block["status"]])
        for check in block.get("checks", ()):
            out.append([f"{name}.{check['name']}", check["status"]])
    return out


def fingerprint(command: str, stdout: str, perm) -> dict | None:
    """Decided content of one invocation's JSON output (None when it printed nothing)."""
    if not stdout:
        return None
    obj = json.loads(stdout)
    if command == "analyze":
        statuses = [None] * len(perm)
        for verdict in obj["vectors"]:
            statuses[perm[verdict["index"]]] = verdict["status"]
        return {
            "coherence": _round12(obj["coherence"]),
            "statuses": statuses,
            "core": _base_indices(obj["core"]["core"], perm),
            "checks": _diagnostic_checks(obj["diagnostics"]),
        }
    if command == "core":
        return {"core": _base_indices(obj["core"], perm), "levels": len(obj["levels"])}
    if command == "check":
        return {"checks": [[c["name"], c["status"]] for c in obj["checks"]]}
    if command == "catalog":
        return {"entries": [[e["kind"], _round12(e["value"])] for e in obj["entries"]]}
    # naimark and double emit frames; row order follows the input rows.
    V = np.array(obj["vectors"], dtype=float)
    G = np.abs(V @ V.T)
    np.fill_diagonal(G, 0.0)
    return {"m": V.shape[0], "n": V.shape[1], "coherence": _round12(G.max())}


def matches(expected, actual) -> bool:
    """Structural equality, with the coherence slack on floats."""
    if isinstance(expected, float) and isinstance(actual, float):
        return abs(expected - actual) <= _COHERENCE_SLACK
    if isinstance(expected, dict) and isinstance(actual, dict):
        return expected.keys() == actual.keys() and all(
            matches(expected[k], actual[k]) for k in expected
        )
    if isinstance(expected, list) and isinstance(actual, list):
        return len(expected) == len(actual) and all(
            matches(e, a) for e, a in zip(expected, actual)
        )
    return type(expected) is type(actual) and expected == actual


def failure(command: str, expected: dict | None, code: int, stdout: str, perm) -> str | None:
    """Why an invocation fails the gate, or None when it passes.

    ``expected`` is the recorded ``{"exit": ..., "fingerprint": ...}``
    entry for this base frame and command.
    """
    if expected is None:
        return "no recorded expectation"
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    try:
        got = fingerprint(command, stdout, perm)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    if not matches(expected["fingerprint"], got):
        return f"fingerprint {json.dumps(got)} differs from the recorded one"
    return None
