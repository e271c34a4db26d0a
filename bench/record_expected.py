"""Record the expected exit code and fingerprint of every base frame and command.

Runs ``framecore.cli.run`` in-process on each untransformed base frame of
every workload, plus the set-up command, and rewrites
``bench/expected.json``.  Re-record only when a change of verdicts is
intended, and review the diff.  Run from the root of a checkout:

    python3 bench/record_expected.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # isort: skip  (first: it sets one BLAS thread before numpy loads)
import corpus
import gate
import tracing


def record(cli, command: str, argv: list[str], perm) -> dict:
    code, stdout = tracing.call(cli, argv)
    return {"exit": code, "fingerprint": gate.fingerprint(command, stdout, perm)}


def main() -> int:
    cli = tracing.load_cli(run.SRC)
    expected = {"setup": {"catalog": record(cli, "catalog", list(run.SETUP_ARGV), ())}}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name, frame in corpus.base_frames().items():
            rows = frame.build()
            path = Path(tmp) / name
            path.write_text(corpus.frame_text(rows, frame.fmt), encoding="utf-8")
            perm = tuple(range(rows.shape[0]))
            expected[name] = {c: record(cli, c, [c, str(path)], perm) for c in gate.COMMANDS}
    # one line per frame and command, so a re-recording reviews as a readable diff
    frames = [
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(f"  {json.dumps(c)}: {json.dumps(e)}" for c, e in entries.items())
        + "\n }"
        for name, entries in expected.items()
    ]
    run.EXPECTED.write_text("{\n" + ",\n".join(frames) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(expected)} entries to {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
