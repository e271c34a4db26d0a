"""Text views of the analysis reports: what ``--format text`` prints.

Each view reads a payload dict that ``report`` builds and returns its
human-readable text; JSON runs never execute this module.
"""


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _verdict_lines(v: dict, indent: str) -> list[str]:
    """One verdict's status line, then its warnings indented four more spaces."""
    head = (f"{indent}[{v['index']}] {v['status']} "
            f"(neighbors={v['neighbor_count']}, neighbor_rank={v['neighbor_rank']})")
    return [head, *(f"{indent}    warning: {w}" for w in v["warnings"])]


def _row(name: str, row: dict) -> str:
    """A check row (or a diagnostic) as ``name: status (detail)``."""
    return f"{name}: {row['status']} ({row['detail']})"


def render_text(report: dict) -> str:
    """Human-readable rendering of an analysis report.

    Summary lines for each block of the report and one line per vector
    verdict (status, neighbor count and rank); neighbor lists, witnesses
    and certificates are left to the JSON report.  The core trace's
    warnings follow its levels, except those the report's own warnings
    already list.
    """
    lines = []
    inp = report["input"]
    lines.append(f"system: {inp['m']} unit vectors in R^{inp['n']}")
    lines.append(f"coherence: {_fmt_value(report['coherence'])}")
    b = report["bounds"]
    shown = ("welch", "orthoplex", "gerzon_max_m", "meets_welch")
    lines.append("bounds: " + " ".join(f"{key}={_fmt_value(b[key])}" for key in shown))
    t = report["tightness"]
    lines.append(
        f"tightness: {t['kind']} (bound={_fmt_value(t['bound'])}, "
        f"max deviation={_fmt_value(t['max_deviation'])})"
    )
    e = report["equiangular"]
    lines.append(f"equiangular: {_fmt_value(e['equiangular'])} (angle={_fmt_value(e['angle'])})")
    lines.append(f"etf: {_fmt_value(report['etf'])}")
    s = report["spectrum"]
    eigs = " ".join(_fmt_value(x) for x in s["eigenvalues"])
    lines.append(f"spectrum: [{eigs}] top multiplicity {s['top_multiplicity']}")
    lines.append("vectors:")
    for v in report["vectors"]:
        lines += _verdict_lines(v, "  ")
    c = report["core"]
    lines.append("core trace:")
    lines += [
        f"  level {k}: members={level['members']} removed={level['removed']} "
        f"coherence={_fmt_value(level['coherence'])}"
        for k, level in enumerate(c["levels"])
    ]
    lines += [f"  warning: {w}" for w in c["warnings"] if w not in report["warnings"]]
    lines.append(f"core: {c['core']}")
    lines.append("diagnostics:")
    d = report["diagnostics"]
    lines.append(_row("  drop_one_spanning", d["drop_one_spanning"]))
    nc = d["neighbor_counts"]
    lines.append(f"  neighbor_counts at {_fmt_value(nc['level'])}: {nc['counts']}")
    lines += [_row(f"      {chk['name']}", chk) for chk in nc["checks"]]
    lines.append(_row("  eigen_span", d["eigen_span"]))
    lines.append(_row("  tight_grassmannian", d["tight_grassmannian"]))
    lines += [_row(f"  core_validation {chk['name']}", chk) for chk in d["core_validation"]["checks"]]
    if report["warnings"]:
        lines += ["warnings:", *(f"  {w}" for w in report["warnings"])]
    return "\n".join(lines) + "\n"


def render_core_text(report: dict) -> str:
    """One line per level of the core trace, the core, then the trace's warnings."""
    lines = [
        f"level {k}: members={level['members']} removed={level['removed']} "
        f"coherence={level['coherence']}"
        for k, level in enumerate(report["levels"])
    ]
    lines.append(f"core: {report['core']}")
    lines += [f"warning: {w}" for w in report["warnings"]]
    return "\n".join(lines) + "\n"


def render_classify_text(report: dict) -> str:
    """One line per verdict (status, neighbor count and rank), each followed by its warnings."""
    lines = [line for v in report["verdicts"] for line in _verdict_lines(v, "")]
    return "\n".join(lines) + "\n"


def render_check_text(report: dict) -> str:
    """One line per check, then the failure count."""
    lines = [_row(c["name"], c) for c in report["checks"]]
    lines.append(f"failed: {report['failed']}")
    return "\n".join(lines) + "\n"
