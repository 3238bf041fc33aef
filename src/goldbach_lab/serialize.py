"""Deterministic JSON, CSV, and text rendering of command results.

Serialized output is byte-stable: keys are sorted, number formatting is
fixed, and no timestamps or timing figures enter JSON payloads (wall time
belongs to the text rendering and stderr only).
"""

from __future__ import annotations

import csv
import io
import json
import re
from typing import Any, Callable, Optional, Union

from . import __version__ as TOOL_VERSION
from .audit import _DC_VALUE, AuditReport, RangeAudit, RelationCheck
from .census import RowCensus
from .dc import DcResult
from .primes import PrimeSegment
from .rowrange import Row
from .sweep import SweepSummary

FORMATS = ("json", "csv", "text")
_FRAGMENT = re.compile(r'"\\u0000(\d+)\\u0000"')  # json escapes NUL as \u0000


def to_json(
    command: str, parameters: dict[str, Any], payload: Any, fragments: Optional[dict] = None
) -> str:
    """One command's result in the fixed JSON envelope; a payload string "\\0<key>\\0"
    (no payload string holds a NUL) stands for the JSON text fragments[key]."""
    doc = {
        "command": command,
        "parameters": parameters,
        "payload": payload,
        "tool_version": TOOL_VERSION,
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return _FRAGMENT.sub(lambda m: fragments[int(m[1])], text) if fragments else text


def _per_checks(result: RangeAudit, render: Callable[[tuple], Any]) -> dict[int, Any]:
    """render(checks) by id(checks), once per distinct even checks tuple (a cache)."""
    distinct = {id(r.even_checks): r.even_checks for r in result.reports}
    return {key: render(checks) for key, checks in distinct.items()}


# ---------------------------------------------------------------------------
# payload builders


def _row_doc(row: Row) -> dict[str, int]:
    return {"start": row.start, "end": row.end}


def _census_doc(c: RowCensus) -> dict[str, int]:
    return {
        "gamma_even": c.gamma_even,
        "gamma_odd": c.gamma_odd,
        "gamma_prime": c.gamma_prime,
        "m": c.m,
    }


def _check_doc(c: RelationCheck) -> dict[str, Any]:
    rhs = list(c.rhs_value) if isinstance(c.rhs_value, tuple) else c.rhs_value
    return {
        "detail": c.detail,
        "holds": c.holds,
        "lhs": c.lhs_value,
        "relation_id": c.relation_id,
        "rhs": rhs,
    }


def _report_doc(report: AuditReport) -> dict[str, Any]:
    checks = f"\0{id(report.even_checks)}\0"
    return {
        "row": _row_doc(report.row),
        "census": _census_doc(report.census),
        "row_checks": [_check_doc(c) for c in report.row_checks],
        "per_even": [
            {"A": a, "dc_value": _DC_VALUE, "checks": checks} for a in report.evens
        ],
    }


def _checks_fragment(checks: tuple[RelationCheck, ...]) -> str:
    text = json.dumps([_check_doc(c) for c in checks], sort_keys=True, indent=2)
    return text.replace("\n", "\n" + " " * 12)  # the list's depth in the envelope


def audit_payload(result: RangeAudit) -> tuple[dict[str, Any], dict[int, str]]:
    """The payload and the to_json fragment of each distinct per-even check list."""
    rows = [_report_doc(r) for r in result.reports]
    payload = {"rows": rows, "verdict_summary": result.summary}
    return payload, _per_checks(result, _checks_fragment)


def census_payload(items: list[tuple[Row, RowCensus]]) -> list[dict[str, Any]]:
    return [{"row": _row_doc(row), "census": _census_doc(c)} for row, c in items]


def dc_payload(result: DcResult, pairs: Union[list[tuple[int, int]], None] = None) -> dict:
    doc: dict[str, Any] = {
        "target": result.target,
        "value": result.value,
        "witness": list(result.witness),
    }
    if pairs is not None:
        doc["pairs"] = [list(p) for p in pairs]
    return doc


def sweep_payload(summary: SweepSummary) -> dict[str, Any]:
    return {
        "from": summary.from_even,
        "to": summary.to_even,
        "verified": summary.verified,
        "failures": list(summary.failures),
    }


def segment_payload(seg: PrimeSegment, include_primes: bool = False) -> dict[str, Any]:
    doc: dict[str, Any] = {"from": seg.lo, "to": seg.hi, "count": seg.count()}
    if include_primes:
        doc["primes"] = seg.primes()
    return doc


def partition_payload(rows: list[Row], width: int) -> dict[str, Any]:
    return {
        "from": rows[0].start,
        "to": rows[-1].end,
        "width": width,
        "rows": [_row_doc(r) for r in rows],
    }


# ---------------------------------------------------------------------------
# CSV


def _cell(value: Union[int, float, bool, tuple[int, int]]) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return f"{value[0]}..{value[1]}"
    return repr(value) if isinstance(value, float) else str(value)


_CENSUS_COLUMNS = ["row_start", "row_end", "gamma_even", "gamma_odd", "gamma_prime", "m"]
_CHECK_COLUMNS = ["relation_id", "lhs", "rhs", "holds"]


def _census_cells(row: Row, c: RowCensus) -> list[int]:
    return [row.start, row.end, c.gamma_even, c.gamma_odd, c.gamma_prime, c.m]


def _check_cells(check: RelationCheck) -> list[str]:
    lhs, rhs = _cell(check.lhs_value), _cell(check.rhs_value)
    return [check.relation_id, lhs, rhs, _cell(check.holds)]


def audit_csv(result: RangeAudit) -> str:
    """Two flat tables: per-row checks, a blank line, then per-A checks."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CENSUS_COLUMNS + _CHECK_COLUMNS)
    for report in result.reports:
        cells = _census_cells(report.row, report.census)
        writer.writerows(cells + _check_cells(check) for check in report.row_checks)
    buf.write("\n")
    writer.writerow(["row_start", "A", "dc_value"] + _CHECK_COLUMNS)
    # no per-even cell needs quoting, so each check list's row tails render once
    tails = _per_checks(result, lambda cs: [",".join(_check_cells(c)) + "\n" for c in cs])
    for report in result.reports:
        tail = tails[id(report.even_checks)]
        for a in report.evens if tail else ():  # an empty tail writes no line
            prefix = f"{report.row.start},{a},{_DC_VALUE},"
            buf.write(prefix + prefix.join(tail))
    return buf.getvalue()


def census_csv(items: list[tuple[Row, RowCensus]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CENSUS_COLUMNS)
    writer.writerows(_census_cells(row, c) for row, c in items)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# text


def _census_line(row: Row, c: RowCensus) -> str:
    return (
        f"row {row.start}..{row.end}: evens={c.gamma_even} odds={c.gamma_odd} "
        f"primes={c.gamma_prime} m={c.m}"
    )


def _failing_note(checks: tuple[RelationCheck, ...]) -> str:
    failing = [ch.relation_id for ch in checks if not ch.holds]
    return f" failing: {', '.join(failing)}" if failing else ""


def audit_text(result: RangeAudit) -> str:
    notes = _per_checks(result, _failing_note)
    lines = []
    for report in result.reports:
        lines.append(_census_line(report.row, report.census))
        for check in report.row_checks:
            lines.append(
                f"  {check.relation_id}: lhs={_cell(check.lhs_value)} "
                f"rhs={_cell(check.rhs_value)} holds={_cell(check.holds)}"
            )
        note = notes[id(report.even_checks)]
        lines.extend(f"  A={a} dc={_DC_VALUE}{note}" for a in report.evens)
    lines.append("summary (held/failed):")
    for rid, counts in result.summary.items():
        lines.append(f"  {rid}: {counts['held']}/{counts['failed']}")
    return "\n".join(lines) + "\n"


def census_text(items: list[tuple[Row, RowCensus]]) -> str:
    return "\n".join(_census_line(row, c) for row, c in items) + "\n"


def dc_text(result: DcResult, pairs: Union[list[tuple[int, int]], None] = None) -> str:
    witness = " + ".join(str(w) for w in result.witness)
    lines = [f"dc({result.target}) = {result.value}  ({result.target} = {witness})"]
    if pairs is not None:
        lines.append(f"{len(pairs)} prime pairs:")
        lines.extend(f"  {p} + {q}" for p, q in pairs)
    return "\n".join(lines) + "\n"


def sweep_text(summary: SweepSummary) -> str:
    status = "0 failures" if not summary.failures else f"FAILURES: {list(summary.failures)}"
    resumed = (
        f" (resumed after {summary.resumed_from})" if summary.resumed_from is not None else ""
    )
    return (
        f"verify {summary.from_even}..{summary.to_even}: "
        f"{summary.verified} evens verified, {status} "
        f"in {summary.elapsed_seconds:.2f} s{resumed}\n"
    )
