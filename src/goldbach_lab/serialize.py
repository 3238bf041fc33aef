"""Deterministic JSON, CSV, and text rendering of command results.

Serialized output is byte-stable: keys are sorted, number formatting is
fixed, and no timestamps or timing figures enter JSON payloads (wall time
belongs to the text rendering and stderr only).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Iterator, Union

from . import __version__ as TOOL_VERSION
from .audit import _DC_VALUE, RangeAudit, RelationCheck
from .census import RowCensus
from .dc import DcResult
from .primes import PrimeSegment
from .rowrange import Row
from .sweep import SweepSummary

FORMATS = ("json", "csv", "text")
_CHUNK_CHARS = 1 << 15  # a rendered chunk of evens' entries holds about this many characters


def _dumps(value: Any, depth: int) -> str:
    """json.dumps(value, sort_keys=True, indent=2) as it reads nested at depth."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def _envelope(command: str, parameters: dict, payload_chunks: Iterable[str]) -> Iterator[str]:
    """The fixed JSON envelope around a payload already rendered at depth 1."""
    yield f'{{\n  "command": {json.dumps(command)},\n  "parameters": {_dumps(parameters, 1)},'
    yield '\n  "payload": '
    yield from payload_chunks
    yield f',\n  "tool_version": {json.dumps(TOOL_VERSION)}\n}}\n'


def to_json(command: str, parameters: dict[str, Any], payload: Any) -> str:
    """One command's result in the fixed JSON envelope."""
    return "".join(_envelope(command, parameters, [_dumps(payload, 1)]))


def _entries(evens: range, pieces: list[str], sep: str = "") -> Iterator[str]:
    """sep.join(str(A).join(pieces) for A in evens), in chunks of about _CHUNK_CHARS.

    A chunk is sized in characters, not evens, since a JSON entry is about
    3 KB.  Chunks of over about 100 KB, and their encoded copies, are mapped
    or trimmed afresh by glibc's malloc, so every chunk faults its pages in
    again: 1024-even chunks of 3 MB made a JSON audit of wide rows 3x slower.
    """
    longest = sum(map(len, pieces)) + len(str(evens.stop)) * (len(pieces) - 1) + len(sep)
    step = max(1, _CHUNK_CHARS // longest)
    for i in range(0, len(evens), step):
        part = evens[i : i + step]
        yield (sep if i else "") + sep.join([str(a).join(pieces) for a in part])


def _per_object(render: Callable[..., Any]) -> Callable[..., Any]:
    """render, called once per distinct tuple of argument objects.

    An audit holds one census object and one checks tuple per distinct census,
    so identity finds every repeat; a key by value would hash every check of
    every row in Python.  The audit being rendered keeps each argument alive,
    so no id is reused while the memo is in use.
    """
    memo: dict[tuple[int, ...], Any] = {}

    def cached(*args: Any) -> Any:
        key = tuple(map(id, args))
        if key not in memo:
            memo[key] = render(*args)
        return memo[key]

    return cached


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


def _row_template(
    census: RowCensus, row_checks: tuple[RelationCheck, ...], even_checks: tuple[RelationCheck, ...]
) -> tuple[str, list[str], str]:
    """A row entry of the audit document at its depth in the envelope: the text
    before the evens, the pieces each even's A joins, the text after the row start."""
    even_text = _dumps([_check_doc(c) for c in even_checks], 6)
    row_text = _dumps([_check_doc(c) for c in row_checks], 4)
    return (
        f'      {{\n        "census": {_dumps(_census_doc(census), 4)},\n        "per_even": [',
        [
            '\n          {\n            "A": ',
            f',\n            "checks": {even_text},'
            f'\n            "dc_value": {_DC_VALUE}\n          }}',
        ],
        f'\n        }},\n        "row_checks": {row_text}\n      }}',
    )


def audit_json(result: RangeAudit, parameters: dict[str, Any]) -> Iterator[str]:
    """to_json("audit", parameters, {"rows": ..., "verdict_summary": ...}) as chunks.

    Each distinct (census, row checks, even checks) key renders its row
    template once; each per-even entry is then prefix + str(A) + suffix.
    """
    return _envelope("audit", parameters, _audit_payload(result))


def _audit_payload(result: RangeAudit) -> Iterator[str]:
    template = _per_object(_row_template)
    yield '{\n    "rows": ['
    for i, report in enumerate(result.reports):
        head, pieces, tail = template(report.census, report.row_checks, report.even_checks)
        yield (",\n" if i else "\n") + head
        yield from _entries(report.evens, pieces, ",")
        end, start = report.row.end, report.row.start
        yield (
            ("\n        ]," if report.evens else "],")
            + f'\n        "row": {{\n          "end": {end},\n          "start": {start}{tail}'
        )
    yield (
        ("\n    ]" if result.reports else "]")
        + f',\n    "verdict_summary": {_dumps(result.summary, 2)}\n  }}'
    )


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


_CENSUS_COLUMNS = "row_start,row_end,gamma_even,gamma_odd,gamma_prime,m"
_CHECK_COLUMNS = "relation_id,lhs,rhs,holds"


def _check_line(check: RelationCheck) -> str:
    lhs, rhs = _cell(check.lhs_value), _cell(check.rhs_value)
    return f"{check.relation_id},{lhs},{rhs},{_cell(check.holds)}\n"


def _row_check_pieces(census: RowCensus, checks: tuple[RelationCheck, ...]) -> list[str]:
    """A row's check lines as the pieces its "row_start,row_end" joins."""
    cells = f",{census.gamma_even},{census.gamma_odd},{census.gamma_prime},{census.m},"
    return ["", *(cells + _check_line(c) for c in checks)]


def audit_csv(result: RangeAudit) -> Iterator[str]:
    """Two flat tables: per-row checks, a blank line, then per-A checks.

    No cell needs quoting, so every line is a plain join.  The text after a
    row's row_start,row_end renders once per distinct (census, row checks) key,
    and the text after an even's row_start,A once per distinct even-check list;
    each row or even then adds only its own prefix.
    """
    yield f"{_CENSUS_COLUMNS},{_CHECK_COLUMNS}\n"
    row_pieces = _per_object(_row_check_pieces)
    for report in result.reports:
        pieces = row_pieces(report.census, report.row_checks)
        yield f"{report.row.start},{report.row.end}".join(pieces)
    yield f"\nrow_start,A,dc_value,{_CHECK_COLUMNS}\n"
    tails = _per_object(lambda checks: [f",{_DC_VALUE},{_check_line(c)}" for c in checks])
    for report in result.reports:
        lines = tails(report.even_checks)
        if lines:  # each even's lines are start + A + a tail
            start = f"{report.row.start},"
            pieces = [start, *(tail + start for tail in lines[:-1]), lines[-1]]
            yield from _entries(report.evens, pieces)


def census_csv(items: list[tuple[Row, RowCensus]]) -> str:
    lines = [
        f"{row.start},{row.end},{c.gamma_even},{c.gamma_odd},{c.gamma_prime},{c.m}\n"
        for row, c in items
    ]
    return f"{_CENSUS_COLUMNS}\n" + "".join(lines)


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


def _row_check_text(checks: tuple[RelationCheck, ...]) -> str:
    return "".join(
        f"  {c.relation_id}: lhs={_cell(c.lhs_value)} rhs={_cell(c.rhs_value)} "
        f"holds={_cell(c.holds)}\n"
        for c in checks
    )


def audit_text(result: RangeAudit) -> Iterator[str]:
    check_text, notes = _per_object(_row_check_text), _per_object(_failing_note)
    for report in result.reports:
        yield _census_line(report.row, report.census) + "\n" + check_text(report.row_checks)
        note = notes(report.even_checks)
        yield from _entries(report.evens, ["  A=", f" dc={_DC_VALUE}{note}\n"])
    yield "summary (held/failed):\n"
    for rid, counts in result.summary.items():
        yield f"  {rid}: {counts['held']}/{counts['failed']}\n"


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
