"""Deterministic JSON, CSV, and text rendering of command results.

Serialized output is byte-stable: keys are sorted, number formatting is
fixed, and no timestamps or timing figures enter JSON payloads (wall time
belongs to the text rendering and stderr only).

``to_json`` writes a single-object payload; every row list streams through
one list writer, ``_listed``, in the bytes ``to_json`` would write.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Any, Iterable, Iterator, Union

from . import __version__ as TOOL_VERSION
from .audit import _DC_VALUE, RelationCheck, _AuditGroups, _evens
from .census import RowCensus, _CensusGroups
from .dc import DcResult
from .primes import PrimeSegment
from .sweep import SweepSummary

FORMATS = ("json", "csv", "text")
_CHUNK_CHARS = 1 << 15  # a rendered chunk of rows or evens holds about this many characters


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


def _entries(evens: range, pieces: list[str], sep: str = "", prefix: str = "") -> Iterator[str]:
    """sep.join(f"{prefix}{A}".join(pieces) for A in evens), in chunks of about _CHUNK_CHARS.

    A chunk is sized in characters, not evens, since a JSON entry is about
    3 KB.  Chunks of over about 100 KB, and their encoded copies, are mapped
    or trimmed afresh by glibc's malloc, so every chunk faults its pages in
    again: 1024-even chunks of 3 MB made a JSON audit of wide rows 3x slower.
    """
    longest = len(f"{prefix}{evens.stop}".join(pieces)) + len(sep)
    step = max(1, _CHUNK_CHARS // longest)
    for i in range(0, len(evens), step):
        part = evens[i : i + step]
        yield (sep if i else "") + sep.join([f"{prefix}{a}".join(pieces) for a in part])


def _chunked(texts: Iterable[str]) -> Iterator[str]:
    """The texts, concatenated into chunks of at least _CHUNK_CHARS characters
    but the last: a chunk spans many small rows, and a wide row's chunks of
    evens pass nearly as they are."""
    part: list[str] = []
    size = 0
    for text in texts:
        part.append(text)
        size += len(text)
        if size >= _CHUNK_CHARS:
            yield "".join(part)
            part, size = [], 0
    yield "".join(part)


def _listed(rows: Iterable[Iterable[str]], close: str) -> Iterator[str]:
    r"""A JSON list in _chunked chunks: "[", each row's chunks after the "\n" or
    ",\n" that opens it, then close, the text that ends the list."""
    opened = zip(chain((("\n",),), repeat((",\n",))), rows)  # (the row's opening, its chunks)
    return _chunked(chain(("[",), chain.from_iterable(chain.from_iterable(opened)), (close,)))


# ---------------------------------------------------------------------------
# payload builders


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


def audit_json(audit: _AuditGroups, parameters: dict[str, Any]) -> Iterator[str]:
    """to_json("audit", parameters, {"rows": ..., "verdict_summary": ...}) as chunks.

    Each census group renders its row template once; each per-even entry is
    then prefix + str(A) + suffix, and each row adds its start and end.
    """
    return _envelope("audit", parameters, _audit_payload(audit))


def _audit_payload(audit: _AuditGroups) -> Iterator[str]:
    yield '{\n    "rows": '
    yield from _listed(_json_rows(audit), "\n    ]")
    yield f',\n    "verdict_summary": {_dumps(audit.summary, 2)}\n  }}'


def _json_rows(audit: _AuditGroups) -> Iterator[Iterable[str]]:
    censuses = audit.census.censuses
    templates = [_row_template(c, *checks) for c, checks in zip(censuses, audit.checks)]
    for start, end, g in audit.census.rows():
        head, pieces, tail = templates[g]
        evens = _evens(start, end)
        row = f'\n        "row": {{\n          "end": {end},\n          "start": {start}{tail}'
        yield chain((head,), _entries(evens, pieces, ","), ("\n        ]," if evens else "],", row))


def census_json(groups: _CensusGroups, parameters: dict[str, Any]) -> Iterator[str]:
    """to_json("census", parameters, [{"census": ..., "row": ...}, ...]) as chunks."""
    docs = [_dumps(_census_doc(c), 3) for c in groups.censuses]
    rows = ((f'    {{\n      "census": {docs[g]},\n      "row": {{\n        "end": {end},'
             f'\n        "start": {start}\n      }}\n    }}',) for start, end, g in groups.rows())
    return _envelope("census", parameters, _listed(rows, "\n  ]"))


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


def partition_json(starts: range, width: int, parameters: dict[str, Any]) -> Iterator[str]:
    """to_json("partition", parameters, {"from": ..., "rows": ..., ...}) as chunks."""
    rows = ((f'      {{\n        "end": {s + width - 1},\n        "start": {s}\n      }}',)
            for s in starts)
    close = f'\n    ],\n    "to": {starts[-1] + width - 1},\n    "width": {width}\n  }}'
    payload = chain((f'{{\n    "from": {starts.start},\n    "rows": ',), _listed(rows, close))
    return _envelope("partition", parameters, payload)


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


def _census_cells(c: RowCensus) -> str:
    return f",{c.gamma_even},{c.gamma_odd},{c.gamma_prime},{c.m}"


def audit_csv(audit: _AuditGroups) -> Iterator[str]:
    """Two flat tables: per-row checks, a blank line, then per-A checks.

    No cell needs quoting, so every line is a plain join.  The text after a
    row's row_start,row_end renders once per census group, and the text after
    an even's row_start,A once per group too; each row or even then adds only
    its own prefix.
    """
    census = audit.census
    row_pieces = [  # a row's check lines, as the pieces its "row_start,row_end" joins
        ["", *(f"{_census_cells(c)},{_check_line(check)}" for check in row_checks)]
        for c, (row_checks, _) in zip(census.censuses, audit.checks)
    ]
    even_tails = [[f",{_DC_VALUE},{_check_line(c)}" for c in checks] for _, checks in audit.checks]
    yield f"{_CENSUS_COLUMNS},{_CHECK_COLUMNS}\n"
    yield from _chunked(f"{start},{end}".join(row_pieces[g]) for start, end, g in census.rows())
    yield f"\nrow_start,A,dc_value,{_CHECK_COLUMNS}\n"
    if even_tails[0]:  # every group has the same relations; "row_start,A" joins the pieces
        even_pieces = [["", *tails] for tails in even_tails]
        yield from _chunked(
            chunk for start, end, g in census.rows()
            for chunk in _entries(_evens(start, end), even_pieces[g], prefix=f"{start},")
        )


def census_csv(groups: _CensusGroups) -> Iterator[str]:
    tails = [_census_cells(c) + "\n" for c in groups.censuses]
    yield f"{_CENSUS_COLUMNS}\n"
    yield from _chunked(f"{start},{end}{tails[g]}" for start, end, g in groups.rows())


# ---------------------------------------------------------------------------
# text


def _census_text(c: RowCensus) -> str:  # a row's text line after "row start..end"
    return f": evens={c.gamma_even} odds={c.gamma_odd} primes={c.gamma_prime} m={c.m}\n"


def _failing_note(checks: tuple[RelationCheck, ...]) -> str:
    failing = [ch.relation_id for ch in checks if not ch.holds]
    return f" failing: {', '.join(failing)}" if failing else ""


def _row_check_text(checks: tuple[RelationCheck, ...]) -> str:
    return "".join(
        f"  {c.relation_id}: lhs={_cell(c.lhs_value)} rhs={_cell(c.rhs_value)} "
        f"holds={_cell(c.holds)}\n"
        for c in checks
    )


def audit_text(audit: _AuditGroups) -> Iterator[str]:
    yield from _chunked(_text_rows(audit))
    yield "summary (held/failed):\n"
    for rid, counts in audit.summary.items():
        yield f"  {rid}: {counts['held']}/{counts['failed']}\n"


def _text_rows(audit: _AuditGroups) -> Iterator[str]:
    row_text = [  # a row's lines after "row start..end"
        _census_text(c) + _row_check_text(row_checks)
        for c, (row_checks, _) in zip(audit.census.censuses, audit.checks)
    ]
    even_pieces = [  # an even's line, as the pieces its A joins
        ["  A=", f" dc={_DC_VALUE}{_failing_note(even_checks)}\n"]
        for _, even_checks in audit.checks
    ]
    for start, end, g in audit.census.rows():
        yield f"row {start}..{end}{row_text[g]}"
        yield from _entries(_evens(start, end), even_pieces[g])


def census_text(groups: _CensusGroups) -> Iterator[str]:
    tails = [_census_text(c) for c in groups.censuses]
    return _chunked(f"row {start}..{end}{tails[g]}" for start, end, g in groups.rows())


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
