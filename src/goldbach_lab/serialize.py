"""Deterministic JSON, CSV, and text rendering of command results.

Serialized output is byte-stable: keys are sorted, number formatting is
fixed, and no timestamps or timing figures enter JSON payloads (wall time
belongs to the text rendering and stderr only).

``to_json`` writes a single-object payload; every row list and the sieve's prime list
stream through one list writer, ``_listed``, in the bytes ``to_json`` would write.
Row renderers read a walk's (start, end, rendered) rows and keep no group state:
the audit walk counts its groups for the summary, and the CSV audit alone keeps
each row's 4-byte group id, for its even table.
"""

from __future__ import annotations

import json
from array import array
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Iterator, Union

from . import __version__ as TOOL_VERSION
from .audit import _DC_VALUE, RelationCheck, _evens
from .census import RowCensus
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


def audit_json(walk: Callable, parameters: dict[str, Any]) -> Iterator[str]:
    """to_json("audit", parameters, {"rows": ..., "verdict_summary": ...}) as chunks.

    Each census group renders its row template once; each per-even entry is
    then prefix + str(A) + suffix, and each row adds its start and end.
    """
    return _envelope("audit", parameters, _audit_payload(walk))


def _audit_payload(walk: Callable) -> Iterator[str]:
    rows, summary = walk(_row_template)
    yield '{\n    "rows": '
    yield from _listed(_json_rows(rows), "\n    ]")
    yield f',\n    "verdict_summary": {_dumps(summary(), 2)}\n  }}'


def _json_rows(rows: Iterator[tuple[int, int, tuple]]) -> Iterator[Iterable[str]]:
    for start, end, (head, pieces, tail) in rows:
        evens = _evens(start, end)
        row = f'\n        "row": {{\n          "end": {end},\n          "start": {start}{tail}'
        yield chain((head,), _entries(evens, pieces, ","), ("\n        ]," if evens else "],", row))


def census_json(walk: Callable, parameters: dict[str, Any]) -> Iterator[str]:
    """to_json("census", parameters, [{"census": ..., "row": ...}, ...]) as chunks."""
    rows = ((f'    {{\n      "census": {doc},\n      "row": {{\n        "end": {end},'
             f'\n        "start": {start}\n      }}\n    }}',)
            for start, end, doc in walk(lambda c: _dumps(_census_doc(c), 3)))
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


def _prime_lists(seg: PrimeSegment) -> Iterator[list[int]]:  # of each nonempty seg._parts()
    return filter(None, map(PrimeSegment.primes, seg._parts()))


def sieve_json(seg: PrimeSegment, parameters: dict[str, Any], listed: bool) -> Iterator[str]:
    """to_json("sieve", ...) as chunks: "primes" if listed, a _PRIME_CHUNK part at a time."""
    n = seg.count()
    rows = ((",\n".join([f"      {p}" for p in primes]),) for primes in _prime_lists(seg))
    primes = chain(('\n    "primes": ',), _listed(rows, "\n    ]," if n else "],"))
    head = f'{{\n    "count": {n},\n    "from": {seg.lo},'
    payload = chain((head,), primes if listed else (), (f'\n    "to": {seg.hi}\n  }}',))
    return _envelope("sieve", parameters, payload)


def sieve_text(seg: PrimeSegment, listed: bool) -> Iterator[str]:
    """The count line, and if listed the primes, space-separated, a part at a time."""
    yield f"primes in [{seg.lo}, {seg.hi}]: {seg.count()}\n"
    if listed:
        texts = (" ".join(map(str, primes)) for primes in _prime_lists(seg))
        yield from _chunked(chain((next(texts, ""),), (" " + text for text in texts), ("\n",)))


def partition_json(starts: range, width: int, parameters: dict[str, Any]) -> Iterator[str]:
    """to_json("partition", parameters, {"from": ..., "rows": ..., ...}) as chunks."""
    rows = ((f'      {{\n        "end": {s + width - 1},\n        "start": {s}\n      }}',)
            for s in starts)
    close = f'\n    ],\n    "to": {starts[-1] + width - 1},\n    "width": {width}\n  }}'
    payload = chain((f'{{\n    "from": {starts.start},\n    "rows": ',), _listed(rows, close))
    return _envelope("partition", parameters, payload)


def partition_text(starts: range, width: int) -> Iterator[str]:
    return _chunked(f"row {s}..{s + width - 1}\n" for s in starts)


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


def audit_csv(walk: Callable, starts: range) -> Iterator[str]:
    """Two flat tables: per-row checks, a blank line, then per-A checks.

    No cell needs quoting, so every line is a plain join.  The text after a
    row's row_start,row_end renders once per census group, and the text after
    an even's row_start,A once per group too; each row or even then adds only
    its own prefix.  The walk runs once: the row table keeps each row's group
    id, 4 bytes a row, for the even table over the rows' starts.
    """
    pieces: list[list[str]] = []  # each group's even pieces; a group's id is its place here

    def render(c: RowCensus, row_checks: tuple, even_checks: tuple) -> tuple[int, list[str]]:
        pieces.append(["", *(f",{_DC_VALUE},{_check_line(check)}" for check in even_checks)])
        return len(pieces) - 1, ["", *(f"{_census_cells(c)},{_check_line(check)}"
                                       for check in row_checks)]

    rows, _ = walk(render)
    kept = array("I")  # array.append returns None
    yield f"{_CENSUS_COLUMNS},{_CHECK_COLUMNS}\n"
    yield from _chunked(f"{start},{end}".join(row_pieces)
                        for start, end, (g, row_pieces) in rows if not kept.append(g))
    yield f"\nrow_start,A,dc_value,{_CHECK_COLUMNS}\n"
    if pieces[0][1:]:  # every group has the same relations; "row_start,A" joins the pieces
        width = starts.step
        yield from _chunked(
            chunk for start, g in zip(starts, kept)
            for chunk in _entries(_evens(start, start + width - 1), pieces[g], prefix=f"{start},")
        )


def census_csv(walk: Callable) -> Iterator[str]:
    yield f"{_CENSUS_COLUMNS}\n"
    tails = walk(lambda c: _census_cells(c) + "\n")
    yield from _chunked(f"{start},{end}{tail}" for start, end, tail in tails)


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


def audit_text(walk: Callable) -> Iterator[str]:
    rows, summary = walk(lambda c, row_checks, even_checks: (
        _census_text(c) + _row_check_text(row_checks),  # a row's lines after "row start..end"
        ["  A=", f" dc={_DC_VALUE}{_failing_note(even_checks)}\n"]))  # the pieces A joins
    yield from _chunked(_text_rows(rows))
    yield "summary (held/failed):\n"
    for rid, counts in summary().items():
        yield f"  {rid}: {counts['held']}/{counts['failed']}\n"


def _text_rows(rows: Iterator[tuple[int, int, tuple]]) -> Iterator[str]:
    for start, end, (row_text, even_pieces) in rows:
        yield f"row {start}..{end}{row_text}"
        yield from _entries(_evens(start, end), even_pieces)


def census_text(walk: Callable) -> Iterator[str]:
    return _chunked(f"row {start}..{end}{tail}" for start, end, tail in walk(_census_text))


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
