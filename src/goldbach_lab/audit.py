"""Numeric evaluation of the relation catalog on concrete rows.

Each relation is checked as plain arithmetic over a row census and, where
applicable, the minimal prime-summand value of an even number in the row.
The auditor reports truth values only; failing relations are data, not
errors, and no conclusion is drawn from them.

The catalog numbering has gaps: ids (5)-(8) collapse into (9)'s final
comparator, and ids (12)-(18) mix counts with sums and admit no consistent
arithmetic reading, so neither group is evaluated.  The usable inequality
forms of the latter appear as (19) and (20), with the rewriting flagged in
their detail text.

An even A > 2 is not prime, so DC(A) = 2 exactly when some p + q = A.  The
audit composes the other engines: ``census_range`` counts the rows, and one
``sweep.run_verify`` over the range's evens (the only parallel step) finds
such a pair for each or raises.  So an audited even's ``dc_value`` is 2 and
its checks depend on the census alone, as the row checks do.  ``audit_range``
evaluates both once per distinct census, and the rows with that census share
one census object and its two checks tuples; ``summarize`` then tallies each
distinct tuple once, weighted by the rows or evens that hold it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .census import RowCensus, census_range
from .errors import GoldbachCounterexample
from .rowrange import Range, Row
from .sweep import run_verify

#: Relations evaluated once per row, from the census alone.
ROW_RELATIONS = ("A1", "A2", "A3", "(3)", "(23)", "(24)", "(27)", "(28)", "(29)", "(31)")
#: Relations evaluated for every even A > 2 in the row.
EVEN_RELATIONS = (
    "(4)",
    "(9)",
    "(10)",
    "(11-1)",
    "(11-2)",
    "(11-3)",
    "(19)",
    "(20)",
    "(21)",
    "(22)",
    "(25)",
    "(26)",
    "(33)",
)
ALL_RELATIONS = ROW_RELATIONS + EVEN_RELATIONS
_DC_VALUE = 2  # DC(A) of every audited even A > 2 (module docstring)

Number = Union[int, float]


@dataclass(frozen=True)
class RelationCheck:
    """One evaluated relation: computed sides and the arithmetic verdict.

    ``rhs_value`` is a (low, high) pair for sandwich relations.  Halves such
    as m/2 are compared exactly in integers and reported as x.5 floats.
    """

    relation_id: str
    lhs_value: Number
    rhs_value: Union[Number, tuple[int, int]]
    holds: bool
    detail: str = ""


@dataclass(frozen=True)
class EvenAudit:
    """Checks tied to one even number A > 2 inside a row."""

    target: int
    dc_value: int
    checks: tuple[RelationCheck, ...]


@dataclass(frozen=True)
class AuditReport:
    """Full audit of one row: census, row checks and the ``even_checks`` that
    each even A > 2 of it gets; ``per_even`` expands them per even on demand."""

    row: Row
    census: RowCensus
    row_checks: tuple[RelationCheck, ...]
    even_checks: tuple[RelationCheck, ...]

    @property
    def evens(self) -> range:  # the row's evens A > 2
        return _evens(self.row.start, self.row.end)

    @property
    def per_even(self) -> tuple[EvenAudit, ...]:
        return tuple(EvenAudit(a, _DC_VALUE, self.even_checks) for a in self.evens)

    def verdict_summary(self) -> dict[str, dict[str, int]]:
        return summarize([self])


@dataclass(frozen=True)
class RangeAudit:
    """Audit reports for every row of a range plus aggregate counts."""

    reports: tuple[AuditReport, ...]
    summary: dict[str, dict[str, int]]


def implication_eval(p: bool, q: bool, r: bool) -> tuple[bool, bool]:
    """Material reading of p => (q & r): returns (conjunction, implication)."""
    conjunction = q and r
    return conjunction, (not p) or conjunction


def _half(n: int) -> Number:
    return n // 2 if n % 2 == 0 else n / 2


def evaluate_row_relations(census: RowCensus) -> list[RelationCheck]:
    """The census-only relations, in catalog order."""
    ge, go, gf, m = census.gamma_even, census.gamma_odd, census.gamma_prime, census.m
    double_total = 2 * (ge + go) - gf
    mid = ge + go + gf + 4
    return [
        RelationCheck("A1", gf, 1, gf >= 1, "row holds at least one prime"),
        RelationCheck("A2", ge, go, ge == go, "evens and odds balance"),
        RelationCheck("A3", gf, go, gf <= go, "no more primes than odds"),
        RelationCheck("(3)", gf, (1, go), 1 <= gf <= go, "prime count sandwich"),
        RelationCheck(
            "(23)",
            double_total,
            mid + (ge + go - 2 * gf - 4),
            double_total == mid + (ge + go - 2 * gf - 4),
            "algebraic identity, holds on every row",
        ),
        RelationCheck("(24)", mid, double_total, mid < double_total, ""),
        RelationCheck(
            "(27)",
            double_total,
            _half(m),
            2 * double_total <= m,
            "m/2 compared exactly, no truncation",
        ),
        RelationCheck(
            "(28)",
            2 * m - gf,
            _half(m),
            2 * (2 * m - gf) <= m,
            "m/2 compared exactly, no truncation",
        ),
        RelationCheck("(29)", _half(3 * m), gf, 3 * m <= 2 * gf, "1.5m compared exactly"),
        RelationCheck("(31)", m, gf, m < gf, ""),
    ]


def evaluate_even_relations(
    target: int, dc_value: int, census: RowCensus
) -> list[RelationCheck]:
    """The relations tied to one even A > 2, in catalog order."""
    ge, go, gf = census.gamma_even, census.gamma_odd, census.gamma_prime
    double_total = 2 * (ge + go) - gf
    mid = ge + go + gf + 4
    dc = dc_value
    p = dc > 2
    q = dc < mid
    r = dc < double_total
    conjunction, implication = implication_eval(p, q, r)
    return [
        RelationCheck("(4)", dc, ge, dc <= ge, ""),
        RelationCheck("(9)", dc, double_total, dc <= double_total, ""),
        RelationCheck("(10)", dc, (2, double_total), 2 <= dc <= double_total, ""),
        RelationCheck("(11-1)", dc, 2, dc > 2, ""),
        RelationCheck("(11-2)", dc, double_total, dc <= double_total, ""),
        RelationCheck("(11-3)", dc, 2, dc == 2, ""),
        RelationCheck(
            "(19)", dc, go + 2, dc <= go + 2, "rewritten <= form of the odd-count bound"
        ),
        RelationCheck(
            "(20)", dc, gf + 2, dc <= gf + 2, "rewritten <= form of the prime-count bound"
        ),
        RelationCheck(
            "(21)",
            2 * dc,
            ge + gf + 4,
            2 * dc <= ge + gf + 4,
            "operand set as printed: even count + prime count + 4",
        ),
        RelationCheck(
            "(22)", 2 * dc, mid, 2 * dc <= mid, "missing operator reconstructed as +"
        ),
        RelationCheck("(25)", dc, mid, q, ""),
        RelationCheck("(26)", dc, double_total, r, ""),
        RelationCheck(
            "(33)",
            int(p),
            int(conjunction),
            implication,
            f"p={p} q={q} r={r}; holds is the implication p => (q and r)",
        ),
    ]


def _relation_filter(relations: Optional[Sequence[str]]) -> frozenset[str]:
    if relations is None:
        return frozenset(ALL_RELATIONS)
    unknown = set(relations) - set(ALL_RELATIONS)
    if unknown:
        raise ValueError(f"unknown relation ids: {sorted(unknown)}")
    return frozenset(relations)


def _evens(start: int, end: int) -> range:  # the evens A > 2 of [start, end]
    return range(max(4, start + start % 2), end + 1, 2)


def _prove_pairs(start: int, end: int, workers: int) -> None:
    """Raise GoldbachCounterexample unless every even A > 2 in [start, end] is p + q."""
    evens = _evens(start, end)
    failures = evens and run_verify(evens[0], evens[-1], workers=workers).failures
    if failures:
        raise GoldbachCounterexample(failures[0])


def audit_row(row: Row, relations: Optional[Sequence[str]] = None) -> AuditReport:
    """Evaluate the configured relations on one row: the one-row case of
    ``audit_range``.

    Row-level relations use the census alone; per-even relations are
    evaluated for every even A > 2 in the row with DC(A) (see the module
    docstring).  A row with no such evens has empty ``even_checks``.
    """
    return audit_range(Range(row.start, row.end), row.size, relations).reports[0]


def summarize(reports: Sequence[AuditReport]) -> dict[str, dict[str, int]]:
    """Held/failed counts per relation id, in catalog order.

    A report's row checks count once and its even checks once per even.
    Each distinct checks tuple is tallied once, weighted by its users: equal
    tuples from one audit are one object, and grouping by identity stays
    exact for reports mixed from several audits.
    """
    groups: dict[int, list] = {}  # id(checks) -> [checks, the rows or evens it serves]
    for r in reports:
        for checks, n in ((r.row_checks, 1), (r.even_checks, len(r.evens))):
            groups.setdefault(id(checks), [checks, 0])[1] += n
    tally: Counter[tuple[str, bool]] = Counter()
    for checks, users in groups.values():
        for check in checks:
            tally[check.relation_id, check.holds] += users
    return {
        rid: {"failed": tally[rid, False], "held": tally[rid, True]}
        for rid in ALL_RELATIONS
        if tally[rid, False] or tally[rid, True]
    }


def audit_range(
    rng: Range, width: int, relations: Optional[Sequence[str]] = None, *, workers: int = 1
) -> RangeAudit:
    """Audit every partition row of a range.

    ``workers`` parallelises the pair pass alone, which merges its blocks in
    order, so the output is identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    wanted = _relation_filter(relations)
    censuses = census_range(rng, width)
    _prove_pairs(rng.start, rng.end, workers)
    shared: dict[RowCensus, tuple] = {}  # census -> (census, row checks, even checks)
    reports = []
    for row, census in censuses:
        evens = _evens(row.start, row.end)
        entry = shared.get(census)
        if entry is None:  # the checks read the census alone, so A = 4 stands for any even
            both = evaluate_row_relations(census), evaluate_even_relations(4, _DC_VALUE, census)
            entry = shared[census] = (
                census,
                *(tuple(c for c in group if c.relation_id in wanted) for group in both),
            )
        census, row_checks, even_checks = entry
        reports.append(AuditReport(row, census, row_checks, even_checks if evens else ()))
    return RangeAudit(tuple(reports), summarize(reports))
