import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import goldbach_lab
from goldbach_lab import audit, serialize, sweep
from goldbach_lab.audit import (
    ALL_RELATIONS,
    EVEN_RELATIONS,
    ROW_RELATIONS,
    audit_range,
    audit_row,
    implication_eval,
)
from goldbach_lab.census import census_range
from goldbach_lab.cli import main
from goldbach_lab.dc import dc_oracle_table
from goldbach_lab.errors import GoldbachCounterexample
from goldbach_lab.rowrange import Range, Row


def check_by_id(checks, relation_id):
    matches = [c for c in checks if c.relation_id == relation_id]
    assert len(matches) == 1
    return matches[0]


def rows_strategy():
    return st.builds(
        lambda start, size: Row(start, start + size - 1),
        start=st.integers(1, 10**5),
        size=st.integers(1, 60),
    )


class TestRowLevelRelations:
    def test_first_decade_bound_vs_half(self):
        report = audit_row(Row(1, 10))
        check = check_by_id(report.row_checks, "(27)")
        assert (check.lhs_value, check.rhs_value, check.holds) == (16, 5, False)

    def test_first_decade_total_vs_primes(self):
        check = check_by_id(audit_row(Row(1, 10)).row_checks, "(31)")
        assert (check.lhs_value, check.rhs_value, check.holds) == (10, 4, False)

    def test_first_decade_sandwich(self):
        check = check_by_id(audit_row(Row(1, 10)).row_checks, "(3)")
        assert check.rhs_value == (1, 5)
        assert check.holds

    def test_half_values_are_exact_on_odd_m(self):
        report = audit_row(Row(1, 3))  # m = 3
        check = check_by_id(report.row_checks, "(27)")
        assert check.rhs_value == 1.5

    @settings(max_examples=100, deadline=None)
    @given(row=rows_strategy())
    def test_identity_relation_always_holds(self, row):
        check = check_by_id(audit_row(row).row_checks, "(23)")
        assert check.holds

    @settings(max_examples=100, deadline=None)
    @given(start=st.integers(1, 10**5), half=st.integers(1, 30))
    def test_even_width_rows_balance(self, start, half):
        row = Row(start, start + 2 * half - 1)
        check = check_by_id(audit_row(row).row_checks, "A2")
        assert check.holds

    @settings(max_examples=100, deadline=None)
    @given(row=rows_strategy())
    def test_chain_28_29_31(self, row):
        checks = audit_row(row).row_checks
        c28 = check_by_id(checks, "(28)").holds
        c29 = check_by_id(checks, "(29)").holds
        c31 = check_by_id(checks, "(31)").holds
        if c28:
            assert c29
        if c29:
            assert c31


class TestPerEvenRelations:
    def test_eight_resolves_to_two(self):
        report = audit_row(Row(1, 10))
        even = [e for e in report.per_even if e.target == 8][0]
        assert even.dc_value == 2
        assert check_by_id(even.checks, "(11-3)").holds
        assert not check_by_id(even.checks, "(11-1)").holds

    def test_tiny_row_breaks_even_count_bound(self):
        report = audit_row(Row(3, 4))
        even = report.per_even[0]
        assert even.target == 4
        check = check_by_id(even.checks, "(4)")
        assert (check.lhs_value, check.rhs_value, check.holds) == (2, 1, False)

    def test_no_evens_above_two(self):
        assert audit_row(Row(2, 3)).per_even == ()
        assert audit_row(Row(1, 2)).per_even == ()

    def test_every_even_above_two_appears_once(self):
        report = audit_row(Row(1, 30))
        assert [e.target for e in report.per_even] == list(range(4, 31, 2))

    @settings(max_examples=60, deadline=None)
    @given(row=rows_strategy())
    def test_exactly_one_of_gt2_eq2(self, row):
        for even in audit_row(row).per_even:
            gt2 = check_by_id(even.checks, "(11-1)").holds
            eq2 = check_by_id(even.checks, "(11-3)").holds
            assert gt2 != eq2


class TestImplicationEval:
    @pytest.mark.parametrize(
        "p,q,r,conjunction,implication",
        [
            (False, False, False, False, True),
            (False, False, True, False, True),
            (False, True, False, False, True),
            (False, True, True, True, True),
            (True, False, False, False, False),
            (True, False, True, False, False),
            (True, True, False, False, False),
            (True, True, True, True, True),
        ],
    )
    def test_truth_table(self, p, q, r, conjunction, implication):
        assert implication_eval(p, q, r) == (conjunction, implication)


class TestAuditReportShape:
    def test_relation_partition_is_exact(self):
        report = audit_row(Row(1, 10))
        assert [c.relation_id for c in report.row_checks] == list(ROW_RELATIONS)
        for even in report.per_even:
            assert [c.relation_id for c in even.checks] == list(EVEN_RELATIONS)
        assert set(ROW_RELATIONS) | set(EVEN_RELATIONS) == set(ALL_RELATIONS)
        assert not set(ROW_RELATIONS) & set(EVEN_RELATIONS)

    def test_relation_subset_configuration(self):
        report = audit_row(Row(1, 10), relations=["(27)", "(11-3)"])
        assert [c.relation_id for c in report.row_checks] == ["(27)"]
        for even in report.per_even:
            assert [c.relation_id for c in even.checks] == ["(11-3)"]

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            audit_row(Row(1, 10), relations=["(99)"])

    def test_verdict_summary_counts(self):
        summary = audit_row(Row(1, 10)).verdict_summary()
        assert summary["(11-3)"] == {"failed": 0, "held": 4}
        assert summary["(27)"] == {"failed": 1, "held": 0}


class TestAuditRange:
    def test_hundred_by_ten_ground_truth(self):
        result = audit_range(Range(1, 100), 10)
        assert len(result.reports) == 10
        summary = result.summary
        for rid in ("A1", "A2", "A3", "(3)", "(23)"):
            assert summary[rid] == {"failed": 0, "held": 10}
        for rid in ("(27)", "(28)", "(29)", "(31)"):
            assert summary[rid] == {"failed": 10, "held": 0}
        assert summary["(11-3)"] == {"failed": 0, "held": 49}
        assert summary["(11-1)"] == {"failed": 49, "held": 0}

    def test_no_evens_gives_empty_section(self):
        result = audit_range(Range(2, 3), 2)
        assert len(result.reports) == 1
        assert result.reports[0].per_even == ()

    def test_deterministic_across_runs(self):
        a = audit_range(Range(1, 100), 10)
        b = audit_range(Range(1, 100), 10)
        assert a == b

    def test_workers_do_not_change_the_result(self):
        sequential = audit_range(Range(1, 200), 10)
        parallel = audit_range(Range(1, 200), 10, workers=2)
        assert sequential == parallel

    def test_pooled_pair_pass_does_not_change_the_result(self):
        rng = Range(1, 131_300)  # just over 2^17 integers
        assert len(sweep._blocks(4, rng.end)) == 2  # so two workers are forked
        assert audit_range(rng, 100) == audit_range(rng, 100, workers=2)

    def test_one_block_starts_no_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("a worker process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert audit_range(Range(1, 2000), 20, workers=2) == audit_range(Range(1, 2000), 20)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_is_refused(self, workers):
        for rng, width in ((Range(1, 100), 10), (Range(2, 3), 2)):
            with pytest.raises(ValueError, match="workers >= 1"):
                audit_range(rng, width, workers=workers)

    def test_propagates_partition_errors(self):
        from goldbach_lab.errors import NonDivisibleWidth

        with pytest.raises(NonDivisibleWidth):
            audit_range(Range(1, 100), 7)


def naive_summary(reports):
    """Held/failed counts recounted check by check, in catalog order."""
    counts = {}
    for report in reports:
        checks = list(report.row_checks)
        for even in report.per_even:
            checks.extend(even.checks)
        for check in checks:
            entry = counts.setdefault(check.relation_id, {"failed": 0, "held": 0})
            entry["held" if check.holds else "failed"] += 1
    return {rid: counts[rid] for rid in ALL_RELATIONS if rid in counts}


def patched_dc_min(monkeypatch, target):
    """Make dc_min raise for one even inside the sweep's pair pass."""
    real = sweep.dc_min

    def dc_min(n):
        if n == target:
            raise GoldbachCounterexample(n)
        return real(n)

    monkeypatch.setattr(sweep, "dc_min", dc_min)


def csv_writer_text(header, rows):
    """One CSV table as csv.writer writes it, the reference for the hand-joined lines."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class TestAggregation:
    @pytest.mark.parametrize("workers", [1, 2])
    @settings(max_examples=15, deadline=None)
    @given(
        start=st.integers(1, 10**5),
        width=st.integers(1, 40),
        rows=st.integers(1, 6),
        relations=st.none() | st.sets(st.sampled_from(ALL_RELATIONS)).map(sorted),
        other=st.sets(st.sampled_from(ALL_RELATIONS)).map(sorted),
    )
    def test_summary_equals_naive_recount(self, workers, start, width, rows, relations, other):
        rng = Range(start, start + width * rows - 1)
        result = audit_range(rng, width, relations, workers=workers)
        summary = naive_summary(result.reports)
        assert result.summary == summary
        assert list(result.summary) == list(summary)
        # two audits with different filters: equal censuses, different checks tuples
        mixed = [r for pair in zip(result.reports, audit_range(rng, width, other).reports)
                 for r in pair]
        summary = naive_summary(mixed)
        assert audit.summarize(mixed) == summary
        assert list(audit.summarize(mixed)) == list(summary)

    def test_dc_values_exact_when_the_fallback_runs(self, monkeypatch):
        # with 3 as the only pair prime, most evens reach the sweep's fallback
        monkeypatch.setattr(sweep, "_PAIR_PRIME_BOUND", 3)
        fallback = []
        real = sweep.dc_min
        monkeypatch.setattr(sweep, "dc_min", lambda n: fallback.append(n) or real(n))
        table = dc_oracle_table(2000)
        result = audit_range(Range(1, 2000), 20)
        evens = [e for report in result.reports for e in report.per_even]
        assert [e.target for e in evens] == list(range(4, 2001, 2))
        assert all(e.dc_value == table[e.target] for e in evens)
        assert 98 in fallback  # 98 - 3 = 95 is not prime

    def test_counterexample_propagates(self, monkeypatch):
        monkeypatch.setattr(sweep, "_PAIR_PRIME_BOUND", 3)
        patched_dc_min(monkeypatch, 98)
        with pytest.raises(GoldbachCounterexample) as info:
            audit_range(Range(1, 2000), 20)
        assert info.value.target == 98
        argv = ["audit", "--from", "1", "--to", "2000", "--row-width", "20"]
        assert main(argv) == 2

    def test_one_pair_pass_per_range_not_per_row(self, monkeypatch):
        blocks = []
        real = sweep.verify_block

        def verify_block(lo, hi):
            blocks.append((lo, hi))
            return real(lo, hi)

        monkeypatch.setattr(sweep, "verify_block", verify_block)
        audit_range(Range(1, 2000), 20)
        assert blocks == [(4, 2000)]
        audit_row(Row(10**12 + 1, 10**12 + 100))
        assert blocks[1:] == [(10**12 + 2, 10**12 + 100)]

    def test_relations_evaluated_once_per_distinct_census(self, monkeypatch):
        calls = {"row": 0, "even": 0}

        def counted(kind, real):
            def evaluate(*args):
                calls[kind] += 1
                return real(*args)

            return evaluate

        monkeypatch.setattr(
            audit, "evaluate_row_relations", counted("row", audit.evaluate_row_relations)
        )
        monkeypatch.setattr(
            audit, "evaluate_even_relations", counted("even", audit.evaluate_even_relations)
        )
        result = audit_range(Range(1, 10**4), 100)
        first = {}
        for report in result.reports:
            shared = first.setdefault(report.census, report)
            assert report.census is shared.census
            assert report.row_checks is shared.row_checks
            assert report.even_checks is shared.even_checks
        assert calls == {"row": len(first), "even": len(first)}
        assert len(first) < len(result.reports) == 100

    @pytest.mark.parametrize("workers", [1, 2])
    def test_evens_with_one_key_share_one_checks_tuple(self, workers):
        result = audit_range(Range(1, 1000), 50, workers=workers)
        first = {}
        for report in result.reports:
            for even in report.per_even:
                key = (even.dc_value, report.census)
                assert even.checks is first.setdefault(key, even.checks)
        assert len(first) < len(result.reports)

    def test_audit_and_renderers_build_no_per_even_objects(self, monkeypatch):
        def no_even_audit(*args, **kwargs):
            raise AssertionError("an EvenAudit was built")

        monkeypatch.setattr(audit, "EvenAudit", no_even_audit)
        result = audit_range(Range(1, 2000), 20)
        assert "".join(serialize.audit_csv(result)).count("\n") > 1000
        text = "".join(serialize.audit_json(result, {}))
        assert len(json.loads(text)["payload"]["rows"]) == 100
        assert "".join(serialize.audit_text(result)).endswith("\n")

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.integers(1, 10**5),
        width=st.integers(1, 40),
        rows=st.integers(1, 6),
        relations=st.none() | st.sets(st.sampled_from(ALL_RELATIONS)).map(sorted),
    )
    def test_json_templates_match_the_encoder(self, start, width, rows, relations):
        end = start + width * rows - 1
        result = audit_range(Range(start, end), width, relations)
        docs = [
            {
                "row": {"start": r.row.start, "end": r.row.end},
                "census": serialize._census_doc(r.census),
                "row_checks": [serialize._check_doc(c) for c in r.row_checks],
                "per_even": [
                    {"A": e.target, "dc_value": e.dc_value,
                     "checks": [serialize._check_doc(c) for c in e.checks]}
                    for e in r.per_even
                ],
            }
            for r in result.reports
        ]
        params = {"from": start, "to": end, "width": width}
        payload = {"rows": docs, "verdict_summary": result.summary}
        expected = serialize.to_json("audit", params, payload)
        assert "".join(serialize.audit_json(result, params)) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.integers(1, 10**5),
        width=st.integers(1, 40),
        rows=st.integers(1, 6),
        relations=st.none() | st.sets(st.sampled_from(ALL_RELATIONS)).map(sorted),
    )
    def test_csv_lines_match_the_csv_writer(self, start, width, rows, relations):
        rng = Range(start, start + width * rows - 1)
        result = audit_range(rng, width, relations)
        cell = serialize._cell
        census = ["row_start", "row_end", "gamma_even", "gamma_odd", "gamma_prime", "m"]
        check = ["relation_id", "lhs", "rhs", "holds"]

        def cells(c):
            return [c.relation_id, cell(c.lhs_value), cell(c.rhs_value), cell(c.holds)]

        def counts(c):
            return [c.gamma_even, c.gamma_odd, c.gamma_prime, c.m]

        row_table = csv_writer_text(census + check, [
            [r.row.start, r.row.end, *counts(r.census), *cells(c)]
            for r in result.reports for c in r.row_checks
        ])
        even_table = csv_writer_text(["row_start", "A", "dc_value"] + check, [
            [r.row.start, e.target, e.dc_value, *cells(c)]
            for r in result.reports for e in r.per_even for c in e.checks
        ])
        assert "".join(serialize.audit_csv(result)) == row_table + "\n" + even_table
        items = census_range(rng, width)
        expected = csv_writer_text(census, [[row.start, row.end, *counts(c)] for row, c in items])
        assert serialize.census_csv(items) == expected


def peak_kib_of_audit(tmp_path, fmt):
    """VmHWM, in KiB, of a fresh process that audits 1..10^5 in rows of 100."""
    code = (
        "import sys\n"
        "from goldbach_lab.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(l for l in fh if l.startswith('VmHWM:')).split()[1])\n"
    )
    src = str(Path(goldbach_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / f"out.{fmt}"
    proc = subprocess.run(
        [sys.executable, "-c", code, "audit", "--from", "1", "--to", str(10**5),
         "--row-width", "100", "--format", fmt, "--output", str(out)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    assert out.stat().st_size > 10**6
    return int(proc.stdout.split()[-1]), out


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM from procfs")
class TestAuditMemory:
    """The output is written as it renders: peak RSS stays far below its size."""

    def test_csv_peak_is_bounded(self, tmp_path):
        peak_kib, out = peak_kib_of_audit(tmp_path, "csv")
        # 40, not 64: the CSV built as one string peaked at about 61 MiB
        assert peak_kib < 40 * 1024, f"peak RSS {peak_kib} KiB"
        lines = [0, 0]  # lines of the per-row and the per-even table, headers included
        with open(out, newline="") as fh:
            table = 0
            for cells in csv.reader(fh):
                table += not cells
                lines[table] += bool(cells)
        per_even = (10**5 // 2 - 1) * len(EVEN_RELATIONS)
        assert lines == [1 + 1000 * len(ROW_RELATIONS), 1 + per_even]

    def test_json_peak_is_bounded(self, tmp_path):
        peak_kib, out = peak_kib_of_audit(tmp_path, "json")
        assert peak_kib < 64 * 1024, f"peak RSS {peak_kib} KiB"

        def drop_per_even(obj):  # keeps the parsed document small
            return None if "A" in obj or "relation_id" in obj else obj

        doc = json.loads(out.read_text(), object_hook=drop_per_even)
        rows = doc["payload"]["rows"]
        assert len(rows) == 1000
        assert sum(len(r["per_even"]) for r in rows) == 10**5 // 2 - 1
