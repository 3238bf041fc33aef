import pytest
from hypothesis import given, settings, strategies as st

from goldbach_lab.errors import (
    EmptyCandidate,
    NonDivisibleWidth,
    OverlappingRows,
    WidthExceedsRange,
)
from goldbach_lab.rowrange import (
    Range,
    Row,
    partition_rows,
    successor_offset,
    validate_range,
    validate_row,
)


def violated(verdict):
    return sorted({label for label, _ in verdict.violations})


class TestRowClassification:
    def test_accepts_one_to_four(self):
        verdict = validate_row((1, 2, 3, 4))
        assert verdict.accepted
        assert verdict.subject == Row(1, 4)

    def test_accepts_25_to_27(self):
        verdict = validate_row((25, 26, 27))
        assert verdict.accepted
        assert verdict.subject == Row(25, 27)

    def test_rejects_descending_on_order_only(self):
        verdict = validate_row((4, 3, 2, 1))
        assert not verdict.accepted
        assert violated(verdict) == ["III"]

    def test_rejects_gapped_sequence(self):
        verdict = validate_row((5, 9, 10, 11, 14))
        assert not verdict.accepted
        assert violated(verdict) == ["IV"]

    def test_rejects_stride_two(self):
        verdict = validate_row((49, 51, 53, 55))
        assert not verdict.accepted
        assert violated(verdict) == ["IV"]

    def test_singleton_is_degenerate_valid(self):
        verdict = validate_row((7,))
        assert verdict.accepted
        assert verdict.subject == Row(7, 7)

    def test_duplicate_extreme_breaks_uniqueness(self):
        verdict = validate_row((3, 3, 4))
        assert "II" in violated(verdict)

    def test_empty_candidate(self):
        with pytest.raises(EmptyCandidate):
            validate_row(())

    def test_rejects_non_naturals(self):
        with pytest.raises(ValueError):
            validate_row((0, 1, 2))

    def test_rejects_bools(self):
        with pytest.raises(ValueError, match="naturals"):
            validate_row([True, 2])


class TestRangeClassification:
    def test_accepts_1_to_100(self):
        verdict = validate_range(tuple(range(1, 101)))
        assert verdict.accepted
        assert verdict.subject == Range(1, 100)

    def test_accepts_5_to_23(self):
        verdict = validate_range(tuple(range(5, 24)))
        assert verdict.accepted
        assert verdict.subject == Range(5, 23)

    def test_rejects_gapped_run_on_unit_step(self):
        verdict = validate_range((30, 31, 32, 35, 36, 37, 39, 41, 42, 45))
        assert not verdict.accepted
        assert violated(verdict) == ["[5]"]

    def test_rejects_scrambled_set_on_multiple_properties(self):
        verdict = validate_range((31, 32, 50, 33, 50, 1, 2, 4, 10, 2000))
        assert not verdict.accepted
        labels = violated(verdict)
        assert len(labels) >= 2
        assert "[5]" in labels and "[6]" in labels

    def test_empty_candidate(self):
        with pytest.raises(EmptyCandidate):
            validate_range([])

    def test_rejects_bools(self):
        with pytest.raises(ValueError, match="naturals"):
            validate_range([1, True, 3])

    @settings(max_examples=50, deadline=None)
    @given(start=st.integers(1, 10**6), size=st.integers(1, 60), data=st.data())
    def test_accepted_range_slices_are_rows(self, start, size, data):
        elements = tuple(range(start, start + size))
        assert validate_range(elements).accepted
        width = data.draw(st.integers(1, size))
        offset = data.draw(st.integers(0, size - width))
        assert validate_row(elements[offset : offset + width]).accepted


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(start=st.integers(1, 10**9), size=st.integers(1, 500))
    def test_row_round_trip(self, start, size):
        row = Row(start, start + size - 1)
        verdict = validate_row(tuple(row.elements()))
        assert verdict.accepted
        assert verdict.subject == row

    @settings(max_examples=100, deadline=None)
    @given(start=st.integers(1, 10**6), size=st.integers(2, 300))
    def test_descending_flip_is_exactly_order(self, start, size):
        elements = tuple(range(start + size - 1, start - 1, -1))
        verdict = validate_row(elements)
        assert violated(verdict) == ["III"]


class TestPartition:
    def test_hundred_by_ten(self):
        rows = partition_rows(Range(1, 100), 10)
        assert rows[0] == Row(1, 10)
        assert rows[1] == Row(11, 20)
        assert rows[-1] == Row(91, 100)
        assert len(rows) == 10

    def test_singleton(self):
        assert partition_rows(Range(5, 5), 1) == [Row(5, 5)]

    def test_non_divisible_width(self):
        with pytest.raises(NonDivisibleWidth):
            partition_rows(Range(1, 100), 7)

    def test_width_exceeds_range(self):
        with pytest.raises(WidthExceedsRange):
            partition_rows(Range(1, 10), 20)

    def test_zero_width(self):
        with pytest.raises(ValueError):
            partition_rows(Range(1, 10), 0)

    @settings(max_examples=100, deadline=None)
    @given(
        start=st.integers(1, 10**6),
        width=st.integers(1, 50),
        count=st.integers(1, 50),
    )
    def test_partition_tiles_the_range(self, start, width, count):
        rng = Range(start, start + width * count - 1)
        rows = partition_rows(rng, width)
        assert len(rows) == count
        assert all(r.size == width for r in rows)
        assert rows[0].start == rng.start and rows[-1].end == rng.end
        covered = []
        for row in rows:
            covered.extend(row.elements())
        assert covered == list(rng.elements())
        for a, b in zip(rows, rows[1:]):
            assert successor_offset(a, b) == 1


class TestSuccessorOffset:
    def test_adjacent(self):
        assert successor_offset(Row(1, 10), Row(11, 20)) == 1

    def test_gap(self):
        assert successor_offset(Row(1, 10), Row(21, 30)) == 11

    def test_reversed_orientation_is_negative(self):
        assert successor_offset(Row(21, 30), Row(1, 10)) < 0

    def test_overlap(self):
        with pytest.raises(OverlappingRows):
            successor_offset(Row(1, 10), Row(5, 20))

    def test_touching_counts_as_overlap(self):
        with pytest.raises(OverlappingRows):
            successor_offset(Row(1, 10), Row(10, 20))

    @settings(max_examples=100, deadline=None)
    @given(
        a_start=st.integers(1, 10**6),
        a_size=st.integers(1, 100),
        gap=st.integers(1, 100),
        b_size=st.integers(1, 100),
    )
    def test_disjoint_offset_never_zero(self, a_start, a_size, gap, b_size):
        a = Row(a_start, a_start + a_size - 1)
        b = Row(a.end + gap, a.end + gap + b_size - 1)
        assert successor_offset(a, b) == gap != 0


class TestIntervalTypes:
    def test_row_size(self):
        assert Row(3, 7).size == 5
        assert Row(5, 5).size == 1

    def test_range_size(self):
        assert Range(1, 100).size == 100

    def test_bad_endpoints(self):
        with pytest.raises(ValueError):
            Row(0, 4)
        with pytest.raises(ValueError):
            Range(5, 4)
