"""Tests for percentiles, boxplot summaries, and time series."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    BoxplotSummary,
    LatencyRecorder,
    TimeSeries,
    format_table,
    mean,
    percentile,
)


class TestPercentile:
    def test_median_of_odd_sample(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_extremes(self):
        values = list(range(100))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 99

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1))
    def test_bounded_by_min_max(self, values):
        for p in (5, 50, 95):
            result = percentile(values, p)
            assert min(values) <= result <= max(values)


class TestMean:
    def test_mean_is_a_left_fold(self):
        """``(1e16 + 1.0) - 1e16`` is 0.0 in IEEE 754; a compensated sum
        (Python 3.12's ``sum()``) would make the mean 1/3."""
        assert mean([1e16, 1.0, -1e16]) == 0.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_left_fold_of_the_sample(self, values):
        total = 0
        for value in values:
            total += value
        assert mean(values) == total / len(values)

    def test_empty_rejected(self):
        with pytest.raises(ZeroDivisionError):
            mean([])


class TestBoxplotSummary:
    def test_ordering_invariant(self):
        summary = BoxplotSummary.from_values([5, 1, 9, 3, 7, 2, 8])
        assert (
            summary.p5 <= summary.p25 <= summary.p50 <= summary.p75 <= summary.p95
        )

    def test_count_and_mean(self):
        summary = BoxplotSummary.from_values([2, 4, 6])
        assert summary.count == 3
        assert summary.mean == pytest.approx(4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxplotSummary.from_values([])

    def test_as_row(self):
        row = BoxplotSummary.from_values([1.0]).as_row()
        assert row["p50"] == 1.0
        assert row["n"] == 1

    @given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=2))
    def test_five_numbers_monotone(self, values):
        summary = BoxplotSummary.from_values(values)
        quintet = [summary.p5, summary.p25, summary.p50, summary.p75, summary.p95]
        assert quintet == sorted(quintet)


def _mean_sample(n):
    return [(i * 0.7373) % 1.3 + 1 / (i + 3) for i in range(n)]


class TestNumpyExactness:
    """The stdlib reductions reproduce numpy's ``percentile`` ("linear")
    and ``mean`` bit for bit.  The literals were computed with numpy 2.4;
    several differ in the last bit from the obvious alternatives (a plain
    ``sum``, ``math.fsum``, a one-sided lerp), so they pin the rule."""

    def test_single_value(self):
        for p in (0, 50, 100):
            assert percentile([3.7], p) == 3.7

    def test_extremes_are_the_min_and_max(self):
        values = [0.1, 0.7, 2.3, 1e3 / 3, 7.9]
        assert percentile(values, 0) == 0.1
        assert percentile(values, 100) == 333.3333333333333

    def test_fraction_below_half_interpolates_from_below(self):
        assert percentile([2.26, 0.4, 7.26, 8.26, 9.26], 10) == 1.1440000000000001

    def test_fraction_at_half_interpolates_from_above(self):
        assert percentile([0.1, 0.7, 2.3, 1e3 / 3, 7.9], 12.5) == 0.39999999999999997

    def test_fraction_above_half_interpolates_from_above(self):
        assert percentile([4.291, 2.16, 9.291, 10.291, 11.291], 20) == 3.8648000000000002

    @pytest.mark.parametrize(
        "n, mean",
        [
            (7, 0.730324036281179),
            (8, 0.8091710317460314),
            (9, 0.8069641494308157),
            (128, 0.6790858698301983),
            (129, 0.6798839141554389),
            (1000, 0.6577374678655066),
        ],
    )
    def test_mean_is_the_pairwise_sum(self, n, mean):
        assert BoxplotSummary.from_values(_mean_sample(n)).mean == mean

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0, math.nan, 2.0], 50)
        with pytest.raises(ValueError):
            BoxplotSummary.from_values([math.nan])

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e300, max_value=1e300),
            min_size=1,
            max_size=300,
        ),
        st.floats(min_value=0, max_value=100),
    )
    def test_matches_numpy(self, values, p):
        np = pytest.importorskip("numpy")
        arr = np.asarray(values, dtype=float)
        assert percentile(values, p) == float(np.percentile(arr, p))
        summary = BoxplotSummary.from_values(values)
        expected = [float(x) for x in np.percentile(arr, [5, 25, 50, 75, 95])]
        got = [summary.p5, summary.p25, summary.p50, summary.p75, summary.p95]
        assert got == expected
        assert summary.mean == float(arr.mean())


class TestLatencyRecorder:
    def test_record_and_summarize(self):
        recorder = LatencyRecorder()
        for value in (1, 2, 3):
            recorder.record("a", value)
        assert recorder.summary("a").p50 == 2


class TestLatencyRecorderUnknownLabel:
    def test_summary_raises_keyerror_naming_label(self):
        recorder = LatencyRecorder()
        recorder.record("warm", 1)
        recorder.record("cold", 2)
        with pytest.raises(KeyError, match=r"'ghost'.*cold, warm"):
            recorder.summary("ghost")

    def test_empty_recorder_says_none(self):
        with pytest.raises(KeyError, match="available labels: none"):
            LatencyRecorder().summary("anything")


class TestTimeSeries:
    def test_binning(self):
        series = TimeSeries()
        for t in (0.1, 0.2, 1.1, 1.9, 3.5):
            series.record(t, t * 10)
        bins = series.bins(width=1.0)
        assert [b[0] for b in bins] == [0.1, 1.1, 3.1]
        assert bins[0][1].count == 2

    def test_empty_bins(self):
        assert TimeSeries().bins(1.0) == []

    def test_invalid_width(self):
        series = TimeSeries()
        series.record(0, 1)
        with pytest.raises(ValueError):
            series.bins(0)

    def test_boundary_sample_lands_in_final_bin(self):
        """Fig-4 regression: a sample exactly on the explicit ``end`` must
        not open a spurious zero-width bin past the window (start=0,
        end=10, width=0.5 used to put t=10 into bin 20)."""
        series = TimeSeries()
        for t in (0.25, 5.0, 9.75, 10.0):
            series.record(t, 1.0)
        bins = series.bins(width=0.5, start=0.0, end=10.0)
        starts = [b[0] for b in bins]
        assert starts == [0.0, 5.0, 9.5]
        # The final bin absorbs both 9.75 and the boundary sample.
        assert bins[-1][1].count == 2
        assert max(starts) < 10.0

    def test_boundary_clamp_with_implicit_end(self):
        series = TimeSeries()
        for t in (0.0, 1.0, 2.0):
            series.record(t, t)
        bins = series.bins(width=1.0)
        assert [b[0] for b in bins] == [0.0, 1.0]
        assert bins[-1][1].count == 2

    def test_single_sample_at_start_keeps_bin_zero(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        bins = series.bins(width=0.5, start=0.0, end=10.0)
        assert [b[0] for b in bins] == [0.0]

    def test_partial_bins_skip_empty_windows(self):
        series = TimeSeries()
        series.record(0.1, 1.0)
        series.record(7.3, 2.0)
        bins = series.bins(width=1.0, start=0.0, end=10.0)
        assert [b[0] for b in bins] == [0.0, 7.0]

    def test_window_excluding_all_samples(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        assert series.bins(width=1.0, start=10.0, end=20.0) == []

    def test_split_at(self):
        series = TimeSeries()
        series.record(1, 10)
        series.record(2, 20)
        series.record(3, 30)
        before, after = series.split_at(2)
        assert before == [10]
        assert after == [20, 30]

    def test_split_at_boundary_sample_goes_after(self):
        # The boundary is half-open: strictly-before vs at-or-after, so a
        # sample exactly at the split time counts as "after" and no sample
        # is dropped or double-counted.
        series = TimeSeries()
        for t in (1.0, 2.0, 3.0):
            series.record(t, t)
        before, after = series.split_at(2.0)
        assert before == [1.0]
        assert after == [2.0, 3.0]
        assert len(before) + len(after) == len(series.times)

    def test_split_at_extremes(self):
        series = TimeSeries()
        series.record(1.0, 10.0)
        assert series.split_at(0.5) == ([], [10.0])
        assert series.split_at(1.5) == ([10.0], [])

    def test_len(self):
        series = TimeSeries()
        series.record(0, 0)
        assert len(series.times) == 1


class TestFormatTable:
    def test_renders_columns(self):
        text = format_table([{"a": 1, "b": 2.5}], columns=["a", "b"])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "2.50" in lines[2]

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_missing_cell_is_blank(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "3" in text

    def test_mixed_int_float_column_renders_uniformly(self):
        # One float anywhere in a column float-formats the whole column:
        # no more `0` in one row next to `0.25` in the next.
        text = format_table(
            [{"drops": 0, "rate": 0}, {"drops": 3, "rate": 0.25}],
            columns=["drops", "rate"],
        )
        rows = text.splitlines()[2:]
        assert "0.00" in rows[0] and "0.25" in rows[1]
        # The all-int column stays integer-formatted.
        assert "3.00" not in rows[1]

    def test_union_of_row_keys_when_columns_omitted(self):
        # Keys missing from the first row must still become columns, in
        # first-appearance order, rendered blank where absent.
        text = format_table(
            [{"a": 1}, {"a": 2, "b": 9}, {"c": 3, "a": 4}]
        )
        header = text.splitlines()[0].split()
        assert header == ["a", "b", "c"]
        assert "9" in text and "3" in text

    def test_explicit_columns_unchanged_by_union(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        header = text.splitlines()[0].split()
        assert header == ["b"]

    def test_bools_render_as_text_not_numbers(self):
        text = format_table(
            [{"ok": True, "ratio": 0.5}, {"ok": False, "ratio": 1.0}],
            columns=["ok", "ratio"],
        )
        assert "True" in text and "False" in text
        assert "1.00" in text
