import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from failcast.cli import PREDICTIONS_HEADER, _read_predictions
from failcast.errors import FailcastError, ParseError
from failcast.features import IDS_HEADER, read_dataset_csv, read_ids_csv
from failcast.ingestion import (
    MACHINE_EVENTS_HEADER,
    USAGE_DTYPE,
    USAGE_HEADER,
    aggregate_intervals,
    parse_machine_events,
    parse_usage_records,
    write_usage_rows,
)
from failcast.tables import TEXT_BLOCK_ROWS, WRITE_BLOCK_ROWS, format_rows, write_rows
from failcast.trace_model import INTERVAL_US, MachineEventKind
from oracles import reference_aggregate, reference_write_rows

SEC = 1_000_000


def _text(lines):
    """An open text file holding ``lines``."""
    return io.StringIO("\n".join(lines))


def _events(*rows):
    return _text([MACHINE_EVENTS_HEADER, *rows])


def _usage_row(start, end, machine, mean_cpu=0.0, max_cpu=0.0, **kw):
    means = [mean_cpu, 0.0, 0.0, kw.get("mean_mem", 0.0), 0.0, 0.0]
    maxes = [max_cpu, 0.0, 0.0, kw.get("max_mem", 0.0), 0.0, 0.0]
    vals = ",".join(str(v) for v in means + maxes)
    return f"{start},{end},{machine},{vals}"


class TestParseMachineEvents:
    def test_direct_field_mapping(self):
        events = parse_machine_events(_events("600000000,42,1"))
        assert len(events) == 1
        ev = events[0]
        assert ev["machine_id"] == 42
        assert ev["time_us"] == 600 * SEC
        assert ev["event"] == MachineEventKind.REMOVE

    def test_empty_input_gives_empty_sequence(self):
        assert len(parse_machine_events(_text([]))) == 0
        assert len(parse_machine_events(_events())) == 0

    def test_unknown_event_code_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_machine_events(_events("10,1,0", "20,1,7"))
        assert err.value.line_no == 3

    def test_non_integer_field_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_machine_events(_events("abc,1,0"))
        assert err.value.line_no == 2

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_machine_events(_text(["10,1,0"]))

    def test_output_sorted_by_machine_then_time(self):
        events = parse_machine_events(
            _events("50,2,0", "10,2,1", "30,1,0", "5,1,2")
        )
        assert list(zip(events["machine_id"].tolist(), events["time_us"].tolist())) == [
            (1, 5),
            (1, 30),
            (2, 10),
            (2, 50),
        ]

    def test_update_events_retained(self):
        events = parse_machine_events(_events("10,1,2"))
        assert events[0]["event"] == MachineEventKind.UPDATE

    def test_negative_time_reports_line(self):
        with pytest.raises(ParseError, match="negative time -10") as err:
            parse_machine_events(_events("10,1,0", "-10,1,1"))
        assert err.value.line_no == 3


class TestParseUsageRecords:
    def test_direct_field_mapping(self):
        rows = [USAGE_HEADER, _usage_row(0, 100, 7, mean_cpu=0.3, max_cpu=0.5)]
        table, stats = parse_usage_records(_text(rows))
        assert len(table) == 1
        assert table.dtype == USAGE_DTYPE
        assert table["machine_id"].tolist() == [7]
        assert table["start_us"].tolist() == [0]
        assert table["end_us"].tolist() == [100]
        assert table["values"][0, 0] == 0.3  # mean_cpu
        assert table["values"][0, 6] == 0.5  # max_cpu
        assert stats.values_clamped == 0

    def test_out_of_range_value_clamped_and_counted(self):
        rows = [USAGE_HEADER, _usage_row(0, 100, 7, mean_cpu=1.2, max_cpu=1.5)]
        table, stats = parse_usage_records(_text(rows))
        assert table["values"][0, 0] == 1.0
        assert table["values"][0, 6] == 1.0
        assert stats.values_clamped == 2
        assert stats.rows_affected == 1

    def test_mean_capped_at_peak_after_clamp(self):
        rows = [USAGE_HEADER, _usage_row(0, 100, 7, mean_cpu=0.8, max_cpu=0.5)]
        table, stats = parse_usage_records(_text(rows))
        assert table["values"][0, 0] == 0.5
        assert stats.values_clamped == 1

    def test_start_equal_end_rejected(self):
        with pytest.raises(ParseError):
            parse_usage_records(_text([USAGE_HEADER, _usage_row(100, 100, 7)]))

    def test_negative_start_rejected(self):
        # binned naively, a start before 0 would land in another bin's cell
        with pytest.raises(ParseError) as err:
            parse_usage_records(_text([USAGE_HEADER, _usage_row(-100, 100, 7)]))
        assert err.value.line_no == 2

    def test_non_numeric_field_reports_line(self):
        bad = _usage_row(0, 100, 7).replace("0.0", "zebra", 1)
        with pytest.raises(ParseError) as err:
            parse_usage_records(_text([USAGE_HEADER, bad]))
        assert err.value.line_no == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [3, 9, 14], ids=["mean_cpu", "max_cpu", "max_mai"])
    def test_non_finite_value_reports_line(self, value, column):
        fields = _usage_row(0, 100, 7, mean_cpu=0.1, max_cpu=0.5).split(",")
        fields[column] = value
        rows = [USAGE_HEADER, _usage_row(0, 100, 6), ",".join(fields)]
        with pytest.raises(ParseError) as err:
            parse_usage_records(_text(rows))
        assert err.value.line_no == 3
        assert USAGE_HEADER.split(",")[column] in str(err.value)

    def test_first_broken_row_is_named_whichever_rule_it_breaks(self):
        nan_row = _usage_row(0, 100, 7).replace("0.0", "nan", 1)
        for rows, line_no in (
            ([nan_row, _usage_row(-1, 100, 7), _usage_row(100, 100, 7)], 2),
            ([_usage_row(100, 100, 7), _usage_row(-1, 100, 7), nan_row], 2),
            ([_usage_row(0, 100, 7), _usage_row(-1, 100, 7), nan_row], 3),
        ):
            with pytest.raises(ParseError) as err:
                parse_usage_records(_text([USAGE_HEADER, *rows]))
            assert err.value.line_no == line_no

    def test_blank_lines_and_no_body(self):
        table, stats = parse_usage_records(_text(["", USAGE_HEADER, ""]))
        assert len(table) == 0 and stats.values_clamped == 0
        assert len(parse_usage_records(_text([]))[0]) == 0
        table, _ = parse_usage_records(
            io.StringIO("\n" + USAGE_HEADER + "\n\n" + _usage_row(0, 100, 7) + "\r\n\n")
        )
        assert table["machine_id"].tolist() == [7]
        with pytest.raises(ParseError) as err:
            parse_usage_records(_text(["", "start_us,end_us"]))
        assert err.value.line_no == 2

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=6),
        st.data(),
    )
    def test_corrupt_line_reports_its_number(self, blanks_before, data):
        """One corrupted row among valid ones is named by its line number."""
        n = len(blanks_before)
        lines = [USAGE_HEADER]
        line_nos = []
        for i, blanks in enumerate(blanks_before):
            lines.extend([""] * blanks)
            lines.append(_usage_row(i * 300, i * 300 + 300, i % 3, mean_cpu=0.25, max_cpu=0.5))
            line_nos.append(len(lines))
        k = data.draw(st.integers(0, n - 1))
        fields = lines[line_nos[k] - 1].split(",")
        kind = data.draw(
            st.sampled_from(
                ["drop", "extra", "word", "float_int", "huge_int", "negative", "nan", "inf"]
            )
        )
        int_col = data.draw(st.integers(0, 2))
        value_col = data.draw(st.integers(3, 14))
        if kind == "drop":
            fields.pop(value_col)
        elif kind == "extra":
            fields.append("0.5")
        elif kind == "word":
            fields[data.draw(st.integers(0, 14))] = "zebra"
        elif kind == "float_int":
            fields[int_col] = "1.5"
        elif kind == "huge_int":
            fields[int_col] = str(2**63)
        elif kind == "negative":
            fields[0] = "-1"
        else:
            fields[value_col] = kind
        lines[line_nos[k] - 1] = ",".join(fields)
        with pytest.raises(ParseError) as err:
            parse_usage_records(_text(lines))
        assert err.value.line_no == line_nos[k]


# reader, header, row i as values, int columns, (class column, class count) or None
TABLES = {
    "events": (
        parse_machine_events, MACHINE_EVENTS_HEADER, lambda i: [i * 10, i % 3, i % 3],
        (0, 1, 2), (2, 3),
    ),
    "dataset": (read_dataset_csv, "y,f0,f1", lambda i: [i % 4, 0.25, i / 2], (0,), (0, 4)),
    "ids": (read_ids_csv, IDS_HEADER, lambda i: [i % 3, i], (0, 1), None),
    "predictions": (
        _read_predictions, PREDICTIONS_HEADER, lambda i: [i % 3, i, i % 4, 0.5],
        (0, 1, 2), (2, 4),
    ),
}


@pytest.mark.parametrize("table", sorted(TABLES))
@given(st.lists(st.integers(0, 2), min_size=1, max_size=6), st.data())
def test_corrupt_line_reports_its_number_in_every_table(table, blanks_before, data):
    """One corrupted row among valid ones is named by its line number, in every table."""
    reader, header, row, int_cols, classes = TABLES[table]
    lines = [header]
    line_nos = []
    for i, blanks in enumerate(blanks_before):
        lines.extend([""] * blanks)
        lines.append(",".join(str(v) for v in row(i)))
        line_nos.append(len(lines))
    reader(_text(lines))  # the uncorrupted table reads
    n_fields = header.count(",") + 1
    float_cols = [c for c in range(n_fields) if c not in int_cols]
    kinds = ["drop", "extra", "word", "float_int", "huge_int", "underscore_int", "whitespace"]
    kinds += ["class"] * bool(classes) + ["nan", "inf"] * bool(float_cols)
    kind = data.draw(st.sampled_from(kinds))
    k = data.draw(st.integers(0, len(line_nos) - 1))
    fields = lines[line_nos[k] - 1].split(",")
    int_col = data.draw(st.sampled_from(int_cols))
    if kind == "drop":
        fields.pop(data.draw(st.integers(0, n_fields - 1)))
    elif kind == "extra":
        fields.append("0.5")
    elif kind == "word":
        fields[data.draw(st.integers(0, n_fields - 1))] = "zebra"
    elif kind == "float_int":
        fields[int_col] = "1.5"
    elif kind == "huge_int":
        fields[int_col] = str(2**63)
    elif kind == "underscore_int":
        fields[int_col] = "1_000"
    elif kind == "whitespace":
        fields = ["  "]
    elif kind == "class":
        col, count = classes
        fields[col] = str(data.draw(st.sampled_from([-1, count, count + 5])))
    else:
        fields[data.draw(st.sampled_from(float_cols))] = kind
    lines[line_nos[k] - 1] = ",".join(fields)
    with pytest.raises(ParseError) as err:
        reader(_text(lines))
    assert err.value.line_no == line_nos[k]


def _table(*recs):
    """``USAGE_DTYPE`` rows from (machine, start_us, end_us, means, peaks) tuples."""
    return np.array(
        [(start, end, machine, (*means, *peaks)) for machine, start, end, means, peaks in recs],
        dtype=USAGE_DTYPE,
    )


def _rec(machine, start_s, end_s, means=None, peaks=None):
    means = means or [0.0] * 6
    peaks = peaks if peaks is not None else list(means)
    return (
        machine,
        start_s * SEC,
        end_s * SEC,
        tuple(means),
        tuple(max(m, p) for m, p in zip(means, peaks)),
    )


def _horizon(table):
    return -(-int(table["end_us"].max()) // INTERVAL_US) * INTERVAL_US


class TestAggregateIntervals:
    def test_single_record_covering_one_bin(self):
        rec = _rec(1, 900, 1200, means=[0.4, 0, 0, 0, 0, 0])
        s = aggregate_intervals(_table(rec), horizon_us=4 * INTERVAL_US)
        assert s.machine_ids.tolist() == [1]
        assert s.present.tolist() == [[False, False, False, True]]
        assert s.avg[0, 3, 0] == pytest.approx(0.4)
        assert not s.avg[0, :3].any()

    def test_two_half_bin_records_weighted_equally(self):
        recs = _table(
            _rec(1, 0, 150, means=[0.2, 0, 0, 0, 0, 0]),
            _rec(1, 150, 300, means=[0.6, 0, 0, 0, 0, 0]),
        )
        out = aggregate_intervals(recs, horizon_us=INTERVAL_US)
        assert out.avg[0, 0, 0] == pytest.approx(0.4, abs=1e-12)

    def test_spanning_record_peak_lands_in_both_bins(self):
        rec = (1, 1 * INTERVAL_US + 10, 3 * INTERVAL_US - 10, (0.0,) * 6, (0, 0, 0, 0.9, 0, 0))
        s = aggregate_intervals(_table(rec), horizon_us=3 * INTERVAL_US)
        assert s.peak[0, 1, 3] == 0.9
        assert s.peak[0, 2, 3] == 0.9
        assert not s.present[0, 0]

    def test_horizon_shorter_than_data_rejected(self):
        with pytest.raises(FailcastError):
            aggregate_intervals(_table(_rec(1, 0, 600)), horizon_us=INTERVAL_US)

    def test_avg_never_exceeds_peak(self):
        rng = np.random.default_rng(0)
        recs = []
        for _ in range(200):
            start = int(rng.integers(0, 50)) * SEC
            means = rng.random(6) * 0.8
            peaks = means + rng.random(6) * 0.2
            end = start + int(rng.integers(1, 2000)) * SEC
            recs.append((int(rng.integers(0, 3)), start, end, means, peaks))
        table = _table(*recs)
        s = aggregate_intervals(table, _horizon(table))
        assert np.all(s.avg <= s.peak + 1e-15)
        assert np.all(s.avg[~s.present] == 0.0)

    @given(st.permutations(list(range(8))))
    def test_order_independent_bit_identical(self, order):
        rng = np.random.default_rng(42)
        recs = []
        for _ in range(8):
            start = int(rng.integers(0, 1200)) * SEC
            means = rng.random(6) * 0.5
            end = start + int(rng.integers(1, 900)) * SEC
            recs.append((int(rng.integers(0, 2)), start, end, means, means + 0.1))
        table = _table(*recs)
        base = aggregate_intervals(table, _horizon(table))
        shuffled = aggregate_intervals(_table(*(recs[i] for i in order)), _horizon(table))
        for name in ("machine_ids", "avg", "peak", "present"):
            assert np.array_equal(getattr(base, name), getattr(shuffled, name))

    def test_presence_time_bounded_by_record_coverage(self):
        rng = np.random.default_rng(3)
        recs = []
        for _ in range(50):
            start = int(rng.integers(0, 3000)) * SEC
            recs.append(_rec(int(rng.integers(0, 4)), start // SEC, start // SEC + int(rng.integers(1, 700))))
        table = _table(*recs)
        out = aggregate_intervals(table, _horizon(table))
        present_time = int(out.present.sum()) * INTERVAL_US
        covered = int((table["end_us"] - table["start_us"]).sum())
        assert present_time <= covered + len(recs) * INTERVAL_US

    def test_empty_table_gives_no_series(self):
        s = aggregate_intervals(_table(), horizon_us=2 * INTERVAL_US)
        assert len(s) == 0
        assert s.avg.shape == s.peak.shape == (0, 2, 6)
        assert s.present.shape == (0, 2)

    @given(st.data())
    def test_matches_record_by_record_oracle(self, data):
        """Bit-identical to the per-record oracle for any row order.

        Rows come from parsed CSV text, so out-of-range values arrive
        clamped. Each row takes its (machine, start, length) from a few
        shared slots, so rows spanning bins, rows sharing a bin and rows
        tying on (machine, start, end) are common.
        """
        values = st.one_of(
            st.sampled_from([-0.5, 0.0, 0.25, 1.0, 1.5]),
            st.floats(-0.2, 1.2, allow_nan=False, allow_infinity=False),
        )
        slot = st.tuples(
            st.integers(0, 1),
            st.integers(0, 6).map(lambda k: k * 100 * SEC),
            st.sampled_from([1, 100, 300, 450, 700]).map(lambda s: s * SEC),
        )
        slots = data.draw(st.lists(slot, min_size=1, max_size=4))
        rows = data.draw(
            st.lists(
                st.tuples(st.sampled_from(slots), st.lists(values, min_size=12, max_size=12)),
                min_size=1,
                max_size=25,
            )
        )
        lines = [
            f"{start},{start + length},{m}," + ",".join(repr(v) for v in vals)
            for (m, start, length), vals in rows
        ]
        order = data.draw(st.permutations(range(len(lines))))
        table, _ = parse_usage_records(_text([USAGE_HEADER] + lines))
        shuffled, _ = parse_usage_records(_text([USAGE_HEADER] + [lines[i] for i in order]))
        horizon = _horizon(table) + data.draw(st.integers(0, 2)) * INTERVAL_US
        got = aggregate_intervals(shuffled, horizon)
        want = reference_aggregate(table, horizon, INTERVAL_US)
        assert got.machine_ids.tolist() == sorted(want)
        for i, m in enumerate(got.machine_ids.tolist()):
            avg, peak, present = want[m]
            assert got.avg[i].tobytes() == avg.tobytes()
            assert got.peak[i].tobytes() == peak.tobytes()
            assert got.present[i].tobytes() == present.tobytes()


class TestWriteRows:
    #: values a float column must write exactly as ``repr`` writes them
    FLOATS = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, float("inf"), -float("inf"), 1e-7, 3e5]
    INTS = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1]

    @given(
        st.sampled_from([0, 1, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS, WRITE_BLOCK_ROWS + 1])
        | st.integers(0, 5),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_row_by_row_oracle(self, n, k, seed):
        rng = np.random.default_rng(seed)
        ints = np.where(
            rng.random(n) < 0.3, rng.choice(self.INTS, n), rng.integers(-(10**12), 10**12, n)
        ).astype(np.int64)
        floats = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-300, 300, (n, k))
        special = rng.random((n, k)) < 0.3
        floats[special] = rng.choice(self.FLOATS, int(special.sum()))
        # a string column as the writers build one: blank, or an integer's decimal form
        text = np.where(rng.random(n) < 0.5, "", ints.astype(str))
        row_format = "%d," + ",".join(["%r"] * k) + ",%s,%.6f\n"
        columns = (ints, floats, text, floats[:, 0])

        class Out(io.StringIO):
            writes = 0

            def write(self, s):
                self.writes += 1
                return super().write(s)

        out = Out()
        write_rows(out, row_format, *columns)
        assert out.getvalue() == reference_write_rows(row_format, *columns)
        assert out.writes == -(-n // WRITE_BLOCK_ROWS)  # one write per block

    def test_no_rows_format_as_no_text(self):
        assert format_rows("%d,%r,%s\n", np.empty(0, np.int64), np.empty((0, 3)),
                            np.empty(0, object)) == ""


class TestWriteUsageRows:
    ROW_FORMAT = "%d,%d,%d," + ",".join(["%.6f"] * 12) + "\n"
    #: the values in [0, 1] whose millionths end in an exact half: (2i + 1) / 128
    TIES = [(2 * i + 1) / 128 for i in range(64)]
    #: values the numpy spelling leaves to ``%``, and the ends of its range
    OTHERS = [0.0, 1.0, -0.0, -1e-9, 2.5, 10.0, 1e300, 5e-324, np.nan, np.inf, -np.inf,
              float(np.nextafter(1.0, 2.0)), 0.9999995, 0.9999994999999999, 4.999999e-7]

    def _check(self, values, seed=0):
        rng = np.random.default_rng(seed)
        n = len(values)
        starts = rng.integers(0, 10**15, n)
        columns = (starts, starts + INTERVAL_US, rng.integers(0, 2**40, n), values)
        out = io.StringIO()
        write_usage_rows(out, *columns)
        assert out.getvalue() == reference_write_rows(self.ROW_FORMAT, *columns)

    def test_exact_ties_round_half_even_like_percent(self):
        self._check(np.resize(self.TIES + self.OTHERS, (7, 12)))

    @given(
        st.sampled_from([0, 1, TEXT_BLOCK_ROWS, TEXT_BLOCK_ROWS + 1]) | st.integers(0, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_row_by_row_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.random((n, 12))
        # values a few float64 steps from a millionths tie, where rounding in float64 could slip
        near = rng.random((n, 12)) < 0.3
        ties = (rng.integers(0, 10**6, (n, 12)) + 0.5) / 1e6
        ties += rng.integers(-4, 5, (n, 12)) * np.spacing(ties)
        values[near] = ties[near]
        special = rng.random((n, 12)) < 0.02
        values[special] = rng.choice(self.TIES + self.OTHERS, int(special.sum()))
        self._check(values, seed)
