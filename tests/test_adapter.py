import io

import pytest
from hypothesis import given, strategies as st

from failcast.adapter import AdaptStats, convert_machine_events, convert_task_usage
from failcast.errors import ParseError
from oracles import reference_convert_machine_events, reference_convert_task_usage

SEC = 1_000_000
MACHINES = ["5", "17", str(2**31 + 7), str(2**40 + 3)]


def _outcome(convert, lines):
    """(output text, stats) of ``convert`` over ``lines``, or the line number it rejects."""
    out, stats = io.StringIO(), AdaptStats()
    try:
        convert(io.StringIO("".join(line + "\n" for line in lines)), out, stats)
    except ParseError as exc:
        return exc.line_no
    return out.getvalue(), stats


def _task_row(data, fields):
    """A 17 to 20 column task_usage row; ``fields`` draws each usage field."""
    start = data.draw(st.integers(-1, 8)) * 100 * SEC
    length = data.draw(st.sampled_from([-100, 0, 1, 100, 300, 450, 700, 1500])) * SEC
    cols = [str(start), str(start + length), "42", "0", data.draw(st.sampled_from(MACHINES))]
    cols += [data.draw(fields) for _ in range(5, data.draw(st.integers(17, 20)))]
    return cols


def _event_row(data, fields):
    cols = [data.draw(fields[k]) for k in range(3)]
    return cols + ["platform-hash", "0.5", ""][: data.draw(st.integers(0, 3))]


USAGE_FIELDS = st.one_of(
    st.sampled_from(["", "0", "0.5", "0.75", "1", "0.999999", "1e-7"]),
    st.floats(0.0, 1.0).map(repr),
)
EVENT_FIELDS = [
    st.sampled_from(["", "0", "50", "-5", str(300 * SEC), str(7 * 86_400 * SEC)]),
    st.sampled_from(["", *MACHINES]),
    st.sampled_from(["", "0", "1", "2", "3", "-1"]),
]


class TestTaskUsage:
    @given(st.data())
    def test_matches_line_by_line_oracle(self, data):
        """Byte-identical text and equal stats on tables with every kind of row.

        Blank usage fields, rows with start >= end, rows spanning several
        bins, co-resident tasks whose sums need clamping, blank lines and
        machine ids above 2**31 all occur.
        """
        lines = [
            "" if data.draw(st.integers(0, 9)) == 0 else ",".join(_task_row(data, USAGE_FIELDS))
            for _ in range(data.draw(st.integers(0, 30)))
        ]
        got = _outcome(convert_task_usage, lines)
        assert got == _outcome(reference_convert_task_usage, lines)
        assert not isinstance(got, int)

    @given(st.data())
    def test_malformed_line_has_the_oracles_line_number(self, data):
        lines = [",".join(_task_row(data, USAGE_FIELDS)) for _ in range(data.draw(st.integers(1, 12)))]
        bad = _task_row(data, USAGE_FIELDS)
        kind = data.draw(st.sampled_from(["few_fields", "id", "start", "usage"]))
        if kind == "few_fields":
            bad = bad[: data.draw(st.integers(1, 16))]
        else:
            bad[{"id": 4, "start": 0, "usage": 13}[kind]] = data.draw(st.sampled_from(["x", "1.5e"]))
        lines.insert(data.draw(st.integers(0, len(lines))), ",".join(bad))
        got = _outcome(convert_task_usage, lines)
        assert isinstance(got, int)
        assert got == _outcome(reference_convert_task_usage, lines)


class TestMachineEvents:
    @given(st.data())
    def test_matches_line_by_line_oracle(self, data):
        """Byte-identical text and equal stats; blank fields and unknown codes are skipped."""
        lines = [
            "" if data.draw(st.integers(0, 9)) == 0 else ",".join(_event_row(data, EVENT_FIELDS))
            for _ in range(data.draw(st.integers(0, 30)))
        ]
        got = _outcome(convert_machine_events, lines)
        assert got == _outcome(reference_convert_machine_events, lines)
        assert not isinstance(got, int)

    @given(st.data())
    def test_malformed_line_has_the_oracles_line_number(self, data):
        """Too few fields, or a non-integer among three filled-in fields, names its line.

        A non-integer field in a row that also has a blank one is skipped,
        as the blank is seen first.
        """
        fields = [st.one_of(f, st.just("x")) for f in EVENT_FIELDS]
        lines = [",".join(_event_row(data, fields)) for _ in range(data.draw(st.integers(1, 12)))]
        bad = [f or "0" for f in _event_row(data, EVENT_FIELDS)[:3]]
        if data.draw(st.booleans()):
            bad = bad[: data.draw(st.integers(1, 2))]
        else:
            bad[data.draw(st.integers(0, 2))] = data.draw(st.sampled_from(["x", "1.5", "2**3"]))
        lines.insert(data.draw(st.integers(0, len(lines))), ",".join(bad))
        got = _outcome(convert_machine_events, lines)
        assert isinstance(got, int)
        assert got == _outcome(reference_convert_machine_events, lines)

    @pytest.mark.parametrize("line", ["x,,1", ",x,1", "x,5,"])
    def test_blank_field_wins_over_a_non_integer_one(self, line):
        out, stats = _outcome(convert_machine_events, ["0,5,0", line])
        assert out == "time_us,machine_id,event\n0,5,0\n"
        assert (stats.events_converted, stats.events_skipped) == (1, 1)
