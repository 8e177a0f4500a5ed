import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from failcast.ingestion import IntervalSeries
from failcast.labeling import (
    LabelingConfig,
    build_label_tracks,
    categorize,
    detect_degenerate_machines,
    pair_failures,
    write_failures_csv,
)
from failcast.trace_model import (
    INTERVAL_US,
    FailureType,
    MachineEvent,
    MachineEventKind,
)
from oracles import read_failures_csv

SEC = 1_000_000
MIN = 60 * SEC
CFG = LabelingConfig(trace_end_us=100 * INTERVAL_US)

ADD = MachineEventKind.ADD
REMOVE = MachineEventKind.REMOVE
UPDATE = MachineEventKind.UPDATE


def ev(machine, t_us, kind):
    return MachineEvent(machine_id=machine, time_us=t_us, kind=kind)


class TestCategorize:
    def test_sixteen_minutes_is_immediate_reboot(self):
        assert categorize(16 * MIN, CFG) == FailureType.IMMEDIATE_REBOOT

    def test_two_hours_is_slow_reboot(self):
        assert categorize(120 * MIN, CFG) == FailureType.SLOW_REBOOT

    def test_never_back_is_forcible_decommission(self):
        assert categorize(None, CFG) == FailureType.FORCIBLE_DECOMMISSION

    def test_exactly_thirty_minutes_is_slow_reboot(self):
        assert categorize(30 * MIN, CFG) == FailureType.SLOW_REBOOT
        assert categorize(30 * MIN - 1, CFG) == FailureType.IMMEDIATE_REBOOT

    @given(st.one_of(st.none(), st.integers(min_value=0, max_value=10**12)))
    def test_total_and_deterministic(self, duration):
        first = categorize(duration, CFG)
        assert first == categorize(duration, CFG)
        assert first in (
            FailureType.IMMEDIATE_REBOOT,
            FailureType.SLOW_REBOOT,
            FailureType.FORCIBLE_DECOMMISSION,
        )


class TestPairFailures:
    def test_remove_then_add_pairs_with_duration(self):
        result = pair_failures(
            [ev(1, 1000 * SEC, REMOVE), ev(1, 1960 * SEC, ADD)], CFG
        )
        assert result.dropped_removes == 0
        (f,) = result.failures
        assert f.duration_us == 960 * SEC  # 16 minutes
        assert f.ftype == FailureType.IMMEDIATE_REBOOT

    def test_remove_without_add_is_permanent(self):
        (f,) = pair_failures([ev(1, 1000 * SEC, REMOVE)], CFG).failures
        assert f.add_us is None
        assert f.ftype == FailureType.FORCIBLE_DECOMMISSION

    def test_add_only_stream_yields_nothing(self):
        assert pair_failures([ev(1, 5, ADD), ev(1, 9, ADD)], CFG).failures == []

    def test_second_consecutive_remove_dropped_and_counted(self):
        result = pair_failures(
            [
                ev(1, 10 * SEC, REMOVE),
                ev(1, 20 * SEC, REMOVE),
                ev(1, 30 * SEC, ADD),
            ],
            CFG,
        )
        assert result.dropped_removes == 1
        (f,) = result.failures
        assert f.remove_us == 10 * SEC
        assert f.duration_us == 20 * SEC

    def test_update_events_ignored(self):
        result = pair_failures(
            [
                ev(1, 10 * SEC, REMOVE),
                ev(1, 15 * SEC, UPDATE),
                ev(1, 30 * SEC, ADD),
            ],
            CFG,
        )
        assert result.failures[0].duration_us == 20 * SEC

    def test_open_remove_closed_per_machine(self):
        result = pair_failures(
            [ev(1, 10 * SEC, REMOVE), ev(2, 5 * SEC, REMOVE), ev(2, 10 * SEC, ADD)],
            CFG,
        )
        by_machine = {f.machine_id: f for f in result.failures}
        assert by_machine[1].add_us is None
        assert by_machine[2].duration_us == 5 * SEC

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.sampled_from([ADD, REMOVE, UPDATE]),
            ),
            max_size=60,
        )
    )
    def test_count_identity(self, raw):
        # events per machine, times strictly increasing in list order
        events = sorted(
            (ev(m, i * SEC, kind) for i, (m, kind) in enumerate(raw)),
            key=lambda e: (e.machine_id, e.time_us),
        )
        result = pair_failures(events, CFG)
        removes = sum(1 for e in events if e.kind == REMOVE)
        assert len(result.failures) + result.dropped_removes == removes
        for f in result.failures:
            assert f.ftype != FailureType.NORMAL


def _series(machine_id, avg):
    """A one-machine IntervalSeries, present everywhere, with peak equal to avg."""
    avg = np.asarray(avg, dtype=float)[None]
    present = np.ones(avg.shape[:2], dtype=bool)
    return IntervalSeries(np.array([machine_id], dtype=np.int64), avg, avg, present)


def _zero_series(machine_id, n=20):
    return _series(machine_id, np.zeros((n, 6)))


def _failures(machine_id, count):
    return pair_failures(
        [
            e
            for i in range(count)
            for e in (
                ev(machine_id, (7 + 2 * i) * INTERVAL_US, REMOVE),
                ev(machine_id, (7 + 2 * i) * INTERVAL_US + 2 * MIN, ADD),
            )
        ],
        CFG,
    ).failures


class TestDetectDegenerate:
    def test_all_zero_high_failure_machine_excluded(self):
        series = _zero_series(9, 400)
        flagged = detect_degenerate_machines(series, _failures(9, 165), CFG)
        assert flagged == {9}

    def test_nonzero_usage_retains_machine(self):
        avg = np.zeros((400, 6))
        avg[3, 0] = 0.2
        series = _series(9, avg)
        assert detect_degenerate_machines(series, _failures(9, 165), CFG) == set()

    def test_low_failure_count_retains_machine(self):
        series = _zero_series(9)
        assert detect_degenerate_machines(series, _failures(9, 2), CFG) == set()

    def test_exactly_threshold_not_excluded(self):
        series = _zero_series(9, 300)
        assert detect_degenerate_machines(series, _failures(9, 100), CFG) == set()


class TestBuildLabelTracks:
    def test_label_lands_on_remove_interval_and_flags_follow(self):
        # remove 16 min in (interval 3), add 10 min later (26 min, interval 5)
        failures = pair_failures(
            [ev(1, 16 * MIN, REMOVE), ev(1, 26 * MIN, ADD)], CFG
        ).failures
        series = _zero_series(1, 10)
        tracks = build_label_tracks(failures, series, CFG)
        assert tracks.y[0, 3] == int(FailureType.IMMEDIATE_REBOOT)
        assert tracks.downtime[0].tolist() == [False] * 4 + [True] + [False] * 5

    def test_no_failures_all_normal(self):
        series = _zero_series(1, 10)
        tracks = build_label_tracks([], series, CFG)
        assert not tracks.y.any()
        assert not tracks.downtime.any()

    def test_permanent_failure_flags_rest_of_trace(self):
        failures = pair_failures([ev(1, 10 * INTERVAL_US + 7, REMOVE)], CFG).failures
        series = _zero_series(1, 20)
        tracks = build_label_tracks(failures, series, CFG)
        assert tracks.y[0, 10] == int(FailureType.FORCIBLE_DECOMMISSION)
        assert tracks.downtime[0, :11].sum() == 0
        assert tracks.downtime[0, 11:].all()

    def test_partial_trailing_interval_not_flagged(self):
        # add at 26 min: interval 5 spans 25..30 min, not fully inside downtime
        failures = pair_failures(
            [ev(1, 16 * MIN, REMOVE), ev(1, 26 * MIN, ADD)], CFG
        ).failures
        series = _zero_series(1, 10)
        tracks = build_label_tracks(failures, series, CFG)
        assert not tracks.downtime[0, 5]

    def test_no_interval_is_both_normal_and_labeled(self):
        failures = pair_failures(
            [ev(1, 16 * MIN, REMOVE), ev(1, 120 * MIN, ADD)], CFG
        ).failures
        series = _zero_series(1, 40)
        tracks = build_label_tracks(failures, series, CFG)
        labeled = np.nonzero(tracks.y[0])[0]
        assert len(labeled) == 1
        assert not tracks.downtime[0, labeled[0]]


def test_rows_follow_machine_ids_in_a_fleet():
    # machine 5 fails often but has no series; machine 9 is row 1 of the fleet
    avg = np.zeros((2, 40, 6))
    avg[0, :, 0] = 0.3
    series = IntervalSeries(
        np.array([3, 9], dtype=np.int64), avg, avg, np.ones((2, 40), dtype=bool)
    )
    failures = _failures(5, 101) + _failures(9, 1)
    assert detect_degenerate_machines(series, failures, CFG) == {5}
    tracks = build_label_tracks(failures, series, CFG)
    assert tracks.machine_ids.tolist() == [3, 9]
    assert not tracks.y[0].any() and not tracks.downtime.any()
    assert np.nonzero(tracks.y[1])[0].tolist() == [7]


def test_failures_csv_round_trip():
    failures = pair_failures(
        [
            ev(1, 16 * MIN, REMOVE),
            ev(1, 26 * MIN, ADD),
            ev(2, 40 * MIN, REMOVE),
        ],
        CFG,
    ).failures
    buf = io.StringIO()
    write_failures_csv(failures, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "machine_id,remove_us,add_us,duration_us,type"
    assert text.splitlines()[2].endswith(",,,3")  # permanent: empty add/duration
    assert read_failures_csv(io.StringIO(text)) == failures
