import io

import numpy as np
from hypothesis import given, strategies as st

from failcast.ingestion import MACHINE_EVENTS_HEADER, IntervalSeries, parse_machine_events
from failcast.labeling import (
    build_label_tracks,
    detect_degenerate_machines,
    pair_failures,
    write_failures_csv,
)
from failcast.trace_model import (
    FAILURE_DTYPE,
    INTERVAL_US,
    FailureType,
    MachineEventKind,
    failure_types,
)
from oracles import read_failures_csv, reference_label_tracks, reference_pair_failures

SEC = 1_000_000
MIN = 60 * SEC

ADD = MachineEventKind.ADD
REMOVE = MachineEventKind.REMOVE
UPDATE = MachineEventKind.UPDATE


def ev(machine, t_us, kind):
    return machine, t_us, kind


def events(*rows):
    """The parsed event table of (machine, time_us, kind) rows, in any order."""
    body = "".join(f"{t},{m},{int(kind)}\n" for m, t, kind in rows)
    return parse_machine_events(io.StringIO(MACHINE_EVENTS_HEADER + "\n" + body))


def pair(*rows):
    return pair_failures(events(*rows))


def categorize(duration_us):
    """The shared rule's class for one failure; None means never returned."""
    add = np.array([-1 if duration_us is None else duration_us])
    return FailureType(int(failure_types(np.zeros(1, np.int64), add)[0]))


#: random event tables: a few machines, repeated times, every event code
EVENT_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=40).map(lambda k: k * 5 * MIN),
        st.sampled_from([ADD, REMOVE, UPDATE]),
    ),
    max_size=60,
)


class TestCategorize:
    def test_sixteen_minutes_is_immediate_reboot(self):
        assert categorize(16 * MIN) == FailureType.IMMEDIATE_REBOOT

    def test_two_hours_is_slow_reboot(self):
        assert categorize(120 * MIN) == FailureType.SLOW_REBOOT

    def test_never_back_is_forcible_decommission(self):
        assert categorize(None) == FailureType.FORCIBLE_DECOMMISSION

    def test_exactly_thirty_minutes_is_slow_reboot(self):
        assert categorize(30 * MIN) == FailureType.SLOW_REBOOT
        assert categorize(30 * MIN - 1) == FailureType.IMMEDIATE_REBOOT

    @given(st.one_of(st.none(), st.integers(min_value=0, max_value=10**12)))
    def test_total_and_deterministic(self, duration):
        first = categorize(duration)
        assert first == categorize(duration)
        assert first in (
            FailureType.IMMEDIATE_REBOOT,
            FailureType.SLOW_REBOOT,
            FailureType.FORCIBLE_DECOMMISSION,
        )


class TestPairFailures:
    def test_remove_then_add_pairs_with_duration(self):
        failures, dropped = pair(ev(1, 1000 * SEC, REMOVE), ev(1, 1960 * SEC, ADD))
        assert dropped == 0
        (f,) = failures
        assert f["add_us"] - f["remove_us"] == 960 * SEC  # 16 minutes
        assert f["type"] == FailureType.IMMEDIATE_REBOOT

    def test_remove_without_add_is_permanent(self):
        (f,), _ = pair(ev(1, 1000 * SEC, REMOVE))
        assert f["add_us"] == -1
        assert f["type"] == FailureType.FORCIBLE_DECOMMISSION

    def test_add_only_stream_yields_nothing(self):
        failures, _ = pair(ev(1, 5, ADD), ev(1, 9, ADD))
        assert len(failures) == 0 and failures.dtype == FAILURE_DTYPE

    def test_second_consecutive_remove_dropped_and_counted(self):
        failures, dropped = pair(
            ev(1, 10 * SEC, REMOVE),
            ev(1, 20 * SEC, REMOVE),
            ev(1, 30 * SEC, ADD),
        )
        assert dropped == 1
        (f,) = failures
        assert f["remove_us"] == 10 * SEC
        assert f["add_us"] - f["remove_us"] == 20 * SEC

    def test_update_events_ignored(self):
        failures, _ = pair(
            ev(1, 10 * SEC, REMOVE),
            ev(1, 15 * SEC, UPDATE),
            ev(1, 30 * SEC, ADD),
        )
        assert failures[0]["add_us"] - failures[0]["remove_us"] == 20 * SEC

    def test_open_remove_closed_per_machine(self):
        failures, _ = pair(
            ev(1, 10 * SEC, REMOVE), ev(2, 5 * SEC, REMOVE), ev(2, 10 * SEC, ADD)
        )
        by_machine = {int(f["machine_id"]): f for f in failures}
        assert by_machine[1]["add_us"] == -1
        assert by_machine[2]["add_us"] - by_machine[2]["remove_us"] == 5 * SEC

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
        table = events(*(ev(m, i * SEC, kind) for i, (m, kind) in enumerate(raw)))
        failures, dropped = pair_failures(table)
        removes = int(np.count_nonzero(table["event"] == REMOVE))
        assert len(failures) + dropped == removes
        assert np.all(failures["type"] != FailureType.NORMAL)

    @given(EVENT_ROWS, st.randoms(use_true_random=False))
    def test_matches_event_walk_oracle(self, rows, random):
        random.shuffle(rows)
        table = events(*rows)
        failures, dropped = pair_failures(table)
        want, want_dropped = reference_pair_failures(table)
        assert dropped == want_dropped
        assert failures.dtype == FAILURE_DTYPE
        assert failures.tolist() == want.tolist()


def _series(machine_id, avg):
    """A one-machine IntervalSeries, present everywhere, with peak equal to avg."""
    avg = np.asarray(avg, dtype=float)[None]
    present = np.ones(avg.shape[:2], dtype=bool)
    return IntervalSeries(np.array([machine_id], dtype=np.int64), avg, avg, present)


def _zero_series(machine_id, n=20):
    return _series(machine_id, np.zeros((n, 6)))


def _failures(machine_id, count):
    return pair(
        *(
            e
            for i in range(count)
            for e in (
                ev(machine_id, (7 + 2 * i) * INTERVAL_US, REMOVE),
                ev(machine_id, (7 + 2 * i) * INTERVAL_US + 2 * MIN, ADD),
            )
        )
    )[0]


class TestDetectDegenerate:
    def test_all_zero_high_failure_machine_excluded(self):
        series = _zero_series(9, 400)
        flagged = detect_degenerate_machines(series, _failures(9, 165))
        assert flagged.dtype == np.int64 and flagged.tolist() == [9]

    def test_nonzero_usage_retains_machine(self):
        avg = np.zeros((400, 6))
        avg[3, 0] = 0.2
        series = _series(9, avg)
        assert detect_degenerate_machines(series, _failures(9, 165)).tolist() == []

    def test_low_failure_count_retains_machine(self):
        series = _zero_series(9)
        assert detect_degenerate_machines(series, _failures(9, 2)).tolist() == []

    def test_exactly_threshold_not_excluded(self):
        series = _zero_series(9, 300)
        assert detect_degenerate_machines(series, _failures(9, 100)).tolist() == []


class TestBuildLabelTracks:
    def test_label_lands_on_remove_interval_and_flags_follow(self):
        # remove 16 min in (interval 3), add 10 min later (26 min, interval 5)
        failures, _ = pair(ev(1, 16 * MIN, REMOVE), ev(1, 26 * MIN, ADD))
        series = _zero_series(1, 10)
        tracks = build_label_tracks(failures, series)
        assert tracks.y[0, 3] == int(FailureType.IMMEDIATE_REBOOT)
        assert tracks.downtime[0].tolist() == [False] * 4 + [True] + [False] * 5

    def test_no_failures_all_normal(self):
        series = _zero_series(1, 10)
        tracks = build_label_tracks(np.empty(0, FAILURE_DTYPE), series)
        assert not tracks.y.any()
        assert not tracks.downtime.any()

    def test_permanent_failure_flags_rest_of_trace(self):
        failures, _ = pair(ev(1, 10 * INTERVAL_US + 7, REMOVE))
        series = _zero_series(1, 20)
        tracks = build_label_tracks(failures, series)
        assert tracks.y[0, 10] == int(FailureType.FORCIBLE_DECOMMISSION)
        assert tracks.downtime[0, :11].sum() == 0
        assert tracks.downtime[0, 11:].all()

    def test_partial_trailing_interval_not_flagged(self):
        # add at 26 min: interval 5 spans 25..30 min, not fully inside downtime
        failures, _ = pair(ev(1, 16 * MIN, REMOVE), ev(1, 26 * MIN, ADD))
        series = _zero_series(1, 10)
        tracks = build_label_tracks(failures, series)
        assert not tracks.downtime[0, 5]

    def test_no_interval_is_both_normal_and_labeled(self):
        failures, _ = pair(ev(1, 16 * MIN, REMOVE), ev(1, 120 * MIN, ADD))
        series = _zero_series(1, 40)
        tracks = build_label_tracks(failures, series)
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
    failures = np.concatenate([_failures(5, 101), _failures(9, 1)])
    assert detect_degenerate_machines(series, failures).tolist() == [5]
    tracks = build_label_tracks(failures, series)
    assert tracks.machine_ids.tolist() == [3, 9]
    assert not tracks.y[0].any() and not tracks.downtime.any()
    assert np.nonzero(tracks.y[1])[0].tolist() == [7]


def test_failures_csv_round_trip():
    failures, _ = pair(
        ev(1, 16 * MIN, REMOVE),
        ev(1, 26 * MIN, ADD),
        ev(2, 40 * MIN, REMOVE),
    )
    buf = io.StringIO()
    write_failures_csv(failures, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "machine_id,remove_us,add_us,duration_us,type"
    assert text.splitlines()[2].endswith(",,,3")  # permanent: empty add/duration
    assert read_failures_csv(io.StringIO(text)).tolist() == failures.tolist()


#: failures of machines 0..3 in a 12-interval fleet of machines 1 and 3, on
#: whole minutes: removes may share an interval, adds may fall on an
#: interval boundary or past the trace end
FAILURE_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=14 * 5).map(lambda k: k * MIN),
        st.one_of(st.just(None), st.integers(min_value=0, max_value=6 * 5).map(lambda k: k * MIN)),
        st.sampled_from([1, 2, 3]),
    ),
    max_size=30,
)


@given(FAILURE_ROWS)
def test_label_tracks_match_failure_walk_oracle(rows):
    failures = np.array(
        [(m, r, -1 if d is None else r + d, t) for m, r, d, t in rows], dtype=FAILURE_DTYPE
    )
    # two failures of machine 3 in interval 4: the later remove's type wins
    failures = np.concatenate(
        [
            failures,
            np.array(
                [(3, 4 * INTERVAL_US + 3 * MIN, 5 * INTERVAL_US, 2),
                 (3, 4 * INTERVAL_US + MIN, 4 * INTERVAL_US + 2 * MIN, 1)],
                dtype=FAILURE_DTYPE,
            ),
        ]
    )
    avg = np.zeros((2, 12, 6))
    series = IntervalSeries(
        np.array([1, 3], dtype=np.int64), avg, avg, np.ones((2, 12), dtype=bool)
    )
    tracks = build_label_tracks(failures, series)
    want = reference_label_tracks(failures, series, INTERVAL_US)
    assert np.array_equal(tracks.machine_ids, want.machine_ids)
    assert np.array_equal(tracks.y, want.y)
    assert np.array_equal(tracks.downtime, want.downtime)
