import io

import numpy as np
from hypothesis import given, strategies as st

from failcast.ingestion import MACHINE_EVENTS_HEADER, parse_machine_events
from failcast.labeling import pair_failures
from failcast.trace_model import (
    MICROS_PER_MINUTE as MIN,
    FailureType,
    MachineEventKind,
    ResourceKind,
)


def test_resource_kind_has_exactly_six_stable_indices():
    assert len(ResourceKind) == 6
    assert sorted(int(r) for r in ResourceKind) == list(range(6))


def test_machine_event_kind_has_exactly_three_values():
    assert {int(k) for k in MachineEventKind} == {0, 1, 2}


def test_failure_type_round_trips_through_integer_labels():
    for ft in FailureType:
        assert FailureType(int(ft)) is ft
    assert int(FailureType.NORMAL) == 0
    assert int(FailureType.IMMEDIATE_REBOOT) == 1
    assert int(FailureType.SLOW_REBOOT) == 2
    assert int(FailureType.FORCIBLE_DECOMMISSION) == 3


def _failures(rows):
    """The paired failures of (machine, minute, event code) rows."""
    body = "".join(f"{minute * MIN},{m},{code}\n" for m, minute, code in rows)
    table = parse_machine_events(io.StringIO(MACHINE_EVENTS_HEADER + "\n" + body))
    return pair_failures(table)[0]


EVENT_ROWS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 200), st.integers(0, 2)), max_size=50
)


def test_failure_event_duration_is_derived():
    (f,) = _failures([(3, 1, 1), (3, 2, 0)])
    assert f["add_us"] - f["remove_us"] == 60_000_000
    assert f["type"] == FailureType.IMMEDIATE_REBOOT


@given(EVENT_ROWS)
def test_failure_event_permanent_iff_no_add_time(rows):
    failures = _failures(rows)
    permanent = failures["type"] == FailureType.FORCIBLE_DECOMMISSION
    assert np.array_equal(permanent, failures["add_us"] == -1)


@given(EVENT_ROWS)
def test_failure_event_rejects_normal_type(rows):
    assert np.all(_failures(rows)["type"] != FailureType.NORMAL)


@given(EVENT_ROWS)
def test_failure_event_rejects_add_before_remove(rows):
    failures = _failures(rows)
    back = failures["add_us"] >= 0
    assert np.all(failures["add_us"][back] >= failures["remove_us"][back])

