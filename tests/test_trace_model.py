import pytest

from failcast.trace_model import (
    FailureEvent,
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


def test_failure_event_duration_is_derived():
    f = FailureEvent(
        machine_id=3,
        remove_us=1_000_000,
        add_us=61_000_000,
        ftype=FailureType.IMMEDIATE_REBOOT,
    )
    assert f.duration_us == 60_000_000


def test_failure_event_permanent_iff_no_add_time():
    f = FailureEvent(
        machine_id=3,
        remove_us=10,
        add_us=None,
        ftype=FailureType.FORCIBLE_DECOMMISSION,
    )
    assert f.duration_us is None
    with pytest.raises(ValueError):
        FailureEvent(
            machine_id=3,
            remove_us=10,
            add_us=20,
            ftype=FailureType.FORCIBLE_DECOMMISSION,
        )
    with pytest.raises(ValueError):
        FailureEvent(
            machine_id=3, remove_us=10, add_us=None, ftype=FailureType.SLOW_REBOOT
        )


def test_failure_event_rejects_normal_type():
    with pytest.raises(ValueError):
        FailureEvent(machine_id=3, remove_us=10, add_us=20, ftype=FailureType.NORMAL)


def test_failure_event_rejects_add_before_remove():
    with pytest.raises(ValueError):
        FailureEvent(
            machine_id=3, remove_us=100, add_us=50, ftype=FailureType.IMMEDIATE_REBOOT
        )
