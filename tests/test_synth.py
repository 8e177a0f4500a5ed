import numpy as np
import pytest

from failcast import features, ingestion, labeling, synth
from failcast.errors import ConfigError
from failcast.synth import DEGENERATE_MACHINES, SynthConfig, _draw_duration, generate
from failcast.trace_model import INTERVAL_US, LAGS, FailureType

from oracles import build_instance, reference_write_usage

SMALL = SynthConfig(machines=60, horizon_days=2.0, rng_seed=5)


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    paths = generate(SMALL, out)
    return paths


@pytest.fixture(scope="module")
def ingested(small_trace):
    with open(small_trace.events) as f:
        events = ingestion.parse_machine_events(f)
    with open(small_trace.usage) as f:
        table, stats = ingestion.parse_usage_records(f)
    series = ingestion.aggregate_intervals(table, SMALL.horizon_us)
    return events, table, stats, series


def test_deterministic_byte_identical_output(tmp_path):
    cfg = SynthConfig(machines=20, horizon_days=1.0, rng_seed=9)
    a = generate(cfg, tmp_path / "a")
    b = generate(cfg, tmp_path / "b")
    for pa, pb in ((a.events, b.events), (a.usage, b.usage), (a.truth, b.truth)):
        assert pa.read_bytes() == pb.read_bytes()


def test_usage_file_is_the_savetxt_writers(tmp_path, monkeypatch):
    written = {}
    write = synth._write_usage

    def keep(path, avg, peak, down, T):
        written.update(avg=avg, peak=peak, down=down, T=T)
        write(path, avg, peak, down, T)

    monkeypatch.setattr(synth, "_write_usage", keep)
    paths = generate(SMALL, tmp_path / "trace")
    assert len(written["down"]) - len(written["avg"]) == DEGENERATE_MACHINES
    assert written["down"][: len(written["avg"])].any()  # regular machines with downtime
    reference_write_usage(tmp_path / "reference.csv", **written)
    assert paths.usage.read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_different_seed_changes_output(tmp_path):
    a = generate(SynthConfig(machines=20, horizon_days=1.0, rng_seed=1), tmp_path / "a")
    b = generate(SynthConfig(machines=20, horizon_days=1.0, rng_seed=2), tmp_path / "b")
    assert a.usage.read_bytes() != b.usage.read_bytes()


def test_round_trip_through_ingestion_without_clamps(ingested):
    events, table, stats, series = ingested
    assert stats.values_clamped == 0
    assert stats.rows_affected == 0
    assert len(table) == int(series.present.sum())
    assert len(series) == SMALL.machines
    assert len(events) > 0


def test_degenerate_machines_detected_and_excluded(ingested):
    events, _, _, series = ingested
    failures, _ = labeling.pair_failures(events)
    excluded = labeling.detect_degenerate_machines(series, failures)
    assert len(excluded) == DEGENERATE_MACHINES
    assert excluded.tolist() == [58, 59]  # the last machine ids


def test_truth_labels_match_labeling_pipeline(small_trace, ingested):
    events, _, _, series = ingested
    failures, _ = labeling.pair_failures(events)
    tracks = labeling.build_label_tracks(failures, series)

    truth = {}
    for i, line in enumerate(small_trace.truth.read_text().splitlines()):
        if i == 0 or not line:
            continue
        m, tau, y = (int(v) for v in line.split(","))
        truth[(m, tau)] = y
    assert truth, "truth file must list failures"
    labeled = {
        (int(tracks.machine_ids[row]), int(tau)): int(tracks.y[row, tau])
        for row, tau in zip(*np.nonzero(tracks.y))
    }
    assert labeled == truth


def test_failure_duration_mixture_has_expected_modes():
    rng = np.random.default_rng(0)
    durations = []
    for _ in range(4000):
        d = _draw_duration(rng, allow_fd=True)
        if d is not None:
            durations.append(d / 60e6)  # minutes
    durations = np.array(durations)
    short = durations[durations < 30]
    long = durations[durations >= 30]
    # histogram mode of each component, in log space
    def mode_of(vals):
        hist, edges = np.histogram(np.log(vals), bins=40)
        k = int(np.argmax(hist))
        return float(np.exp(0.5 * (edges[k] + edges[k + 1])))

    assert 16 * 0.75 <= mode_of(short) <= 16 * 1.25
    assert 120 * 0.75 <= mode_of(long) <= 120 * 1.25


def test_fd_mass_present_over_many_draws():
    rng = np.random.default_rng(1)
    n_fd = sum(
        1 for _ in range(4000) if _draw_duration(rng, allow_fd=True) is None
    )
    assert 0 < n_fd < 4000 * 0.05  # rare but real, matching the weights


def test_pacf_significant_lags_concentrate_in_window(ingested):
    _, _, _, series = ingested
    table = features.pacf_by_machine(series.select(series.machine_ids < 58))
    counts = features.significant_lag_counts(table)
    total = int(counts.sum())
    within = int(counts[:LAGS].sum())
    assert total > 0
    assert within / total >= 0.8


def test_failures_leave_clean_feature_windows(ingested):
    events, _, _, series = ingested
    failures, _ = labeling.pair_failures(events)
    kept = series.select(series.machine_ids < 58)
    failures = failures[failures["machine_id"] < 58]
    tracks = labeling.build_label_tracks(failures, kept)
    built = missing = 0
    for m, remove_us in zip(failures["machine_id"].tolist(), failures["remove_us"].tolist()):
        tau = remove_us // INTERVAL_US
        row = int(np.searchsorted(kept.machine_ids, m))
        window = build_instance(kept, tracks, row, tau)
        if window is None:
            missing += 1
        else:
            built += 1
            assert window[0] != FailureType.NORMAL
    assert built > 0
    assert missing == 0


def test_infeasible_horizon_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot host any failure"):
        generate(SynthConfig(machines=5, horizon_days=0.01), tmp_path)
    with pytest.raises(ConfigError, match="horizon too short"):
        # degenerate failure schedule cannot fit in half a day
        generate(
            SynthConfig(machines=5, horizon_days=0.5),
            tmp_path,
        )


def test_degenerate_parameter_validation(tmp_path):
    with pytest.raises(ConfigError, match="degenerate machines must be fewer"):
        generate(SynthConfig(machines=DEGENERATE_MACHINES), tmp_path)
    with pytest.raises(ValueError):
        SynthConfig(signature_strength=1.5)
    for bad in (dict(horizon_days=float("nan")),
                dict(horizon_days=float("inf")), dict(max_failures=0),
                dict(failing_fraction=1.5), dict(failing_fraction=-0.5)):
        with pytest.raises(ConfigError):
            SynthConfig(**bad)
    # the failure draw's extremes stay valid: every machine failing, and once at most
    SynthConfig(failing_fraction=1.0, max_failures=1)
    SynthConfig(failing_fraction=0.0)
