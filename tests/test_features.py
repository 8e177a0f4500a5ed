import io
import json
import logging

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from failcast.errors import (
    ConfigError,
    FailcastError,
    ParseError,
)
from failcast.features import (
    Dataset,
    DatasetConfig,
    MIN_PACF_RUN,
    PACF_MAX_LAG,
    _longest_present_runs,
    build_dataset,
    describe,
    layout_json,
    pacf,
    pacf_by_machine,
    read_dataset_csv,
    read_ids_csv,
    significant_lag_counts,
    write_dataset_csv,
    write_ids_csv,
)
from failcast.ingestion import IntervalSeries
from failcast.labeling import LabelTracks
from failcast.trace_model import LAGS, N_FEATURES, FailureType, ResourceKind

from oracles import (
    build_instance,
    feature_index,
    ols_last_coefficient,
    reference_longest_present_run,
    reference_pacf_by_machine,
    reference_significant_lag_histogram,
    reference_stratified_split,
    reference_write_rows,
)


def ar1(n, phi, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal() * scale
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.standard_normal() * scale
    return x


class TestPacf:
    def test_ar1_matches_ols_oracle_and_recovers_coefficient(self):
        x = ar1(10_000, 0.7, seed=5)
        vals = pacf(x, 10)
        band = 1.96 / np.sqrt(len(x))
        assert vals[0] == pytest.approx(0.7, abs=0.05)
        assert np.all(np.abs(vals[1:]) < band * 2.5)  # statistically small
        for k in range(1, 11):
            assert abs(vals[k - 1] - ols_last_coefficient(x, k)) <= 1e-8

    def test_white_noise_mostly_insignificant(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal(10_000)
        vals = pacf(x, 10)
        band = 1.96 / np.sqrt(len(x))
        assert np.all(np.abs(vals) < band)

    def test_deterministic_ramp_lag_one(self):
        x = np.arange(100, dtype=float)
        vals = pacf(x, 1)
        assert vals[0] == pytest.approx(1.0, abs=1e-9)
        assert abs(vals[0] - ols_last_coefficient(x, 1)) <= 1e-8

    def test_constant_series_rejected(self):
        with pytest.raises(FailcastError, match="^series is constant$"):
            pacf(np.full(100, 0.3), 5)

    def test_short_series_rejected(self):
        with pytest.raises(ConfigError, match="^series length 6 supports at most 4 lags"):
            pacf(np.arange(6.0), 5)

    def test_oracle_agreement_on_random_lengths(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(50, 2000))
            x = ar1(n, float(rng.uniform(-0.8, 0.8)), seed=int(rng.integers(1e6)))
            max_lag = int(rng.integers(1, 10))
            vals = pacf(x, max_lag)
            for k in range(1, max_lag + 1):
                assert abs(vals[k - 1] - ols_last_coefficient(x, k)) <= 1e-8


class TestSignificantLagHistogram:
    def _table(self, pacf_values, n_effective, max_lag=None):
        """The two fields of a pacf_by_machine table that the counts read."""
        max_lag = max_lag or len(pacf_values[0])
        table = np.zeros(
            len(pacf_values), dtype=[("n_effective", np.int64), ("pacf", float, (max_lag,))]
        )
        table["pacf"] = np.reshape(pacf_values, (-1, max_lag))
        table["n_effective"] = n_effective
        return table

    def test_threshold_forces_membership(self):
        table = self._table([[0.5, 0.01]], n_effective=9604)  # band ~0.02
        assert significant_lag_counts(table).tolist() == [1, 0]

    def test_empty_input(self):
        assert significant_lag_counts(self._table([], 1, max_lag=3)).tolist() == [0, 0, 0]

    def test_counts_are_additive(self):
        table = self._table([[0.0, 0.0, 0.4], [0.0, 0.0, 0.3]], 10_000)
        assert significant_lag_counts(table).tolist() == [0, 0, 2]


def _gappy_fleet(rng, machines, T):
    """An IntervalSeries with random gaps, equal-length runs and constant resources."""
    present = rng.random((machines, T)) < rng.uniform(0.6, 1.0, (machines, 1))
    if machines > 1:
        present[0] = False
        present[0, 5:25] = present[0, 30:50] = True  # two longest runs of 20
        present[-1] = True
    avg = rng.random((machines, T, 6))
    avg[:, :, rng.integers(0, 6)] = 0.25
    avg[rng.random((machines, T)) < 0.1, 1] = 0.0  # ties inside a series
    ids = np.sort(rng.choice(10_000, machines, replace=False)).astype(np.int64)
    return IntervalSeries(ids, avg, avg + 0.1, present)


class TestPacfTable:
    def test_every_kept_run_fits_every_lag(self):
        """``pacf`` needs PACF_MAX_LAG + 2 points, and the table fits runs of MIN_PACF_RUN."""
        assert MIN_PACF_RUN >= PACF_MAX_LAG + 2

    def test_longest_runs_match_the_walk(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            M, T = int(rng.integers(1, 6)), int(rng.integers(0, 40))
            present = rng.random((M, T)) < rng.uniform(0.0, 1.0)
            start, length = _longest_present_runs(present)
            walked = [reference_longest_present_run(row) for row in present]
            assert list(zip(start.tolist(), length.tolist())) == walked

    def test_table_and_counts_match_the_machine_loop(self):
        rng = np.random.default_rng(22)
        runs = []
        for _ in range(25):
            series = _gappy_fleet(rng, int(rng.integers(1, 9)), int(rng.integers(30, 160)))
            runs.extend(_longest_present_runs(series.present)[1])
            table = pacf_by_machine(series)
            reference = reference_pacf_by_machine(series)
            assert table.dtype.names == ("machine_id", "resource", "n_effective", "pacf")
            assert table[["machine_id", "resource", "n_effective"]].tolist() == [
                r[:3] for r in reference
            ]
            assert np.array_equal(
                table["pacf"], np.reshape([r[3] for r in reference], (-1, PACF_MAX_LAG))
            )
            hist = reference_significant_lag_histogram(reference)
            assert significant_lag_counts(table).tolist() == [
                hist.get(lag, 0) for lag in range(1, PACF_MAX_LAG + 1)
            ]
        # machines on both sides of the shortest run the table keeps
        assert min(runs) < MIN_PACF_RUN <= max(runs)

    def test_singular_member_leaves_its_batch_neighbours_alone(self, monkeypatch):
        """One machine's resources share each order's stacked solve; an
        alternating series makes its order-2 normal equations singular."""
        rng = np.random.default_rng(23)
        T = 80
        avg = rng.random((1, T, 6))
        avg[0, :, 1] = np.tile([0.2, 0.7], T // 2)
        avg[0, :, 4] = 0.5
        series = IntervalSeries(np.array([3]), avg, avg + 0.1, np.ones((1, T), dtype=bool))
        lstsq, fallbacks = np.linalg.lstsq, []

        def counted_lstsq(*args, **kwargs):
            fallbacks.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        table = pacf_by_machine(series)
        assert fallbacks
        assert table["resource"].tolist() == [0, 1, 2, 3, 5]
        for r, values in zip(table["resource"], table["pacf"]):
            assert np.array_equal(values, pacf(avg[0, :, r], PACF_MAX_LAG))


class TestFeatureLayout:
    def test_default_dimension(self):
        """The paper's 30-minute window: 6 five-minute lags of 12 figures."""
        assert (LAGS, N_FEATURES) == (6, 72)

    def test_layout_of_a_width(self):
        """``layout.json`` describes each of the N_FEATURES indices, in order."""
        layout = json.loads(layout_json())
        assert layout["lags"] == LAGS
        assert [entry["index"] for entry in layout["features"]] == list(range(N_FEATURES))
        assert [(e["kind"], e["resource"], e["lag"]) for e in layout["features"]] == [
            (kind, ResourceKind(r).name, lag) for kind, r, lag in map(describe, range(N_FEATURES))
        ]

    def test_layout_is_a_bijection(self):
        seen = set()
        for kind in ("avg", "peak"):
            for r in range(6):
                for lag in range(1, 7):
                    i = feature_index(kind, r, lag)
                    assert describe(i) == (kind, r, lag)
                    seen.add(i)
        assert seen == set(range(72))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            feature_index("avg", 6, 1)
        with pytest.raises(ValueError):
            feature_index("avg", 0, 7)
        with pytest.raises(ValueError):
            feature_index("median", 0, 1)
        for index in (-1, 72):
            with pytest.raises(ValueError):
                describe(index)


def _fleet(T=30, machines=1, seed=0):
    """An IntervalSeries of fully present machines 0..machines-1, and empty tracks."""
    rng = np.random.default_rng(seed)
    avg = rng.random((machines, T, 6)) * 0.5
    peak = avg + rng.random((machines, T, 6)) * 0.3
    ids = np.arange(machines, dtype=np.int64)
    series = IntervalSeries(ids, avg, peak, np.ones((machines, T), dtype=bool))
    tracks = LabelTracks(
        ids, np.zeros((machines, T), dtype=np.int8), np.zeros((machines, T), dtype=bool)
    )
    return series, tracks


class TestBuildInstance:
    """The one-window oracle that build_dataset is checked against."""

    def test_full_window_packs_by_layout(self):
        series, tracks = _fleet()
        tracks.y[0, 10] = 1
        y, x = build_instance(series, tracks, 0, 10)
        assert y == FailureType.IMMEDIATE_REBOOT
        assert x.shape == (72,)
        for lag in range(1, 7):
            for r in range(6):
                assert x[feature_index("avg", r, lag)] == series.avg[0, 10 - lag, r]
                assert x[feature_index("peak", r, lag)] == series.peak[0, 10 - lag, r]

    def test_downtime_in_window_blocks_instance(self):
        series, tracks = _fleet()
        tracks.downtime[0, 7] = True
        assert build_instance(series, tracks, 0, 10) is None

    def test_absent_interval_blocks_instance(self):
        series, tracks = _fleet()
        series.present[0, 9] = False
        assert build_instance(series, tracks, 0, 10) is None

    def test_window_underflow_returns_none(self):
        series, tracks = _fleet()
        assert build_instance(series, tracks, 0, 5) is None

    def test_buildable_mask_matches_instance_construction(self):
        series, tracks = _fleet(T=40, seed=3)
        tracks.downtime[0, 12] = True
        series.present[0, 25] = False
        dcfg = DatasetConfig(normal_sample_count=40, train_fraction=0.5)
        train, test = build_dataset(series, tracks, dcfg)
        built = set(train.interval.tolist()) | set(test.interval.tolist())
        for tau in range(40):
            assert (tau in built) == (
                build_instance(series, tracks, 0, tau) is not None
            )


class TestBuildDataset:
    def _population(self, n_machines=5, T=120, failures_per_machine=2, seed=0):
        series, tracks = _fleet(T=T, machines=n_machines, seed=seed)
        for j in range(failures_per_machine):
            tracks.y[:, 20 + 30 * j] = 1 + (j % 2)
        return series, tracks

    def test_stratified_split_counts(self):
        series, tracks = self._population()
        dcfg = DatasetConfig(normal_sample_count=50, rng_seed=1, train_fraction=0.8)
        train, test = build_dataset(series, tracks, dcfg)
        assert len(train) + len(test) == 60
        assert len(train) == 48
        assert len(test) == 12

    def test_every_buildable_failure_included(self):
        series, tracks = self._population()
        dcfg = DatasetConfig(normal_sample_count=10, rng_seed=1)
        train, test = build_dataset(series, tracks, dcfg)
        n_failures = np.count_nonzero(train.y) + np.count_nonzero(test.y)
        assert n_failures == 10  # 5 machines x 2 failures, all windows clean

    def test_deterministic_given_seed(self):
        series, tracks = self._population()
        dcfg = DatasetConfig(normal_sample_count=40, rng_seed=7)
        a_train, a_test = build_dataset(series, tracks, dcfg)
        b_train, b_test = build_dataset(series, tracks, dcfg)
        for a, b in ((a_train, b_train), (a_test, b_test)):
            assert np.array_equal(a.machine_ids, b.machine_ids)
            assert np.array_equal(a.interval, b.interval)
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_shortfall_uses_all_normals_with_warning(self, caplog):
        series, tracks = self._population(n_machines=1, T=60)
        with caplog.at_level(logging.WARNING):
            train, test = build_dataset(
                series, tracks, DatasetConfig(normal_sample_count=10_000)
            )
        assert "using all" in caplog.text
        normals = np.count_nonzero(train.y == 0) + np.count_nonzero(test.y == 0)
        assert 0 < normals < 10_000

    def test_zero_failures_warns_and_yields_normals_only(self, caplog):
        series, tracks = _fleet(T=60)
        with caplog.at_level(logging.WARNING):
            train, test = build_dataset(
                series, tracks, DatasetConfig(normal_sample_count=20)
            )
        assert "no failure instances" in caplog.text
        assert not train.y.any() and not test.y.any()

    def test_no_instance_draws_from_downtime_or_absent(self):
        series, tracks = self._population(n_machines=3, T=80, seed=5)
        tracks.downtime[:, 40:46] = True
        series.present[1, 60] = False
        dcfg = DatasetConfig(normal_sample_count=30, rng_seed=2)
        train, test = build_dataset(series, tracks, dcfg)
        for data in (train, test):
            for m, tau in zip(data.machine_ids.tolist(), data.interval.tolist()):
                window = slice(tau - 6, tau)
                assert not tracks.downtime[m, window].any()
                assert series.present[m, window].all()

    @pytest.mark.parametrize("T", [0, 1, 6, 7])
    def test_lags_need_an_interval_before_the_labeled_one(self, T):
        """A T-interval series holds a window of LAGS lags only for LAGS <= T - 1."""
        series, tracks = _fleet(T=T)
        if T > LAGS:
            build_dataset(series, tracks, DatasetConfig(normal_sample_count=1))
            return
        with pytest.raises(
            ConfigError, match=f"^a {T}-interval series holds no {LAGS}-interval window before"
        ):
            build_dataset(series, tracks, DatasetConfig())

    def test_tracks_must_name_series_machines_and_intervals(self):
        series, tracks = _fleet(machines=2)
        for s, t in (
            (series.select(np.array([True, False])), tracks),
            (series, LabelTracks(tracks.machine_ids, tracks.y[:, 1:], tracks.downtime[:, 1:])),
        ):
            with pytest.raises(FailcastError):
                build_dataset(s, t, DatasetConfig())

    @given(st.data())
    def test_every_instance_is_the_oracle_window(self, data):
        """Every returned row equals the one-window oracle's.

        Fleets have gaps, downtime, labels, and machines excluded from
        the label tracks but kept in the series, as the CLI stores them.
        Every failure the oracle accepts is returned, and when the normal
        sample asks for more than there are, so is every normal it
        accepts.
        """
        series, kept, tracks = _random_fleet(data)
        take_all = data.draw(st.booleans())
        dcfg = DatasetConfig(
            normal_sample_count=10**6 if take_all else data.draw(st.integers(0, 20)),
            rng_seed=data.draw(st.integers(0, 99)),
            train_fraction=0.5,
        )

        train, test = build_dataset(series, tracks, dcfg)

        row_of = {m: i for i, m in enumerate(kept.machine_ids.tolist())}
        got = set()
        for split in (train, test):
            assert split.y.dtype == np.int64 and split.x.shape == (len(split), N_FEATURES)
            for m, tau, y, x in zip(
                split.machine_ids.tolist(), split.interval.tolist(), split.y.tolist(), split.x
            ):
                want = build_instance(kept, tracks, row_of[m], tau)
                assert want is not None
                assert y == want[0]
                assert x.tobytes() == want[1].tobytes()
                got.add((m, tau))
        assert len(got) == len(train) + len(test)
        accepted = _accepted_cells(kept, tracks)
        failures = {cell for cell, cls in accepted.items() if cls != FailureType.NORMAL}
        assert failures <= got
        n_normals = len(accepted) - len(failures)
        assert len(got) == len(failures) + min(n_normals, dcfg.normal_sample_count)
        if take_all:
            assert got == accepted.keys()

    @given(st.data())
    def test_split_is_the_per_class_list_split(self, data):
        """Both splits equal, bit for bit, the class-by-class list split of the
        rows build_dataset pooled, drawn from the same generator after its
        normal sample: the same rows, order, classes and features."""
        series, kept, tracks = _random_fleet(data)
        dcfg = DatasetConfig(
            normal_sample_count=data.draw(st.integers(0, 30)),
            rng_seed=data.draw(st.integers(0, 2**32 - 1)),
            train_fraction=data.draw(st.floats(0.01, 0.99)),
        )

        train, test = build_dataset(series, tracks, dcfg)

        row_of = {m: i for i, m in enumerate(kept.machine_ids.tolist())}
        pooled = sorted(
            (m, tau)
            for split in (train, test)
            for m, tau in zip(split.machine_ids.tolist(), split.interval.tolist())
        )
        rows = []
        for m, tau in pooled:
            y, x = build_instance(kept, tracks, row_of[m], tau)
            rows.append((y, m, tau, x))
        accepted = _accepted_cells(kept, tracks)
        n_normals = sum(1 for cls in accepted.values() if cls == FailureType.NORMAL)
        rng = np.random.default_rng(dcfg.rng_seed)
        rng.choice(n_normals, size=min(n_normals, dcfg.normal_sample_count), replace=False)
        for got, want in zip((train, test), reference_stratified_split(
            rows, dcfg.train_fraction, rng
        )):
            assert got.machine_ids.tolist() == [row[1] for row in want]
            assert got.interval.tolist() == [row[2] for row in want]
            assert got.y.tolist() == [int(row[0]) for row in want]
            assert got.x.tobytes() == b"".join(row[3].tobytes() for row in want)


def _random_fleet(data):
    """(series, kept, tracks): a random fleet with gaps, and labels for
    the machines ``kept``, a random subset of it."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    M, T = data.draw(st.integers(1, 5)), data.draw(st.integers(LAGS + 1, 30))
    ids = np.sort(rng.choice(1000, M, replace=False)).astype(np.int64)
    present = rng.random((M, T)) >= data.draw(st.sampled_from([0.0, 0.05, 0.3]))
    avg = np.where(present[..., None], rng.random((M, T, 6)), 0.0)
    peak = np.where(present[..., None], avg + rng.random((M, T, 6)) * 0.1, 0.0)
    series = IntervalSeries(ids, avg, peak, present)
    kept = series.select(rng.random(M) >= 0.3)
    y = rng.choice(4, size=present.shape, p=[0.85, 0.05, 0.05, 0.05])
    downtime = rng.random(present.shape) < 0.1
    in_kept = np.isin(ids, kept.machine_ids)
    tracks = LabelTracks(kept.machine_ids, y[in_kept].astype(np.int8), downtime[in_kept])
    return series, kept, tracks


def _accepted_cells(kept, tracks) -> dict:
    """{(machine_id, interval): class} of every window the oracle accepts."""
    return {
        (m, tau): window[0]
        for row, m in enumerate(kept.machine_ids.tolist())
        for tau in range(kept.present.shape[1])
        if (window := build_instance(kept, tracks, row, tau)) is not None
    }


def _oracle_dataset(series, tracks, cells) -> Dataset:
    """The Dataset of the oracle windows at the (series row, interval) ``cells``."""
    windows = [build_instance(series, tracks, row, tau) for row, tau in cells]
    return Dataset(
        series.machine_ids[[row for row, _ in cells]],
        np.array([tau for _, tau in cells], dtype=np.int64),
        np.array([int(y) for y, _ in windows], dtype=np.int64),
        np.stack([x for _, x in windows]),
    )


def test_dataset_csv_round_trip(tmp_path):
    series, tracks = _fleet()
    tracks.y[0, 10] = 2
    data = _oracle_dataset(series, tracks, [(0, 8), (0, 10), (0, 12)])
    path = tmp_path / "dataset.csv"
    with open(path, "w") as f:
        write_dataset_csv(data, f)
    with open(path) as f:
        X, y = read_dataset_csv(f)
    assert y.tolist() == [0, 2, 0]
    assert X.tobytes() == data.x.tobytes()  # repr round-trips exactly


class TestWriteDatasetCsv:
    #: features the digit table must leave to ``%r``, or must spell as ``%r`` does:
    #: 0.0001 is positional, 9.9e-05 scientific; the rest lie outside [0.0001, 1)
    SPECIALS = [0.0001, 9.9e-05, 1e-06, 0.0, -0.0, 1.0, 5e-324, 1.5, 2.0, 123.456, -0.25,
                -1e-07, np.inf, -np.inf, np.nan]

    @given(
        st.sampled_from([0, 1, 127, 128, 129]),
        st.integers(1, 6),
        st.sampled_from([0.0, 0.002, 0.3]),
        st.integers(0, 2**32 - 1),
    )
    @example(0, 3, 0.0, 0)  # a dataset without rows is its header
    def test_matches_the_row_by_row_oracle(self, n, dim, odd_share, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 10**6, (n, dim)) / 1e6  # exact millionths, 0.0 among them
        # a share of values one ulp off their millionth, either way, or special
        odd = rng.random((n, dim)) < odd_share
        kind = rng.integers(0, 3, (n, dim))
        x = np.where(odd & (kind == 1), np.nextafter(x, np.inf), x)
        x = np.where(odd & (kind == 2), np.nextafter(x, -np.inf), x)
        special = odd & (kind == 0)
        x[special] = rng.choice(self.SPECIALS, int(special.sum()))
        y = rng.integers(0, 4, n)
        out = io.StringIO()
        write_dataset_csv(Dataset(np.zeros(n, dtype=np.int64), np.arange(n), y, x), out)
        header = "y," + ",".join(f"f{i}" for i in range(dim)) + "\n"
        row_format = "%d," + ",".join(["%r"] * dim) + "\n"
        assert out.getvalue() == header + reference_write_rows(row_format, y, x)

    def test_every_special_value_in_every_column(self):
        x = np.array(self.SPECIALS)[np.add.outer(np.arange(15), np.arange(15)) % 15]
        y = np.arange(15) % 4
        out = io.StringIO()
        write_dataset_csv(Dataset(np.zeros(15, dtype=np.int64), np.arange(15), y, x), out)
        row_format = "%d," + ",".join(["%r"] * 15) + "\n"
        assert out.getvalue().split("\n", 1)[1] == reference_write_rows(row_format, y, x)


@pytest.mark.parametrize(
    "lines, line_no",
    [
        (["y,f1,f0", "0,1.0,2.0"], 1),
        (["", "x,f0"], 2),
        ([], 1),
        (["y,f0,f1", "0,1.0,2.0", "1,1.0"], 3),
        (["y,f0,f1", "0,1.0,2.0,3.0"], 2),
        (["y,f0,f1", "0,1.0,abc"], 2),
        (["y,f0,f1", "", "1.5,1.0,2.0"], 3),
        (["y,f0,f1", "7,1.0,2.0"], 2),
    ],
)
def test_malformed_dataset_reports_line(lines, line_no):
    with pytest.raises(ParseError) as err:
        read_dataset_csv(io.StringIO("\n".join(lines)))
    assert err.value.line_no == line_no


def test_ids_csv_round_trip_and_malformed_lines():
    series, tracks = _fleet(machines=2)
    data = _oracle_dataset(series, tracks, [(0, 9), (1, 9)])
    buf = io.StringIO()
    write_ids_csv(data, buf)
    machine_id, interval = read_ids_csv(io.StringIO(buf.getvalue()))
    assert machine_id.tolist() == [0, 1] and interval.tolist() == [9, 9]
    for lines, line_no in (
        (["machine,interval"], 1),
        (["machine_id,interval", "1,2,3"], 2),
        (["machine_id,interval", "1,x"], 2),
    ):
        with pytest.raises(ParseError) as err:
            read_ids_csv(io.StringIO("\n".join(lines)))
        assert err.value.line_no == line_no


@pytest.mark.parametrize(
    "rows, line_no", [(["1,2", "1,2"], 3), (["1,2", "0,5", "3,1", "0,6", "1,2", "0,5"], 6)]
)
def test_an_ids_file_that_repeats_an_instance_names_the_first_repeat(rows, line_no):
    """The first row, in file order, whose instance an earlier row has."""
    with pytest.raises(ParseError) as err:
        read_ids_csv(io.StringIO("\n".join(["machine_id,interval", *rows])))
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: duplicate instance (1, 2)"
