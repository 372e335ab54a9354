import csv
import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shale_adsorb import outliers
from shale_adsorb.dataset import DatasetKind, clean
from shale_adsorb.regression import ModelKind
from shale_adsorb.outliers import (
    BLOCK_ELEMENTS,
    DistanceWeights,
    ZeroIqrError,
    compute_weights,
    detect_outliers,
    nearest_first,
    quartiles,
    weighted_relative_error,
)
from conftest import form_records, make_record, table
from helpers import blocked_neighbours, naive_neighbours, naive_r_values, naive_relative_error, statistical_distance


class TestQuartiles:
    def test_five_points(self):
        assert quartiles([1, 2, 3, 4, 5]) == (2.0, 4.0)

    def test_constant_sample(self):
        assert quartiles([5, 5, 5, 5]) == (5.0, 5.0)

    def test_interpolated_positions(self):
        # sorted positions 0.75 and 2.25 under the p*(n-1) rule
        assert quartiles([1, 2, 3, 4]) == (1.75, 3.25)

    def test_order_does_not_matter(self):
        assert quartiles([4, 1, 3, 2]) == (1.75, 3.25)

    def test_too_short(self):
        with pytest.raises(ValueError, match="two values"):
            quartiles([1.0])


class TestComputeWeights:
    def test_iqr_of_two(self):
        records = [make_record(i, toc=v, temp=48.0) for i, v in enumerate([2.0, 2.0, 4.0, 4.0])]
        weights = compute_weights(table(records), ["toc"])
        assert weights.by_variable["toc"] == pytest.approx(5.0)

    def test_iqr_of_ten(self):
        records = [make_record(i, toc=4.0, temp=v) for i, v in enumerate([0.0, 0.0, 10.0, 10.0])]
        weights = compute_weights(table(records), ["temp"])
        assert weights.by_variable["temp"] == pytest.approx(1.0)

    def test_zero_iqr_names_variable(self):
        records = [make_record(i, toc=4.0, temp=48.0) for i in range(4)]
        with pytest.raises(ZeroIqrError, match="toc"):
            compute_weights(table(records), ["toc"])

    def test_missing_variable_rejected(self):
        records = [make_record(i, toc=4.0, temp=48.0) for i in range(3)]
        with pytest.raises(ValueError, match="ro"):
            compute_weights(table(records), ["ro"])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            DistanceWeights({"toc": -1.0})


def kernel_distance(a, b, weights):
    """The distance from record a to record b in the neighbour kernel `outliers._nearest`."""
    _, dist = outliers._nearest(np.array([0]), np.arange(2), outliers._distance_columns(table([a, b]), weights), 1)
    return dist.item()


class TestStatisticalDistance:
    def test_identity_is_zero(self):
        a = make_record(1, toc=3.0, temp=50.0, ro=1.2)
        w = DistanceWeights({"toc": 1.0, "temp": 2.0, "ro": 0.5})
        assert kernel_distance(a, a, w) == 0.0

    def test_single_variable(self):
        a = make_record(1, toc=3.0, temp=50.0)
        b = make_record(2, toc=5.0, temp=50.0)
        assert kernel_distance(a, b, DistanceWeights({"toc": 2.0})) == pytest.approx(4.0)

    def test_two_variables(self):
        a = make_record(1, toc=1.0, temp=10.0)
        b = make_record(2, toc=4.0, temp=14.0)
        w = DistanceWeights({"toc": 1.0, "temp": 2.0})
        assert kernel_distance(a, b, w) == pytest.approx(math.sqrt(9 + 64))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        w = DistanceWeights({"toc": 1.3, "temp": 0.7})
        for _ in range(20):
            a = make_record(1, toc=float(rng.uniform(1, 10)), temp=float(rng.uniform(20, 80)))
            b = make_record(2, toc=float(rng.uniform(1, 10)), temp=float(rng.uniform(20, 80)))
            assert kernel_distance(a, b, w) == pytest.approx(kernel_distance(b, a, w), abs=1e-15)

    def test_missing_variable_rejected(self):
        a = make_record(1, toc=3.0, temp=50.0)
        b = make_record(2, toc=5.0, temp=50.0)
        with pytest.raises(ValueError, match="ro"):
            kernel_distance(a, b, DistanceWeights({"ro": 1.0}))


class TestWeightedRelativeError:
    def test_worked_two_neighbour_example(self):
        # distances 1 and 3 give weights 0.75 and 0.25; both neighbours sit
        # at 2 while the test record sits at 4, so R = 2 / min(2, 4) = 1.
        records = [
            make_record(0, toc=10.0, temp=48.0, vl=4.0),
            make_record(1, toc=11.0, temp=48.0, vl=2.0),
            make_record(2, toc=13.0, temp=48.0, vl=2.0),
        ]
        w = DistanceWeights({"toc": 1.0})
        r, neighbors, weights = weighted_relative_error(0, table(records), w, k=2, dependent="vl")
        assert neighbors == [1, 2]
        assert weights == pytest.approx([0.75, 0.25])
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_equal_distances_give_uniform_weights(self):
        records = [
            make_record(0, toc=5.0, temp=48.0, vl=2.0),
            make_record(1, toc=4.0, temp=48.0, vl=3.0),
            make_record(2, toc=6.0, temp=48.0, vl=5.0),
        ]
        _, _, weights = weighted_relative_error(0, table(records), DistanceWeights({"toc": 1.0}), 2, "vl")
        assert weights == pytest.approx([0.5, 0.5])

    def test_duplicate_neighbours_get_uniform_weights(self):
        records = [make_record(i, toc=5.0, temp=48.0, vl=2.0 + i) for i in range(4)]
        _, _, weights = weighted_relative_error(0, table(records), DistanceWeights({"temp": 1.0}), 3, "vl")
        assert weights == pytest.approx([1 / 3] * 3)

    def test_zero_when_neighbours_share_value(self):
        records = [make_record(i, toc=float(2 + i), temp=48.0, vl=2.0) for i in range(5)]
        r, _, _ = weighted_relative_error(2, table(records), DistanceWeights({"toc": 1.0}), 3, "vl")
        assert r == 0.0

    def test_weights_sum_to_one_and_respect_distance_order(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            records = [
                make_record(i, toc=float(rng.uniform(1, 12)), temp=float(rng.uniform(25, 85)),
                            vl=float(rng.uniform(1.1, 5)))
                for i in range(15)
            ]
            samples = table(records)
            weights = compute_weights(samples, ["toc", "temp"])
            for i in range(len(records)):
                _, neighbors, w = weighted_relative_error(i, samples, weights, 5, "vl")
                assert sum(w) == pytest.approx(1.0, abs=1e-12)
                dists = [statistical_distance(records[i], records[j], weights) for j in neighbors]
                for (d1, w1), (d2, w2) in zip(zip(dists, w), list(zip(dists, w))[1:]):
                    assert d1 <= d2
                    assert w1 >= w2 - 1e-12

    def test_scale_invariance_of_weights(self):
        rng = np.random.default_rng(23)
        records = [
            make_record(i, toc=float(rng.uniform(1, 12)), temp=float(rng.uniform(25, 85)),
                        vl=float(rng.uniform(1.1, 5)))
            for i in range(10)
        ]
        base = DistanceWeights({"toc": 0.8, "temp": 0.2})
        scaled = DistanceWeights({"toc": 0.8 * 37.0, "temp": 0.2 * 37.0})
        samples = table(records)
        for i in range(10):
            r1, n1, w1 = weighted_relative_error(i, samples, base, 4, "vl")
            r2, n2, w2 = weighted_relative_error(i, samples, scaled, 4, "vl")
            assert n1 == n2
            assert w1 == pytest.approx(w2, abs=1e-12)
            assert r1 == pytest.approx(r2, rel=1e-12)

    def test_dataset_too_small(self):
        records = [make_record(i, toc=float(i + 1), temp=48.0, vl=2.0) for i in range(5)]
        with pytest.raises(ValueError, match="at least 6"):
            weighted_relative_error(0, table(records), DistanceWeights({"toc": 1.0}), 5, "vl")

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
    def test_non_integer_k_rejected(self, k):
        records = [make_record(i, toc=float(i + 1), temp=48.0, vl=2.0) for i in range(6)]
        with pytest.raises(ValueError, match=f"k must be an integer, got {re.escape(repr(k))}"):
            weighted_relative_error(0, table(records), DistanceWeights({"toc": 1.0}), k, "vl")

    def test_missing_dependent_checked_only_in_row_and_neighbours(self):
        # r5 lacks vl. With k = 2 it is a neighbour of r4 (toc 5) but of none
        # of r0..r3, whose two nearest are at most 1 away.
        records = [make_record(i, toc=float(i + 1), temp=40.0 + i, vl=2.0 + i) for i in range(5)]
        records.append(make_record(5, toc=5.5, temp=45.0))
        weights = DistanceWeights({"toc": 1.0})
        message = "^dependent variable vl missing from record or neighbours$"
        samples = table(records)
        for i in range(4):
            r, neighbors, w = weighted_relative_error(i, samples, weights, 2, "vl")
            assert 5 not in neighbors
            deps = [rec.vl for rec in records]
            dists = [statistical_distance(records[i], records[j], weights) for j in neighbors]
            assert (r, w) == naive_relative_error(i, neighbors, dists, deps, "vl")
        for i in (4, 5):
            with pytest.raises(ValueError, match=message):
                weighted_relative_error(i, samples, weights, 2, "vl")
        with pytest.raises(ValueError, match=message):
            detect_outliers(table(records), DatasetKind.VL, k=2)


def _clone_cloud_with_planted_outlier(n_clones=24, factor=10.0):
    """Near-identical records plus one record with a scaled dependent value.

    The planted record sits apart in variable space so it never enters a
    clone's neighbourhood, and its own neighbours are all clones.
    """
    rng = np.random.default_rng(42)
    records = [
        make_record(i,
                    toc=float(4.0 + rng.normal(0, 0.05)),
                    temp=float(48.0 + rng.normal(0, 0.5)),
                    vl=2.0)
        for i in range(n_clones)
    ]
    records.append(make_record(n_clones, toc=8.0, temp=70.0, vl=2.0 * factor))
    return records


class TestDetectOutliers:
    def test_planted_outlier_is_unique_flag(self):
        records = _clone_cloud_with_planted_outlier()
        report = detect_outliers(table(records), DatasetKind.VL)
        assert report.flagged_ids() == [records[-1].id]
        # brute-force confirmation that exactly one R exceeds the threshold
        naive = naive_r_values(records, ("temp", "toc"), "vl", 5)
        assert (naive > 0.85).sum() == 1
        assert int(np.argmax(naive)) == len(records) - 1
        assert report.r_values == pytest.approx(list(naive), rel=1e-12)

    def test_equal_dependents_never_flag(self):
        rng = np.random.default_rng(1)
        records = [
            make_record(i, toc=float(rng.uniform(1, 10)), temp=float(rng.uniform(25, 85)), vl=2.5)
            for i in range(12)
        ]
        report = detect_outliers(table(records), DatasetKind.VL)
        assert not any(report.flagged)
        assert report.r_values == pytest.approx([0.0] * 12, abs=1e-15)

    def test_infinite_threshold_flags_nothing(self):
        records = _clone_cloud_with_planted_outlier()
        report = detect_outliers(table(records), DatasetKind.VL, threshold=math.inf)
        assert not any(report.flagged)

    def test_flag_matches_threshold_rule(self):
        records = _clone_cloud_with_planted_outlier()
        report = detect_outliers(table(records), DatasetKind.VL, threshold=0.85)
        for r, f in zip(report.r_values, report.flagged):
            assert f == (r > 0.85)

    def test_pl_kind_uses_ro_axis(self):
        rng = np.random.default_rng(2)
        records = [
            make_record(i, toc=float(rng.uniform(2, 8)), temp=float(rng.uniform(30, 80)),
                        ro=float(rng.uniform(1, 3)), pl=float(rng.uniform(2, 9)))
            for i in range(12)
        ]
        report = detect_outliers(table(records), DatasetKind.PL)
        naive = naive_r_values(records, ("temp", "toc", "ro"), "pl", 5)
        assert report.r_values == pytest.approx(list(naive), rel=1e-12)

    def test_reordering_does_not_change_flags(self):
        records = _clone_cloud_with_planted_outlier()
        report = detect_outliers(table(records), DatasetKind.VL)
        rng = np.random.default_rng(9)
        shuffled = list(records)
        rng.shuffle(shuffled)
        shuffled_report = detect_outliers(table(shuffled), DatasetKind.VL)
        assert set(shuffled_report.flagged_ids()) == set(report.flagged_ids())
        by_id = dict(zip(shuffled_report.ids, shuffled_report.r_values))
        for rec_id, r in zip(report.ids, report.r_values):
            assert by_id[rec_id] == pytest.approx(r, rel=1e-12)

    def test_k_checked_up_front(self):
        records = _clone_cloud_with_planted_outlier()
        with pytest.raises(ValueError, match="k must be >= 1"):
            detect_outliers(table(records), DatasetKind.VL, k=0)
        with pytest.raises(ValueError, match=f"need at least {len(records) + 1} records"):
            detect_outliers(table(records), DatasetKind.VL, k=len(records))

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "5", None])
    def test_non_integer_k_rejected(self, k):
        records = _clone_cloud_with_planted_outlier()
        with pytest.raises(ValueError, match=f"k must be an integer, got {re.escape(repr(k))}"):
            detect_outliers(table(records), DatasetKind.VL, k=k)

    def test_integer_like_k_accepted(self):
        records = _clone_cloud_with_planted_outlier()
        report = detect_outliers(table(records), DatasetKind.VL, k=np.int64(5))
        assert type(report.k) is int and report.k == 5
        assert report.r_values.tolist() == detect_outliers(table(records), DatasetKind.VL, k=5).r_values.tolist()

    def test_nan_threshold_rejected(self):
        records = _clone_cloud_with_planted_outlier()
        with pytest.raises(ValueError, match="threshold must not be NaN"):
            detect_outliers(table(records), DatasetKind.VL, threshold=math.nan)
        # R >= 0, so a negative threshold would flag every record.
        with pytest.raises(ValueError, match=r"threshold must be >= 0, got -1\.0"):
            detect_outliers(table(records), DatasetKind.VL, threshold=-1.0)
        report = detect_outliers(table(records), DatasetKind.VL, threshold=0.0)
        assert report.flagged.tolist() == [r > 0.0 for r in report.r_values.tolist()]

    def test_zero_iqr_propagates(self):
        records = [make_record(i, toc=4.0, temp=float(40 + i), vl=2.0 + 0.1 * i) for i in range(8)]
        with pytest.raises(ZeroIqrError, match="toc"):
            detect_outliers(table(records), DatasetKind.VL)

    def test_inliers_filters_flagged(self):
        records = _clone_cloud_with_planted_outlier()
        report = detect_outliers(table(records), DatasetKind.VL)
        inliers = report.inliers(table(records))
        assert len(inliers) == len(records) - 1
        assert records[-1].id not in inliers.ids

    def test_report_keeps_arrays(self):
        records = _clone_cloud_with_planted_outlier()
        report = detect_outliers(table(records), DatasetKind.VL, k=4)
        n = len(records)
        assert report.r_values.dtype == np.float64 and report.r_values.shape == (n,)
        assert report.flagged.dtype == bool and report.flagged.shape == (n,)
        assert report.neighbor_indices.shape == report.neighbor_weights.shape == (n, 4)
        assert report.neighbor_weights.dtype == np.float64
        rows = list(csv.reader(io.StringIO(report.to_csv())))[1:]
        assert [row[2] for row in rows] == ["true" if flag else "false" for flag in report.flagged.tolist()]
        assert [row[4] for row in rows] == [";".join(map(repr, w)) for w in report.neighbor_weights.tolist()]

    def test_csv_serialisation(self):
        records = _clone_cloud_with_planted_outlier()
        report = detect_outliers(table(records), DatasetKind.VL)
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == ["id", "R", "flagged", "neighbor_ids", "neighbor_weights"]
        assert len(rows) == len(records) + 1
        first = rows[1]
        assert first[0] == records[0].id
        assert float(first[1]) == pytest.approx(report.r_values[0])
        assert first[2] in ("true", "false")
        assert len(first[3].split(";")) == report.k
        weights = [float(w) for w in first[4].split(";")]
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def _tied_pl_records(n=640):
    """PL records on a coarse lattice plus exact duplicates, so distances tie often."""
    rng = np.random.default_rng(5)
    records = []
    for i in range(n):
        if i % 7 == 6:
            src = records[int(rng.integers(len(records)))]
            toc, temp, ro = src.toc, src.temp, src.ro
        else:
            toc = float(rng.integers(1, 9))
            temp = 30.0 + 5.0 * float(rng.integers(0, 10))
            ro = 0.5 * float(rng.integers(2, 8))
        records.append(make_record(i, toc=toc, temp=temp, ro=ro, pl=float(rng.uniform(2, 9))))
    return records


def assert_scores_equal_per_record_loop(records, kind, k):
    """Every R and weight of ``detect_outliers`` is ``==`` to :func:`naive_relative_error` of its row.

    The oracle gets the report's neighbours with their ``statistical_distance``.
    """
    report = detect_outliers(table(records), kind, k=k)
    weights = compute_weights(table(records), kind.independent_vars)
    deps = [getattr(rec, kind.dependent_var) for rec in records]
    for i, neighbors in enumerate(report.neighbor_indices.tolist()):
        dists = [statistical_distance(records[i], records[j], weights) for j in neighbors]
        r, w = naive_relative_error(i, neighbors, dists, deps, kind.dependent_var)
        assert report.r_values[i].item() == r, i
        assert report.neighbor_weights[i].tolist() == w, i
    assert report.flagged.tolist() == [r > report.threshold for r in report.r_values.tolist()]
    return report


class TestBlockedKernelExactness:
    """The blocked kernel against a one-row call and a brute-force argsort."""

    @pytest.fixture(scope="class")
    def records(self):
        records = _tied_pl_records()
        # the rows must span several blocks of the neighbour search
        assert len(records) > 2 * (BLOCK_ELEMENTS // len(records))
        return records

    @pytest.mark.parametrize("k", [1, 5, 12, 639])
    def test_neighbours_match_stable_argsort(self, records, k):
        report = detect_outliers(table(records), DatasetKind.PL, k=k)
        wider = naive_neighbours(records, ("temp", "toc", "ro"), min(k + 1, len(records) - 1))
        assert report.neighbor_indices.tolist() == [order[:k] for order, _ in wider]
        if k < len(records) - 1:
            # some record has a tie straddling its k-th neighbour
            assert any(dist[k - 1] == dist[k] for _, dist in wider)
        naive = naive_r_values(records, ("temp", "toc", "ro"), "pl", k)
        assert report.r_values == pytest.approx(list(naive), rel=1e-12)

    # k >= 8 takes NumPy's unrolled pairwise sum of each row.
    @pytest.mark.parametrize("k", [1, 5, 8, 12, 639])
    def test_scores_equal_per_record_loop(self, records, k):
        assert_scores_equal_per_record_loop(records, DatasetKind.PL, k)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_scores_equal_per_record_loop_when_neighbours_coincide(self, k):
        # Six copies of each place: every record's k neighbours are copies at
        # distance 0, so every row takes the uniform weights.
        records = [make_record(6 * g + c, toc=float(2 + g), temp=30.0 + 7.0 * (g % 3), vl=1.5 + 0.5 * c)
                   for g in range(5) for c in range(6)]
        report = assert_scores_equal_per_record_loop(records, DatasetKind.VL, k)
        assert all(w == [1.0 / k] * k for w in report.neighbor_weights.tolist())
        assert all(j // 6 == i // 6 for i, nb in enumerate(report.neighbor_indices) for j in nb)

    @pytest.mark.parametrize("k", [1, 5, 12, 639])
    def test_every_row_equals_single_row_call(self, records, k):
        samples = table(records)
        report = detect_outliers(samples, DatasetKind.PL, k=k)
        weights = compute_weights(samples, DatasetKind.PL.independent_vars)
        for i in range(len(records)):
            r, neighbors, w = weighted_relative_error(i, samples, weights, k, "pl")
            assert r == report.r_values[i].item()
            assert neighbors == report.neighbor_indices[i].tolist()
            assert w == report.neighbor_weights[i].tolist()


def assert_grid_equals_blocked(columns, k):
    """``outliers._neighbours`` equals the blocked all-pairs oracle with ``==``.

    Returns the (rows, candidates) shape of every distance block it built.
    """
    blocks = []
    nearest = outliers._nearest

    def recording(rows, cand, cols, kk):
        blocks.append((len(rows), len(cand)))
        return nearest(rows, cand, cols, kk)

    with mock.patch.object(outliers, "_nearest", recording):
        idx, dist = outliers._neighbours(columns, k)
    want_idx, want_dist = blocked_neighbours(columns, k)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(dist, want_dist)
    return blocks


def _columns(*values, weights=None):
    return [(w, np.asarray(col, dtype=float)) for w, col in zip(weights or [1.0] * len(values), values)]


def probed_every_row(blocks, n):
    """Every row went through a probe and a candidate block: the grid has several cells."""
    return sum(m for m, _ in blocks) == 2 * n


class TestGridSearchExactness:
    """The grid-pruned neighbour search against the blocked all-pairs oracle."""

    @pytest.fixture(scope="class")
    def records(self):
        return _tied_pl_records()

    @pytest.mark.parametrize("k", [1, 5, 12, 639])
    def test_tied_records(self, records, k):
        samples = table(records)
        columns = outliers._distance_columns(samples, compute_weights(samples, DatasetKind.PL.independent_vars))
        blocks = assert_grid_equals_blocked(columns, k)
        assert probed_every_row(blocks, len(records))
        if k < 639:
            assert min(width for _, width in blocks) < len(records)
        want_idx, _ = blocked_neighbours(columns, k)
        assert np.array_equal(detect_outliers(table(records), DatasetKind.PL, k=k).neighbor_indices, want_idx)

    @pytest.mark.parametrize("k", [1, 5, 399])
    def test_all_duplicates_fill_one_cell(self, k):
        blocks = assert_grid_equals_blocked(_columns(np.full(400, 3.5), np.full(400, -2.0)), k)
        assert probed_every_row(blocks, 400)
        assert all(width == 400 for _, width in blocks)

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_far_outlier(self, k):
        rng = np.random.default_rng(11)
        temp = np.round(rng.uniform(20.0, 90.0, 600), 2)
        toc = np.round(rng.uniform(1.0, 17.0, 600), 2)
        temp[317], toc[317] = -1e6, 1e6
        blocks = assert_grid_equals_blocked(_columns(temp, toc, weights=[0.4, 1.3]), k)
        assert probed_every_row(blocks, 600)
        assert min(width for _, width in blocks) < 600

    @pytest.mark.parametrize("k", [1, 5, 60])
    def test_tiny_coordinates_across_a_cell_edge(self, k):
        # Squared differences of 1e-300 underflow to 0, so records either
        # side of the cell edge at 0 sit at distance 0 from each other.
        rng = np.random.default_rng(12)
        columns = _columns(rng.choice([-1e-300, 0.0, 1e-300], 400), rng.choice([1.0, 2.0, 3.0, 4.0], 400))
        blocks = assert_grid_equals_blocked(columns, k)
        assert probed_every_row(blocks, 400)
        _, dist = blocked_neighbours(columns, k)
        assert not dist.any()

    @pytest.mark.parametrize("k", [1, 5])
    def test_overflowing_distances(self, k):
        # Spreads near 1e150 at weight 1e6: squares overflow, k-th distances
        # are inf, and the bound keeps every record a candidate.
        rng = np.random.default_rng(13)
        columns = _columns(rng.uniform(-1e150, 1e150, 400), rng.uniform(-1e150, 1e150, 400), weights=[1e6, 1e6])
        with np.errstate(over="ignore"):
            blocks = assert_grid_equals_blocked(columns, k)
            _, dist = blocked_neighbours(columns, k)
        assert probed_every_row(blocks, 400)
        assert np.isinf(dist[:, -1]).any()
        assert max(width for _, width in blocks) == 400

    def test_blocks_stay_capped_on_clustered_data(self, monkeypatch):
        monkeypatch.setattr(outliers, "BLOCK_ELEMENTS", 256)
        rng = np.random.default_rng(14)
        centres = rng.uniform(0.0, 100.0, (3, 2))
        points = centres[rng.integers(3, size=500)] + rng.normal(0.0, 0.01, (500, 2))
        blocks = assert_grid_equals_blocked(_columns(*points.T), 5)
        assert probed_every_row(blocks, 500)
        assert all(m * width <= max(256, width) for m, width in blocks)
        assert max(width for _, width in blocks) > 256


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_grid_search_equals_blocked_property(data):
    # Few distinct values per variable make exact copies and ties; finite
    # floats of any size make underflowing and overflowing squares; small
    # cells give many cells at small n.
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(2, 200))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, 1e-300, -1e-300, 1e150])
    columns = [
        (data.draw(st.floats(2.0 ** -600, 2.0 ** 600)), rng.choice(data.draw(st.lists(values, min_size=1, max_size=6)), n))
        for _ in range(d)
    ]
    k = data.draw(st.integers(1, n - 1))
    with mock.patch.object(outliers, "CELL_ROWS", data.draw(st.sampled_from([1, 4, 48]))), np.errstate(all="ignore"):
        assert_grid_equals_blocked(columns, k)


_vl_rows = st.lists(
    st.tuples(st.floats(1.0, 17.0), st.floats(20.0, 89.0), st.floats(1.1, 5.0)),
    min_size=7, max_size=40,
)


@settings(max_examples=60, deadline=None, database=None)
@given(rows=_vl_rows, data=st.data())
def test_row_permutation_keeps_r_flags_and_neighbour_sets(rows, data):
    records = [make_record(i, toc=toc, temp=temp, vl=vl) for i, (toc, temp, vl) in enumerate(rows)]
    try:
        weights = compute_weights(table(records), DatasetKind.VL.independent_vars)
    except ZeroIqrError:
        assume(False)
    perm = data.draw(st.permutations(range(len(records))))
    base = detect_outliers(table(records), DatasetKind.VL)
    moved = detect_outliers(table([records[j] for j in perm]), DatasetKind.VL)
    moved_by_id = {
        rec_id: (r, flag, {moved.ids[j] for j in neighbors})
        for rec_id, r, flag, neighbors in zip(moved.ids, moved.r_values, moved.flagged,
                                              moved.neighbor_indices)
    }
    for i, rec in enumerate(records):
        r, flag, moved_set = moved_by_id[rec.id]
        base_set = {records[j].id for j in base.neighbor_indices[i]}
        kth = max(statistical_distance(rec, records[j], weights) for j in base.neighbor_indices[i])
        tied = {other.id for other in records
                if other is not rec and statistical_distance(rec, other, weights) == kth}
        # neighbours strictly closer than the k-th distance never change;
        # the rest come from the records tied at that distance
        assert base_set - tied == moved_set - tied
        assert moved_set <= base_set | tied
        if tied <= base_set:
            assert moved_set == base_set
            assert r == pytest.approx(base.r_values[i], rel=1e-12)
            if abs(r - base.threshold) > 1e-9:
                assert flag == base.flagged[i]


@settings(max_examples=60, deadline=None, database=None)
@given(rows=_vl_rows, data=st.data())
def test_scores_equal_per_record_loop_property(rows, data):
    # Repeated places make ties and zero distances.
    rows = rows + data.draw(st.lists(st.sampled_from(rows), max_size=10))
    records = [make_record(i, toc=toc, temp=temp, vl=vl) for i, (toc, temp, vl) in enumerate(rows)]
    try:
        compute_weights(table(records), DatasetKind.VL.independent_vars)
    except ZeroIqrError:
        assume(False)
    assert_scores_equal_per_record_loop(records, DatasetKind.VL, data.draw(st.integers(1, len(records) - 1)))


def assert_stable_first_k(dist, k):
    """``nearest_first(dist, k)`` is the first k of a stable ``argsort``, values bit for bit."""
    order, values = nearest_first(dist, k)
    expected = np.argsort(dist, axis=1, kind="stable")[:, :k]
    assert np.array_equal(order, expected)
    assert values.tobytes() == np.take_along_axis(dist, expected, axis=1).tobytes()


class TestNearestFirstFullWidth:
    """At k == n each row is sorted unstably, and only rows with ties again stably."""

    # 700 columns: wide enough that NumPy's default argsort does not keep
    # equal values in index order (checked on each tied case below).
    @pytest.mark.parametrize("case", ["no ties", "all equal", "signed zeros", "infinities", "few values"])
    def test_equals_stable_argsort(self, case):
        rng = np.random.default_rng(3)
        dist = {
            "no ties": rng.permutation(np.arange(20 * 700.0)).reshape(20, 700),
            "all equal": np.full((20, 700), 4.5),
            "signed zeros": rng.choice([-0.0, 0.0, 1.0, -1.0, 0.5], (20, 700)),
            "infinities": rng.choice([-0.0, 0.0, np.inf, 2.0], (20, 700)),
            "few values": rng.integers(0, 5, (20, 700)).astype(float),
        }[case]
        assert_stable_first_k(dist, 700)
        if case not in ("no ties", "all equal"):
            assert (np.argsort(dist, axis=1) != np.argsort(dist, axis=1, kind="stable")).any()

    def test_tied_and_untied_rows_together(self):
        rng = np.random.default_rng(4)
        dist = rng.permutation(np.arange(6 * 300.0)).reshape(6, 300)
        dist[[1, 4], 7] = dist[[1, 4], 200]
        dist[2, 9] = -0.0
        dist[2, 10] = 0.0
        assert_stable_first_k(dist, 300)
        assert_stable_first_k(dist[:, :1], 1)


_small_integer_matrices = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 40).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3).map(float) | st.just(-0.0) | st.just(math.inf),
                                    min_size=n, max_size=n),
                           min_size=m, max_size=m)))


@settings(max_examples=150, deadline=None, database=None)
@given(rows=_small_integer_matrices, data=st.data())
def test_nearest_first_is_a_stable_argsort(rows, data):
    dist = np.array(rows)
    n = dist.shape[1]
    assert_stable_first_k(dist, n)
    assert_stable_first_k(dist, data.draw(st.integers(1, n)))


# (kind, k, seed) -> why the screen misses that planted set.
SCREEN_MISSES = {
    (DatasetKind.PL, 5, 1): "swamping: planted003 is g177's nearest neighbour (weight 0.24) and lifts g177's R "
                            "from 0.41 to 0.860, past the 0.85 threshold; at k = 12 it reads 0.50",
    (DatasetKind.VL, 5, 3): "masking: planted007 is planted005's fifth neighbour (weight 0.17) and pulls its R "
                            "down to 0.71; at k = 12 it reads 0.91",
}


def _screen_case(kind, k, seed):
    miss = SCREEN_MISSES.get((kind, k, seed))
    return pytest.param(kind, k, seed, marks=[pytest.mark.xfail(strict=True, reason=miss)] if miss else [],
                        id=f"{kind.value}-k{k}-seed{seed}")


@pytest.mark.parametrize("kind, k, seed", [_screen_case(kind, k, seed) for kind in DatasetKind for k in (5, 12)
                                           for seed in range(5)])
def test_screen_flags_exactly_the_planted_outliers(kind, k, seed):
    """The paper's screen against known truth: it flags every planted outlier that survives cleaning, nothing else.

    301 rows of the kind's geo form with log-noise 0.08 (``conftest.form_records``),
    the first 9 scaled by 2.2-3x up or down, as ``perfbench/inputs.py``
    plants them; default threshold 0.85. 18 of the 20 cases hold; the two
    misses at k = 5 (``SCREEN_MISSES``) are one planted row among a row's
    five nearest neighbours, which k = 12 dilutes.

    Detection limit, on seeds 0-4 with every planted row scaled by one
    factor: the planted rows flagged at k = 5 / k = 12, of those that
    survive cleaning. No other row is flagged at any of these factors.

        factor  pl              vl
        1.2     0 / 0 of 45     0 / 0 of 45
        1.4     0 / 0 of 45     0 / 0 of 45
        1.6     2 / 2 of 44     1 / 1 of 45
        1.8     17 / 15 of 42   13 / 15 of 42
        2.0     28 / 28 of 40   33 / 31 of 41
    """
    kept = clean(form_records(ModelKind.PL_GEO if kind is DatasetKind.PL else ModelKind.VL_GEO, seed, planted=9),
                 kind).kept
    planted = [sample_id for sample_id in kept.ids if sample_id.startswith("planted")]
    assert detect_outliers(kept, kind, k=k).flagged_ids() == planted
