"""K-nearest-neighbour outlier screening over cleaned adsorption datasets.

Records are compared by a weighted Euclidean distance over the dataset's
independent variables, with per-variable weights set from the interquartile
range so that the normalisation is robust to the very outliers being hunted.
A record is flagged when the distance-weighted relative difference between
its dependent value and its neighbours' exceeds a threshold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .dataset import DatasetKind, SampleTable, require_int, write_csv

DEFAULT_K = 5
DEFAULT_THRESHOLD = 0.85

#: Numerator of the IQR weight; any common positive factor cancels in the
#: neighbour weights, so this only fixes the scale of reported distances.
IQR_WEIGHT_SCALE = 10.0

#: Distances held by one block of the neighbour search: 2**17 float64, 1 MiB.
BLOCK_ELEMENTS = 2 ** 17

#: Mean records per cell of the neighbour search's grid.
CELL_ROWS = 48


class ZeroIqrError(ValueError):
    """A distance variable has zero interquartile range, so no weight exists."""

    def __init__(self, variable: str):
        super().__init__(f"variable {variable} has zero interquartile range")
        self.variable = variable


@dataclass(frozen=True)
class DistanceWeights:
    """Per-variable weights for the statistical distance."""

    by_variable: dict[str, float]

    def __post_init__(self):
        for name, w in self.by_variable.items():
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"weight for {name} must be positive and finite, got {w!r}")


@dataclass(eq=False)
class OutlierReport:
    """Per-record weighted relative errors (float64) and outlier flags (bool), with (n, k) neighbour arrays."""

    ids: list[str]
    r_values: np.ndarray
    flagged: np.ndarray
    threshold: float
    k: int
    neighbor_indices: np.ndarray
    neighbor_weights: np.ndarray

    def flagged_ids(self) -> list[str]:
        return [i for i, f in zip(self.ids, self.flagged) if f]

    def inliers(self, samples: SampleTable) -> SampleTable:
        """The samples that were not flagged, in input order."""
        if len(samples) != len(self.flagged):
            raise ValueError("record list does not match this report")
        return samples.take(~self.flagged)

    def to_csv(self) -> str:
        """Serialise as ``id,R,flagged,neighbor_ids,neighbor_weights``.

        Neighbour lists are semicolon-joined within their cells.
        """
        ids = self.ids
        return write_csv(("id", "R", "flagged", "neighbor_ids", "neighbor_weights"), [
            ids, self.r_values, np.where(self.flagged, "true", "false").tolist(),
            _JoinedCells(self.neighbor_indices, ids.__getitem__), _JoinedCells(self.neighbor_weights, repr),
        ])


@dataclass(frozen=True, eq=False)
class _JoinedCells:
    """Cell i: row i of ``matrix`` as Python numbers, each through ``text``, ``;``-joined; made per slice taken."""

    matrix: np.ndarray
    text: Callable

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, rows: slice) -> list[str]:
        return [";".join(map(self.text, cells)) for cells in self.matrix[rows].tolist()]


def _linear_quantiles(ordered: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The quantiles ``q`` of the ascending float64 array ``ordered``, ``==`` ``np.quantile``'s ``linear`` method.

    Hyndman and Fan's (1996) type 7, by NumPy's own steps: the virtual index
    ``(n - 1) * q``, its floor and the next index, both -1 from ``n - 1`` on,
    ``gamma`` the virtual index less the lower one, and NumPy's ``_lerp``,
    which interpolates from the upper value where ``gamma >= 0.5``. A NaN
    (sorted last) makes every quantile NaN. The bits are NumPy's, but for
    the sign of a zero: ``np.sort`` and NumPy's partition may leave ``-0.0``
    and ``0.0`` in either order. ``np.quantile`` itself is not called: its
    ``np.unique`` imports ``numpy.ma`` on a process's first call.
    """
    n = len(ordered)
    if np.isnan(ordered[-1]):
        return np.full(len(q), ordered[-1])
    virtual = (n - 1) * q
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    last = virtual >= n - 1
    below[last] = above[last] = -1
    a, b, gamma = ordered[below], ordered[above], virtual - below
    return np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma)


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """Lower and upper quartile by linear interpolation at positions p*(n-1)."""
    if len(values) < 2:
        raise ValueError("need at least two values for quartiles")
    q1, q3 = _linear_quantiles(np.sort(np.asarray(values, dtype=float)), np.array([0.25, 0.75])).tolist()
    return q1, q3


def compute_weights(samples: SampleTable, variables: Sequence[str]) -> DistanceWeights:
    """IQR-based distance weight for each active variable, over the full dataset."""
    weights: dict[str, float] = {}
    for var in variables:
        q1, q3 = quartiles(samples.values(var, f"record {{id}} is missing distance variable {var}"))
        if q3 - q1 == 0.0:
            raise ZeroIqrError(var)
        weights[var] = IQR_WEIGHT_SCALE / (q3 - q1)
    return DistanceWeights(weights)


def _check_neighbour_count(k: int, n: int) -> int:
    """``k`` as an ``int``, checked to be a whole count from 1 to n - 1."""
    k = require_int("k", k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} records for k={k}, got {n}")
    return k


def _distance_columns(samples: SampleTable, weights: DistanceWeights) -> list[tuple[float, np.ndarray]]:
    """(weight, values) per distance variable, in ``weights.by_variable`` order."""
    return [(w, samples.values(var, f"distance variable {var} missing from record {{id}}"))
            for var, w in weights.by_variable.items()]


def _nearest(
    rows: np.ndarray, cand: np.ndarray, columns: list[tuple[float, np.ndarray]], k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the k nearest of the records ``cand`` to each record in ``rows``.

    ``cand`` holds record indices in ascending order, ``rows`` among them.
    Builds the (rows x cand) distance block variable by variable, excludes
    each row's own record, and orders neighbours by (distance, index) with
    :func:`nearest_first`. This is the only distance arithmetic of the
    screen: every neighbour, tie and bound comes from it.
    """
    m = len(rows)
    acc = np.zeros((m, len(cand)))
    for w, col in columns:
        d = col[rows, None] - col[cand]
        d *= w
        d *= d
        acc += d
    dist = np.sqrt(acc, out=acc)
    dist[np.arange(m), np.searchsorted(cand, rows)] = np.inf
    order, nearest = nearest_first(dist, k)
    return cand[order], nearest


def _chunks(rows: np.ndarray, width: int) -> list[np.ndarray]:
    """``rows`` in consecutive pieces whose (piece x width) blocks hold about ``BLOCK_ELEMENTS``."""
    step = max(1, BLOCK_ELEMENTS // width)
    return [rows[start:start + step] for start in range(0, len(rows), step)]


def _neighbours(columns: list[tuple[float, np.ndarray]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of every record's k nearest records, by (distance, index).

    Each cell of :func:`_cells` is one :func:`_nearest` search over its
    candidates, in chunks of rows whose blocks hold about
    ``BLOCK_ELEMENTS`` distances. The candidates are in record order and
    hold every neighbour and every tie, so neighbours and distances equal
    an all-pairs search bit for bit; ``tests/helpers.py`` holds that
    search as the oracle.
    """
    n = len(columns[0][1])
    idx = np.empty((n, k), dtype=np.intp)
    dist = np.empty((n, k))
    for rows, cand in _cells(columns, k):
        for chunk in _chunks(rows, len(cand)):
            idx[chunk], dist[chunk] = _nearest(chunk, cand, columns, k)
    return idx, dist


def _cells(columns: list[tuple[float, np.ndarray]], k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each grid cell's records and the candidates for their k nearest, both in record order.

    An exact fixed-radius grid search (Bentley, Stanat and Williams, IPL
    1977). Each variable is cut at its quantiles into g cells, so that a
    cell holds about ``CELL_ROWS`` records, and the records are ordered by
    cell. For each cell, ``ub`` is the largest k-th distance from one of
    its records to a probe: the cell's records plus k records either side
    in cell order, searched by :func:`_nearest`. A record can be a
    neighbour of a cell record, or tie with its k-th, only if it is within
    ``ub`` of it, so only the records inside the cell's range widened by
    ``ub / w`` on every variable are candidates. Below ``CELL_ROWS * 2**d``
    records the grid is one cell: every record, with no probe.
    """
    n = len(columns[0][1])
    g = int((n / CELL_ROWS) ** (1 / len(columns)))
    if g < 2:
        everyone = np.arange(n)
        yield everyone, everyone
        return
    cell = np.zeros(n, dtype=np.intp)
    for _, col in columns:
        cell = cell * g + np.searchsorted(_linear_quantiles(np.sort(col), np.arange(1, g) / g), col, side="right")
    order = np.argsort(cell, kind="stable")
    starts = np.flatnonzero(np.diff(cell[order], prepend=-1))
    ranges = [
        (np.minimum.reduceat(col[order], starts).tolist(), np.maximum.reduceat(col[order], starts).tolist())
        for _, col in columns
    ]
    first = columns[0][1]
    by_first = np.argsort(first, kind="stable")
    first_sorted = first[by_first]
    for c, (start, end) in enumerate(itertools.pairwise([*starts.tolist(), n])):
        rows = order[start:end]
        probe = np.sort(order[max(0, start - k):end + k])
        ub = max(_nearest(chunk, probe, columns, k)[1][:, -1].max() for chunk in _chunks(rows, len(probe)))
        # A record outside the box differs from every cell record by more
        # than bound / w on some variable, and that term alone makes the
        # computed distance exceed ub: each step of _nearest rounds
        # monotonically, 2**-30 covers their relative rounding, and the
        # 2**-500 floor keeps the square clear of underflow.
        bound = max(float(ub), 2.0 ** -500) * (1.0 + 2.0 ** -30)
        box = [(lo[c] - bound / w, hi[c] + bound / w) for (w, _), (lo, hi) in zip(columns, ranges)]
        slab = by_first[np.searchsorted(first_sorted, box[0][0], side="left"):
                        np.searchsorted(first_sorted, box[0][1], side="right")]
        keep = np.ones(len(slab), dtype=bool)
        for (_, col), (low, high) in zip(columns[1:], box[1:]):
            values = col[slab]
            keep &= (values >= low) & (values <= high)
        yield rows, np.sort(slab[keep])


def nearest_first(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of the k smallest entries in each row of ``dist``, by (value, column).

    That is the first k of a stable ``argsort`` of each row. Below the
    full width, every column within the row's k-th smallest value is kept,
    so ties at that value are all candidates, and :func:`first_k_of_candidates`
    picks the first k. At the full width each row is sorted with the default
    (unstable, SIMD) ``argsort``, and only the rows whose sorted values are
    not strictly increasing (an equal pair, ``-0.0`` next to ``0.0``, or a
    NaN) are sorted again with ``kind="stable"``: a strictly increasing row
    has one sorting permutation, so every row gets the stable one.
    """
    m, n = dist.shape
    if k == n:
        order = np.argsort(dist, axis=1)
        values = np.take_along_axis(dist, order, axis=1)
        tied = np.flatnonzero(~(values[:, 1:] > values[:, :-1]).all(axis=1))
        if tied.size:
            rows = dist[tied]
            order[tied] = np.argsort(rows, axis=1, kind="stable")
            values[tied] = np.take_along_axis(rows, order[tied], axis=1)
        return order, values
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    r, c = np.nonzero(dist <= kth[:, None])
    return first_k_of_candidates(r, c, dist[r, c], m, k)


def first_k_of_candidates(
    r: np.ndarray, c: np.ndarray, values: np.ndarray, m: int, k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of the k smallest candidates in each of m rows, by (value, column).

    Candidate i is entry (``r[i]``, ``c[i]``) with value ``values[i]``, in
    row-major order, as ``np.nonzero`` gives them; every row holds at least k.
    Each row's candidates are laid out left-aligned in an ``inf``-padded
    matrix and sorted with a stable ``argsort``: candidates of equal value
    keep their column order, and the padding sorts after every candidate.
    """
    counts = np.bincount(r, minlength=m)
    starts = np.cumsum(counts) - counts
    padded = np.full((m, counts.max()), np.inf)
    padded[r, np.arange(len(r)) - starts[r]] = values
    take = np.argsort(padded, axis=1, kind="stable")[:, :k] + starts[:, None]
    return c[take], values[take]


def _score(dist: np.ndarray, dep: np.ndarray, dep_neighbors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R values and neighbour weights of m records from their ordered neighbours.

    ``dist`` and ``dep_neighbors`` are (m, k): the distances and dependent
    values of each record's neighbours, nearest first; ``dep`` holds the
    records' own dependent values. Each step is one array operation, and
    each row rounds as the same steps on that row alone: a row's ``sum``,
    ``mean`` and ``vecdot`` are the 1-D ``sum``, ``mean`` and ``@``.
    """
    m, k = dist.shape
    total = dist.sum(axis=1, keepdims=True)
    # Rows left out keep the uniform weights: the only weight of a single
    # neighbour, and the limit of the formula as the distances coincide at 0.
    w = np.divide(total - dist, (k - 1) * total, out=np.full((m, k), 1.0 / k), where=(total != 0.0) & (k > 1))
    numerator = np.vecdot(w, np.abs(dep[:, None] - dep_neighbors))
    mean = dep_neighbors.mean(axis=1)
    # Python's min(mean, dep): the mean unless dep is strictly smaller.
    return numerator / np.where(dep < mean, dep, mean), w


def weighted_relative_error(
    index: int,
    samples: SampleTable,
    weights: DistanceWeights,
    k: int,
    dependent: str,
) -> tuple[float, list[int], list[float]]:
    """Distance-weighted relative error of one record against its k neighbours.

    Neighbours are the k records (excluding ``index``) with the smallest
    statistical distance, ties broken by ascending record index. The weight
    of neighbour j is (S - D_j) / ((k-1) * S) with S the sum of the k
    neighbour distances; when S is zero (k exact duplicates) the weights are
    uniform. The relative error divides the weighted absolute difference of
    dependent values by the smaller of the test record's dependent value and
    the unweighted neighbour mean.

    This is a one-row call of the kernel ``detect_outliers`` runs over
    every record; its oracles are in ``tests/helpers.py``. Returns (R,
    neighbour indices, neighbour weights).
    """
    n = len(samples)
    k = _check_neighbour_count(k, n)
    index = range(n)[index]
    idx, dist = _nearest(np.array([index]), np.arange(n), _distance_columns(samples, weights), k)
    neighbors = idx[0].tolist()
    deps = samples.take([index, *neighbors]).values(
        dependent, f"dependent variable {dependent} missing from record or neighbours")
    r, w = _score(dist, deps[:1], deps[None, 1:])
    return r.item(), neighbors, w[0].tolist()


def detect_outliers(
    samples: SampleTable,
    kind: DatasetKind,
    k: int = DEFAULT_K,
    threshold: float = DEFAULT_THRESHOLD,
) -> OutlierReport:
    """Flag outliers in a single simultaneous pass over the cleaned dataset.

    Distance weights are computed once from the full dataset (outliers
    included), every record's R value is computed against the full remaining
    dataset, and all records with R > threshold are flagged at once.

    The neighbour search is exact and grid-pruned (:func:`_cells`): each
    record is compared only with the candidates near its grid cell, so
    spread-out data costs O(n * c * d) arithmetic for d distance variables
    and c candidates per record (a few hundred at 10k records) instead of
    O(n^2 * d). Below ``CELL_ROWS * 2**d`` records the grid is one cell,
    and that is the all-pairs search. One block holds about
    ``BLOCK_ELEMENTS`` distances whatever n is. Distances use correctly
    rounded squares, so they agree bit for bit with the oracle
    ``statistical_distance`` in ``tests/helpers.py``, and neighbours and
    distances equal those of its blocked all-pairs search
    ``blocked_neighbours``. Scoring every record from its k neighbours is
    then O(n * k) NumPy work in a few whole-array operations, with no
    per-record Python; each R and weight equals the oracle
    ``naive_relative_error`` there bit for bit.
    """
    n = len(samples)
    k = _check_neighbour_count(k, n)
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    weights = compute_weights(samples, kind.independent_vars)
    columns = _distance_columns(samples, weights)
    dependent = kind.dependent_var
    dep = samples.values(dependent, f"dependent variable {dependent} missing from record or neighbours")
    idx, dist = _neighbours(columns, k)
    r, w = _score(dist, dep, dep[idx])
    return OutlierReport(
        ids=list(samples.ids), r_values=r, flagged=r > threshold, threshold=threshold, k=k,
        neighbor_indices=idx, neighbor_weights=w,
    )
