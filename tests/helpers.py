"""Independent naive re-implementations used as oracles by the tests.

These deliberately avoid the package's solver and neighbour machinery so
that agreement is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np

from shale_adsorb.geotemp import EXACT_HIT_DISTANCE_M, haversine_m


def lstsq_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares via the explicit Moore-Penrose pseudo-inverse."""
    return np.linalg.pinv(x) @ y


def naive_normal_solve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Normal equations solved by numpy's LAPACK wrapper."""
    return np.linalg.solve(x.T @ x, x.T @ y)


def naive_loo_errors(records, spec) -> list[float]:
    """Literal delete-row-and-refit leave-one-out, percent signed errors."""
    x = np.array([spec.feature_row(rec) for rec in records], dtype=float)
    y = np.array([spec.response(rec) for rec in records], dtype=float)
    errors = []
    for i in range(len(records)):
        xi = np.delete(x, i, axis=0)
        yi = np.delete(y, i)
        w = naive_normal_solve(xi, yi)
        predicted = spec.inverse_response(float(x[i] @ w))
        actual = getattr(records[i], spec.dependent_var)
        errors.append((actual - predicted) / actual * 100.0)
    return errors


def naive_neighbours(records, variables, k) -> list[tuple[list[int], np.ndarray]]:
    """Brute-force K-NN: each record's k neighbours and their distances.

    Neighbours come in stable ``argsort`` order of the distance, so ties
    go to the lower record index.
    """
    vals = np.array([[getattr(r, v) for v in variables] for r in records], dtype=float)
    q1 = np.percentile(vals, 25, axis=0)
    q3 = np.percentile(vals, 75, axis=0)
    w = 10.0 / (q3 - q1)
    out = []
    for i in range(len(records)):
        d = np.sqrt((((vals - vals[i]) * w) ** 2).sum(axis=1))
        order = [int(j) for j in np.argsort(d, kind="stable") if j != i][:k]
        out.append((order, d[order]))
    return out


def naive_r_values(records, variables, dependent, k) -> np.ndarray:
    """Brute-force weighted relative errors for the K-NN outlier screen."""
    dep = np.array([getattr(r, dependent) for r in records], dtype=float)
    out = []
    for i, (order, dist) in enumerate(naive_neighbours(records, variables, k)):
        total = dist.sum()
        if k == 1 or total == 0.0:
            wr = np.full(k, 1.0 / k)
        else:
            wr = (total - dist) / ((k - 1) * total)
        numerator = float(wr @ np.abs(dep[i] - dep[order]))
        denominator = min(float(dep[order].mean()), float(dep[i]))
        out.append(numerator / denominator)
    return np.array(out)


def naive_idw(samples, lon, lat, power, max_neighbors, distance=haversine_m) -> float:
    """Per-pair inverse-distance weighting, the loop the IDW kernel replaced.

    ``distance`` (``haversine_m``) per sample, a stable sort (ties by
    ascending index), the exact hit from the first sample in that order,
    then one weight ``d ** -power`` and one in-order sum term per neighbour.
    """
    distances = [distance(lon, lat, p.lon, p.lat) for p in samples]
    order = sorted(range(len(samples)), key=distances.__getitem__)
    if distances[order[0]] < EXACT_HIT_DISTANCE_M:
        return samples[order[0]].grad_t
    numerator = 0.0
    denominator = 0.0
    for i in order[:max_neighbors]:
        w = distances[i] ** -power
        numerator += w * samples[i].grad_t
        denominator += w
    return numerator / denominator
