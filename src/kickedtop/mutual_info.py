"""Mutual information between two scalar series from k-nearest-neighbour counts.

The estimator is the first (max-norm) variant of the neighbour-counting
family: for each joint sample, eps_i is the Chebyshev distance to its k-th
nearest neighbour, n_a and n_b count the marginal samples strictly closer
than eps_i in each coordinate, and

    I = psi(k) + psi(n) - < psi(n_a + 1) + psi(n_b + 1) >

in nats.  Zero distances break the counting logic, so the inputs get a
deterministic value-keyed jitter of order 1e-10 times the data range before
any distances are computed.

The neighbour search is an exact window search in numpy: each ensemble is
sorted by its coordinate with more distinct values, and each sample's k-th
distance is taken over a window of sorted neighbours that widens until the
gaps in that coordinate prove no sample outside it is closer.  It gives
the bits of a k-d tree's max-norm query without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["MIEstimate", "digamma", "ksg_mi"]

_JITTER_SCALE = 1e-10
# window entries (points times window width) the neighbour search holds at
# once, which bounds its temporary arrays to a few MB for any stack
_KNN_CHUNK = 2**17


@dataclass(frozen=True)
class MIEstimate:
    """Mutual information estimate in nats with the settings that produced it.

    value is a float, or a (B,) array for a stack of B ensembles; n is the
    sample count of each ensemble.
    """

    value: float | np.ndarray
    k: int
    n: int


def digamma(x):
    """psi(x) for real x > 0, elementwise.

    Upward recurrence pushes the argument to >= 6, then the asymptotic
    series through the 1/x**10 term is applied; the truncation error at
    x = 6 is below 1e-11.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("digamma requires finite x > 0")
    scalar = x.ndim == 0
    x = np.atleast_1d(x).copy()
    acc = np.zeros_like(x)
    # six shifts always reach x >= 6 from any positive start
    for _ in range(6):
        small = x < 6.0
        acc[small] -= 1.0 / x[small]
        x[small] += 1.0
    u = 1.0 / (x * x)
    tail = u * (1.0 / 12.0 - u * (1.0 / 120.0 - u * (1.0 / 252.0 - u * (1.0 / 240.0 - u / 132.0))))
    result = acc + np.log(x) - 0.5 / x - tail
    return float(result[0]) if scalar else result


@lru_cache(maxsize=8)
def _psi_table(n: int) -> np.ndarray:
    """psi(1), ..., psi(n) from `digamma`, read-only; entry m - 1 is psi(m).

    digamma works elementwise, so each entry has the bits of a per-call
    digamma(m).  KSG needs psi only at integers 1..n for n samples.
    """
    table = digamma(np.arange(1, n + 1))
    table.setflags(write=False)
    return table


def _standardise(values: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance copy of each row along the last axis.

    Mutual information is invariant under affine maps of either variable,
    but the shared max-norm neighbourhoods are not: with marginals of very
    different scale the wider axis dominates every distance and the
    estimate collapses.  Standardising removes the unit dependence.  A
    constant row is left centred only.

    The moments are accumulated over a sorted copy so that the reduction
    order, and with it every standardised value, is exactly independent of
    the sample order.
    """
    ordered = np.sort(values, axis=-1)
    centred = values - np.mean(ordered, axis=-1, keepdims=True)
    scale = np.std(ordered, axis=-1, keepdims=True)
    return np.divide(centred, scale, out=centred, where=scale > 0.0)


def _jitter(values: np.ndarray, axis: int) -> np.ndarray:
    """Deterministic tie-breaking noise keyed to each value, not its position.

    A 64-bit mix of (bit pattern, axis) is mapped to [-0.5, 0.5) and scaled
    by 1e-10 times the data range of its row (last axis), so permuting the
    samples permutes the jitter with them and repeated runs are
    bit-identical.  Distinct values that collide in distance comparisons
    are separated; exact duplicates stay duplicates by design.
    """
    span = np.max(values, axis=-1, keepdims=True) - np.min(values, axis=-1, keepdims=True)
    span[span == 0.0] = 1.0
    key = ((axis + 1) * 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF
    bits = values.astype(np.float64).view(np.uint64)
    z = bits ^ np.uint64(key)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    unit = z.astype(np.float64) * 2.0**-64 - 0.5
    return values + _JITTER_SCALE * span * unit


def _joint_knn_radii(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Chebyshev distance from each joint sample (a, b) to its k-th neighbour.

    a and b are (B, n): row i holds the n samples of ensemble i, and each
    row is searched on its own.  A row whose b has more distinct values swaps
    a and b, as max(|da|, |db|) allows: the gaps of a tied a are 0, so no
    window short of the row would pass the check below.  Every row is sorted
    by a, and each point takes its distances max(|da|, |db|) to the 2w + 1
    sorted positions around its own (a window clamped inside the row, so it
    holds the point itself at distance 0).  The window's (k + 1)-th smallest
    distance is exact when the window is the whole row, or when |da| to the
    first sorted point outside it is at least that candidate on both sides:
    every point further out is at least as far in a alone, because rounding
    is monotone, and one that ties the candidate does not change it.  Points
    that fail this check are searched again with w doubled.  Each pass runs
    in chunks of at most _KNN_CHUNK window entries.  The distances are the
    float operations of a k-d tree's max-norm query, so the radii have its
    bits, and each row has the bits of a one-row call.
    """
    rows, n = a.shape
    distinct = [np.count_nonzero(np.diff(np.sort(x, axis=-1), axis=-1), axis=-1) for x in (a, b)]
    swap = (distinct[1] > distinct[0])[:, np.newaxis]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    order = np.argsort(a, axis=-1, kind="stable")
    sorted_a = np.take_along_axis(a, order, axis=-1).ravel()
    sorted_b = np.take_along_axis(b, order, axis=-1).ravel()
    radii = np.empty(sorted_a.size)
    # flat positions in the sorted rows whose radius is not yet certified
    pending = np.arange(sorted_a.size)
    w = max(k, math.isqrt(k * n) // 2)
    while pending.size:
        width = min(2 * w + 1, n)
        # row i of these views is the window of sorted positions i .. i + width - 1
        windows_a = sliding_window_view(sorted_a, width)
        windows_b = sliding_window_view(sorted_b, width)
        step = max(1, _KNN_CHUNK // width)
        unresolved = []
        for start in range(0, pending.size, step):
            points = pending[start:start + step]
            row_start = points - points % n
            lo = row_start + np.clip(points % n - w, 0, n - width)
            dist = windows_a[lo]
            dist -= sorted_a[points, np.newaxis]
            np.abs(dist, out=dist)
            dist_b = windows_b[lo]
            dist_b -= sorted_b[points, np.newaxis]
            np.abs(dist_b, out=dist_b)
            np.maximum(dist, dist_b, out=dist)
            del dist_b  # freed before the next chunk allocates its own
            dist.partition(k, axis=-1)
            radius = dist[:, k]
            radii[points] = radius
            hi = lo + width
            left = (lo == row_start) | (np.abs(sorted_a[lo - 1] - sorted_a[points]) >= radius)
            right = (hi == row_start + n) | (
                np.abs(sorted_a[np.minimum(hi, sorted_a.size - 1)] - sorted_a[points]) >= radius
            )
            unresolved.append(points[~(left & right)])
        pending = np.concatenate(unresolved)
        w *= 2
    out = np.empty((rows, n))
    np.put_along_axis(out, order, radii.reshape(rows, n), axis=-1)
    return out


def _strict_marginal_counts(values: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Number of samples with |v_j - v_i| < eps_i, self excluded, per i.

    values and eps are (B, n): each row is one ensemble.  Counting against
    a sorted copy keeps this O(n log n) and exact: the half-open
    searchsorted window [v - eps, v + eps) with 'left'/'right' sides
    realises the strict inequality for positive eps.
    """
    order = np.sort(values, axis=-1)
    upper = values + eps
    lower = values - eps
    counts = np.empty(values.shape, dtype=np.intp)
    for row, ordered in enumerate(order):
        hi = np.searchsorted(ordered, upper[row], side="left")
        lo = np.searchsorted(ordered, lower[row], side="right")
        counts[row] = hi - lo - 1
    return np.where(eps > 0.0, np.maximum(counts, 0), 0)


def ksg_mi(samples, k: int = 3) -> MIEstimate:
    """Mutual information of paired scalars, neighbour variant 1, in nats.

    samples: (n, 2) array of (a, b) pairs, or a (B, n, 2) stack of B
    independent ensembles of n pairs each; n >= k + 2, all values finite.
    A stack gives `value` as a (B,) array whose entry i has the bits of
    ksg_mi(samples[i]).value, and `n` is the per-ensemble count.  Both
    marginals of each ensemble are standardised before distances are
    computed, so the estimate does not depend on the units of either
    variable.  The result is deterministic and exactly invariant under
    permutations of the sample order (the averaged psi terms are sorted
    before summing).
    """
    pairs = np.asarray(samples, dtype=np.float64)
    if pairs.ndim not in (2, 3) or pairs.shape[-1] != 2:
        raise ValueError(f"samples must have shape (n, 2) or (B, n, 2), got {pairs.shape}")
    # C order keeps every reduction along a row in the order a lone (n, 2)
    # call uses; a row strided in memory would be summed in another order
    stack = np.ascontiguousarray(pairs if pairs.ndim == 3 else pairs[np.newaxis])
    n = stack.shape[1]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < k + 2:
        raise ValueError(f"need at least k + 2 = {k + 2} samples, got {n}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("samples must be finite")
    a = _jitter(_standardise(stack[..., 0]), axis=0)
    b = _jitter(_standardise(stack[..., 1]), axis=1)
    eps = _joint_knn_radii(a, b, k)
    n_a = _strict_marginal_counts(a, eps)
    n_b = _strict_marginal_counts(b, eps)
    psi = _psi_table(n)
    terms = np.sort(psi[n_a] + psi[n_b], axis=-1)
    value = float(psi[k - 1]) + float(psi[n - 1]) - np.mean(terms, axis=-1)
    return MIEstimate(value=value if pairs.ndim == 3 else float(value[0]), k=k, n=n)
