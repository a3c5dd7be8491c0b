"""Shared builders for randomised test models."""

import math

import numpy as np
import pytest

from splitgrow import (PartitionWeights, SplittingWeights,
                       derive_splitting_weights, make_alpha_class, make_table)
from splitgrow.solver import UpdateMatrix, _update_matrix

DMAX3_ENTRIES = [(1, 2, 1.0), (1, 3, 0.5), (2, 2, 1.0), (2, 3, 1.0)]


@pytest.fixture
def dmax3():
    """Bounded instance with derived splitting weights (1, 2, 3) and
    stationary densities (1/4, 1/2, 1/4), both solvable by hand."""
    return make_table(3, DMAX3_ENTRIES)


def doubled_split_entries(d_max=300, doubled=250):
    """Table entries ``(i, j, w)`` that put ``w_i = i`` on uniform pairs
    (``2/(d+1)`` for each pair of split degree ``d``) up to ``d_max``, with
    the pairs of split degree ``doubled`` at twice that: the derived weights
    are linear up to ``doubled - 1`` and ``w_doubled = 2*doubled``."""
    return [(k, d + 2 - k, (2.0 if d == doubled else 1.0) * 2.0 / (d + 1))
            for d in range(1, d_max + 1) for k in range(1, d // 2 + 2) if d + 2 - k <= d_max]


def constant_uniform_partition(b=1.0):
    """Uniform partitioning for constant splitting weights ``w_i = b``:
    ``w[i, j] = 2b / (d (d+1))`` with ``d = i + j - 2``."""
    def fn(i, j):
        d = np.maximum(i + j - 2, 1)
        return np.where(i + j - 2 >= 1, 2.0 * b / (d * (d + 1)), 0.0)

    return PartitionWeights(fn)


def singular_at(K_solve):
    """Stand-in for the solver's update-matrix builder: at ``K_solve`` a
    matrix whose rows k >= 2 give M[k, k] = 1, with degree-1 vertices
    splitting (B[1, 0] = 1) so that the elimination, not the degree-1
    check, meets the zero pivot; at any other K (the support verdict's) the
    model's own matrix."""
    def build(model, K):
        if K != K_solve:
            return _update_matrix(model, K)
        B = np.diag(model.w2 + model.splitting_weights(K))
        B[1, 0] = 1.0
        return UpdateMatrix(B, np.empty(0), np.empty(0))
    return build


def dense_band_sums(model, K):
    """The update matrix B[k-1, i-1] = i * w[k, i-k+2] filled densely, one
    column per partition-weight call and the tail columns from g and h: the
    oracle for the solver's structured ``UpdateMatrix``."""
    pw = model.partition
    tail = pw.tail if model.d_max is None else None
    banded_from = max(tail.start, 2) if tail is not None else K + 1
    B = np.zeros((K, K))
    k = np.arange(1, K + 1)
    for i in range(1, min(banded_from, K + 1)):
        B[:, i - 1] = i * pw(k, i - k + 2)
    if banded_from <= K:
        cols = np.arange(banded_from, K + 1)
        g = tail.g(cols.astype(float))
        h = tail.h(cols.astype(float))
        B[0, cols - 1] = g                          # (1, i+1)
        B[cols[:-1], cols[:-1] - 1] = g[:-1]        # (i+1, 1), rows up to K
        B[1, cols - 1] = h                          # (2, i)
        B[cols - 1, cols - 1] += h                  # (i, 2); B[1, 1] = 2*w[2, 2] = 2*h(2)
    return B


def dense_view(B):
    """The dense K x K matrix of an ``UpdateMatrix``, column j being
    ``B @ e_j``: each product reads one column, so the view is exact."""
    return np.stack([B @ e for e in np.eye(B.K)], axis=1)


def derived_weights_by_degree(pw, i_max):
    """``w_i = (i/2) * fsum_k w[k, i+2-k]``, one partition-weight call per
    degree: the oracle for the blocked ``derive_splitting_weights``."""
    out = np.empty(i_max)
    for i in range(1, i_max + 1):
        k = np.arange(1, i + 2)
        out[i - 1] = (i / 2.0) * math.fsum(pw(k, i + 2 - k))
    return out


def random_linear_table(rng, d_max, a=None, b=None, leaf_drop=0.0):
    """Random bounded table whose derived splitting weights are exactly
    a*i + b: draw a sparsity pattern, then rescale every split-degree class
    (the classes partition the entries) to the target weight.

    Guarantees that the top degree can split (for d_max > 2) and, with
    ``leaf_drop = 0``, that every degree is leaf-reachable.  Otherwise each
    leaf split (1, k), k >= 3, is dropped with probability ``leaf_drop`` and
    its class keeps the pair (2, k-1) instead.
    """
    if a is None:
        a = float(rng.uniform(0.0, 2.0))
    if b is None:
        b = float(rng.uniform(0.1, 2.0))
    entries = {}
    for i in range(1, d_max + 1):
        for j in range(i, d_max + 1):
            if not 1 <= i + j - 2 <= d_max:
                continue
            entries[(i, j)] = 0.0 if rng.random() < 0.35 else float(rng.uniform(0.05, 4.0))
    for k in range(2, d_max + 1):
        if leaf_drop and k > 2 and rng.random() < leaf_drop:
            entries[(1, k)] = 0.0
            entries[(2, k - 1)] = float(rng.uniform(0.05, 4.0))
        else:
            entries[(1, k)] = float(rng.uniform(0.05, 4.0))
    # keep the top degree splittable so no class has zero total mass
    entries[(2, d_max)] = float(rng.uniform(0.05, 4.0))
    raw = derive_splitting_weights(
        PartitionWeights.from_table(d_max, [(i, j, w) for (i, j), w in entries.items()]),
        d_max)
    scaled = [(i, j, w * (a * (i + j - 2) + b) / raw[i + j - 3])
              for (i, j), w in entries.items()]
    return make_table(d_max, scaled)


def random_case3_model(rng):
    """Random unbounded model of the two-banded class (random linear head
    rescaled to the splitting weights, eventually constant leaf fraction);
    every update coefficient of the density iteration is nonnegative."""
    a = float(rng.uniform(0.2, 2.0))
    b = float(rng.uniform(0.1, 1.5))
    sw = SplittingWeights(a, b)
    M = int(rng.integers(2, 5))
    alphas = [float(rng.uniform(0.25, 1.0)) for _ in range(int(rng.integers(1, 4)))]
    head = None
    if M > 2:
        entries = {}
        for d in range(1, M):
            pairs = [(j, d + 2 - j) for j in range(1, d + 2) if j <= d + 2 - j]
            for (i, j) in pairs:
                entries[(i, j)] = float(rng.uniform(0.05, 3.0))
            entries[(1, d + 1)] = float(rng.uniform(0.1, 3.0))
        raw_pw = PartitionWeights.from_table(M, [(i, j, w) for (i, j), w in entries.items()])
        raw = derive_splitting_weights(raw_pw, M - 1)
        head = PartitionWeights.from_table(
            M, [(i, j, w * sw(i + j - 2) / raw[i + j - 3]) for (i, j), w in entries.items()])
    return make_alpha_class(sw, alphas, M=M, head=head)
