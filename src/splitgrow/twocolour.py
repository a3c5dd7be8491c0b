"""Two-colour vertex splitting: recolouring blacks, splitting whites.

Every vertex is black or white.  A step selects a vertex with weight
``w_black(deg)`` (black) or ``w_white(deg)`` (white); a selected black is
recoloured white, a selected white splits into two *black* children under
the white partitioning weights.  The event clock ``t`` advances on every
step, so recolouring advances ``t`` without adding a vertex; with

    w_white(k) = (a - 3b/2)*k + a,     w_black(k) = (a - 3b/2)*k + b

the running totals obey, exactly,

    sum_k (3*n_white_k + 2*n_black_k) = t + 2
    sum_k (w_white_k*n_white_k + w_black_k*n_black_k) = (a-b)*t + b.

This module holds the model, the reduction and the solve; the process
grows in ``growth.TwoColourState``.  Per-degree counts over the event clock
converge to limits ``e_white_k, e_black_k``, which the solve computes by
reducing to a one-colour model (splitting weights ``w_black``, partitioning
weights scaled by ``w_black/w_white`` per split-degree class), splitting
each one-colour density by the per-degree ratio ``e_white/e_black =
w_black/(w_white + w2_white/3)``, and rescaling so ``sum(3*e_white +
2*e_black) = 1``.  The RNA-folding instance is ``a = 1, b = 0`` with uniform white partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .solver import DensitySolution, UpdateMatrix, _update_matrix, fixed_point_densities
from .weights import (LinearTail, PartitionWeights, SplittingWeights, WeightModel,
                      _two_banded_fn, _uniform_partition)

__all__ = [
    "TwoColourModel",
    "TwoColourSolution",
    "make_rna",
    "make_two_colour_uniform",
    "make_two_colour_grafting",
    "reduce_to_one_colour",
    "solve_two_colour",
    "densities_from_e",
    "rna_closed_form",
]


class TwoColourModel:
    """Weights of the two-colour process.

    ``a`` and ``b`` fix both splitting-weight families (slope ``a - 3b/2``
    forces linear growth of the total weight); ``white_partition`` carries
    the symmetric partitioning weights of white splits, which must be
    consistent with ``w_white`` in the usual pair-sum sense.
    """

    def __init__(self, a: float, b: float, white_partition: PartitionWeights,
                 family: str = "two-colour"):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidParameterError(f"a and b must be finite, got a={a}, b={b}")
        if not a - b > 0:
            raise InvalidParameterError(f"needs a - b > 0, got a={a}, b={b}")
        c = a - 1.5 * b
        if white_partition.d_max is None and c < 0:
            raise InvalidParameterError("unbounded model needs slope a - 3b/2 >= 0")
        self.a = float(a)
        self.b = float(b)
        self.family = family
        self.black = SplittingWeights(c, b)
        if self.black(1) < 0 or SplittingWeights(c, a)(1) < 0:
            raise InvalidParameterError("degree-1 weights must be nonnegative")
        # the white side reuses the one-colour machinery for split-size laws
        self.white = WeightModel(white_partition, SplittingWeights(c, a),
                                 family=f"{family}-white")
        if not self.white.is_linear():
            raise InvalidParameterError(
                "white partitioning weights are inconsistent with w_white "
                f"(max residual {self.white.linear_fit_residual:.3g})")

    @property
    def weight_growth_rate(self) -> float:
        """a - b, which equals w_black(2)/2 and w_white(2)/3."""
        return self.a - self.b

    def __repr__(self):
        return f"TwoColourModel(a={self.a:g}, b={self.b:g}, family={self.family!r})"


def make_two_colour_uniform(a: float, b: float) -> TwoColourModel:
    """Uniform white partitioning: every ordered child pair of a white split
    is equally likely."""
    pw = _uniform_partition(SplittingWeights(a - 1.5 * b, a))
    return TwoColourModel(a, b, pw, family="two-colour-uniform")


def make_rna() -> TwoColourModel:
    """The RNA-folding instance: ``w_white(k) = k+1``, ``w_black(k) = k``,
    uniform white partitioning."""
    m = make_two_colour_uniform(1.0, 0.0)
    m.family = "rna"
    return m


def make_two_colour_grafting(a: float, b: float, alpha0: float) -> TwoColourModel:
    """Two-banded white partitioning: a white split of degree ``i`` sheds a
    leaf with probability ``1 - alpha0*i/(2*w_white_i)`` and otherwise
    produces the pair ``(2, i)``."""
    c = a - 1.5 * b
    if not 0.0 <= alpha0 < 1.0:
        raise InvalidParameterError("alpha0 must lie in [0, 1)")
    pg = c - alpha0 / 2.0
    if pg < 0 or 2 * pg + a <= 0:
        raise InvalidParameterError("leaf mass of white splits must stay positive")

    tail = LinearTail(start=2, pg=pg, qg=a, ph=alpha0 / 2.0, qh=0.0)
    fn = _two_banded_fn(SplittingWeights(c, a), None, 2, None, tail)
    pw = PartitionWeights(fn, d_max=None, tail=tail)
    return TwoColourModel(a, b, pw, family="two-colour-grafting")


# -- solving ----------------------------------------------------------------------


def reduce_to_one_colour(model2: TwoColourModel) -> WeightModel:
    """One-colour model with the same summed densities: splitting weights
    ``w_black``, partitioning weights scaled by ``w_black/w_white`` on each
    split-degree class.  The scale factor depends on the split degree
    alone, so a white partition declared ``by_split_degree`` gives a reduced
    one declared so too, and tends to 1 (``b/a`` when ``c = 0``), which scales
    the white leaf-mass limit.  The reduced weights carry no ``LinearTail``,
    even where the white partition has one, so their solve truncates with a
    zero tail."""
    white_pw = model2.white.partition
    w_white = model2.white.splitting
    w_black = model2.black

    def fn(i, j):
        d = i + j - 2
        dd = np.maximum(d, 1)
        base = white_pw(i, j)
        ww = w_white(dd)
        mass = (d >= 1) & (base != 0.0)
        zero = mass & (ww == 0.0)
        if np.any(zero):
            raise ZeroDivisionError(
                f"white splitting weight vanishes at degree {int(d[zero][0])} "
                "where partition mass exists")
        return np.where(mass, w_black(dd) / np.where(ww == 0.0, 1.0, ww) * base, 0.0)

    limit = model2.white.leaf_mass_limit
    if limit is not None and w_black.a <= 0:    # c = a - 3b/2 <= 0 forces a > b > 0
        limit *= model2.b / model2.a
    pw = PartitionWeights(fn, d_max=white_pw.d_max,
                          by_split_degree=white_pw.by_split_degree)
    return WeightModel(pw, model2.black, family="reduced",
                       params={"from": model2.family}, leaf_mass_limit=limit)


@dataclass
class TwoColourSolution:
    e_white: np.ndarray
    e_black: np.ndarray
    K: int
    residual_selection: np.ndarray      # family: (w_b + w2_b/2) e_b = sum i w_w[k,.] e_w
    residual_colour: np.ndarray         # family: (w_w + w2_w/3) e_w = w_b e_b
    colour_sum_dev: float               # |sum(3 e_w + 2 e_b) - 1|
    weight_sum_dev: float               # |sum(w_w e_w + w_b e_b) - w2_b/2|
    one_colour: DensitySolution         # the reduced model's solution
    warnings: list[str] = field(default_factory=list)
    method = "reduction"                # the solve every two-colour model gets

    @property
    def unsupported(self) -> bool:      # the reduced model's verdict
        return self.one_colour.unsupported

    @property
    def max_residual(self) -> float:
        return max(float(np.max(np.abs(self.residual_selection))),
                   float(np.max(np.abs(self.residual_colour))))


def _two_colour_residuals(m2: TwoColourModel, e_w: np.ndarray, e_b: np.ndarray,
                          B: UpdateMatrix):
    """Residuals of both equation families; ``B`` is the white update matrix
    ``_update_matrix(m2.white, K)``, so the selection gains are ``B @ e_w``."""
    K = len(e_w)
    ks = np.arange(1, K + 1, dtype=float)
    w_w = m2.white.splitting(ks)
    w_b = m2.black(ks)
    w2b_half = m2.black(2) / 2.0
    w2w_third = m2.white.splitting(2) / 3.0
    res_sel = (w_b + w2b_half) * e_b - B @ e_w
    res_col = (w_w + w2w_third) * e_w - w_b * e_b
    colour_dev = abs(float((3.0 * e_w + 2.0 * e_b).sum()) - 1.0)
    weight_dev = abs(float((w_w * e_w + w_b * e_b).sum()) - w2b_half)
    return res_sel, res_col, colour_dev, weight_dev


def solve_two_colour(model2: TwoColourModel, K: int = 512,
                     force_unsupported: bool = False) -> TwoColourSolution:
    """Limiting per-degree counts over the event clock: the reduced
    one-colour model's fixed point, split at each degree by the colour ratio
    ``e_white/e_black = w_black/(w_white + w2_white/3)`` and rescaled so that
    ``sum(3*e_white + 2*e_black) = 1``.

    Substituting that ratio into the selection family turns the truncated
    two-colour system into the reduced one-colour system up to a row
    scaling (because ``w_white - w_black = a - b = w2_black/2``), so solving
    the reduced model solves the truncated two-colour system.
    """
    red = reduce_to_one_colour(model2)
    one = fixed_point_densities(red, K=K, force_unsupported=force_unsupported)
    ks = np.arange(1, one.K + 1, dtype=float)
    w_white = model2.white.splitting
    ratio = model2.black(ks) / (w_white(ks) + w_white(2) / 3.0)
    u = one.densities / (1.0 + ratio)
    lam = 1.0 / float((u * (2.0 + 3.0 * ratio)).sum())
    e_b = lam * u
    e_w = ratio * e_b
    res_sel, res_col, cdev, wdev = _two_colour_residuals(
        model2, e_w, e_b, _update_matrix(model2.white, one.K))
    return TwoColourSolution(e_white=e_w, e_black=e_b, K=one.K,
                             residual_selection=res_sel, residual_colour=res_col,
                             colour_sum_dev=cdev, weight_sum_dev=wdev,
                             one_colour=one, warnings=list(one.warnings))


def densities_from_e(sol: TwoColourSolution) -> tuple[np.ndarray, np.ndarray]:
    """Vertex-normalised degree densities: each colour's counts divided by
    the total vertex density ``sum(e_white + e_black)``."""
    denom = float((sol.e_white + sol.e_black).sum())
    return sol.e_white / denom, sol.e_black / denom


def rna_closed_form(k: int) -> tuple[float, float]:
    """Exact RNA limits ``e_white_k = 2^k k / (e^2 (k+2)!)`` and
    ``e_black_k = 2^k / (e^2 (k+1)!)``."""
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    lw = k * math.log(2.0) + math.log(k) - 2.0 - math.lgamma(k + 3)
    lb = k * math.log(2.0) - 2.0 - math.lgamma(k + 2)
    return math.exp(lw), math.exp(lb)
