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

Per-degree counts over the event clock converge to limits
``e_white_k, e_black_k`` which this module computes by reducing to a
one-colour model (splitting weights ``w_black``, partitioning weights scaled
by ``w_black/w_white`` per split-degree class), splitting each one-colour
density by the per-degree ratio ``e_white/e_black = w_black/(w_white +
w2_white/3)``, and rescaling so ``sum(3*e_white + 2*e_black) = 1``.  The
RNA-folding instance is ``a = 1, b = 0`` with uniform white partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidParameterError, ReductionInvalidError
from .growth import CensusSnapshot, _CensusUrn
from .solver import DensitySolution, UpdateMatrix, _update_matrix, fixed_point_densities
from .weights import (LinearTail, PartitionWeights, SplittingWeights, WeightModel,
                      _two_banded_fn, _uniform_partition)

__all__ = [
    "TwoColourModel",
    "TwoColourEvent",
    "TwoColourState",
    "TwoColourSnapshot",
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
                 family: str = "two-colour", params: Optional[dict] = None):
        if not a - b > 0:
            raise InvalidParameterError(f"needs a - b > 0, got a={a}, b={b}")
        c = a - 1.5 * b
        if white_partition.d_max is None and c < 0:
            raise InvalidParameterError("unbounded model needs slope a - 3b/2 >= 0")
        self.a = float(a)
        self.b = float(b)
        self.family = family
        self.params = dict(params or {})
        self.black = SplittingWeights(c, b)
        if self.black(1) < 0 or SplittingWeights(c, a)(1) < 0:
            raise InvalidParameterError("degree-1 weights must be nonnegative")
        # the white side reuses the one-colour machinery for split-size laws
        self.white = WeightModel(white_partition, SplittingWeights(c, a),
                                 family=f"{family}-white")
        if self.white.linear_fit_residual > 1e-9:
            raise InvalidParameterError(
                "white partitioning weights are inconsistent with w_white "
                f"(max residual {self.white.linear_fit_residual:.3g})")

    def w_white(self, k):
        return self.white.splitting(k)

    def w_black(self, k):
        return self.black(k)

    @property
    def d_max(self) -> Optional[int]:
        return self.white.partition.d_max

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
    return TwoColourModel(a, b, pw, family="two-colour-uniform",
                          params={"a": float(a), "b": float(b)})


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
    return TwoColourModel(a, b, pw, family="two-colour-grafting",
                          params={"a": float(a), "b": float(b), "alpha0": float(alpha0)})


# -- simulation -------------------------------------------------------------------


@dataclass(frozen=True)
class TwoColourEvent:
    t: int
    kind: str                      # "recolour" | "split"
    degree: int
    child_degrees: Optional[tuple[int, int]] = None


@dataclass
class TwoColourSnapshot(CensusSnapshot):
    """Census at event time ``t``: ``counts`` is the degree census of all
    vertices, which ``white`` and ``black`` split by colour."""

    white: np.ndarray
    black: np.ndarray

    CSV_COLUMNS = "n_white,n_black"

    def identity_deviations(self) -> tuple[int, int]:
        """(sum(3*n_white + 2*n_black) - (t+2), sum k*n - (2V-2)) with ``V``
        the vertex count; both are exactly zero for any reachable state."""
        ks = np.arange(1, len(self.counts) + 1)
        colour = int(3 * self.white.sum() + 2 * self.black.sum()) - (self.t + 2)
        return colour, int((ks * self.counts).sum()) - (2 * int(self.counts.sum()) - 2)

    def csv_rows(self, prefix: str) -> str:
        """``prefix`` + ``k,n_white,n_black`` lines for the degrees with a
        vertex."""
        occupied = np.flatnonzero(self.counts)
        return "".join(f"{prefix}{k},{nw},{nb}\n" for k, nw, nb in
                       zip((occupied + 1).tolist(), self.white[occupied].tolist(),
                           self.black[occupied].tolist()))


class TwoColourState(_CensusUrn):
    """Per-degree census of both colours plus the event clock.

    One census urn holds both colours, white degree ``d`` in class
    ``2(d-1)`` and black degree ``d`` in class ``2(d-1)+1``, so one draw
    selects colour and degree at once.  The clock ``t`` defaults to the
    vertex count, which is right for a fresh process started from a single
    edge (t = 2); general states must pass ``t`` explicitly.
    """

    def __init__(self, model: TwoColourModel,
                 white: Optional[list[int]] = None,
                 black: Optional[list[int]] = None,
                 t: Optional[int] = None):
        self.model = model
        white, black = list(white or []), list(black or [])
        slots = [0] * (2 * max(len(white), len(black)))
        slots[0:2 * len(white):2] = white
        slots[1:2 * len(black):2] = black
        super().__init__(slots, t)

    @classmethod
    def single_edge(cls, model: TwoColourModel) -> "TwoColourState":
        """Single edge, both endpoints black, at t = 2."""
        return cls(model, white=[0], black=[2], t=2)

    def _layout(self) -> tuple[WeightModel, int, float]:
        """Split-size model, class stride and the total weight's gain per
        event for ``growth.run_batch``."""
        return self.model.white, 2, self.model.weight_growth_rate

    def _class_weight(self, c: int) -> float:
        d = c // 2 + 1
        return self.model.w_black(d) if c % 2 else self.model.w_white(d)

    def step(self, rng) -> TwoColourEvent:
        c = self.sample_class(rng)
        d = c // 2 + 1
        add, w = self._add, self.weights
        add(c, -1)
        self.t += 1
        if c % 2 == 1:                       # black vertex: recolour to white
            add(c - 1, 1)
            self.total_weight += w[c - 1] - w[c]
            return TwoColourEvent(self.t, "recolour", d)
        k = self.model.white.sample_split(d, rng)   # white vertex: split into blacks
        ell = d + 2 - k
        add(2 * k - 1, 1)
        add(2 * ell - 1, 1)
        self.total_weight += w[2 * k - 1] + w[2 * ell - 1] - w[c]
        return TwoColourEvent(self.t, "split", d, (k, ell))

    # -- invariants ---------------------------------------------------------

    def colour_identity_deviation(self) -> int:
        """``sum(3*n_white + 2*n_black) - (t + 2)``; exactly zero."""
        tot = 3 * sum(self.counts[0::2]) + 2 * sum(self.counts[1::2])
        return tot - (self.t + 2)

    def weight_deviation(self) -> tuple[float, float]:
        """(relative drift vs recomputation, relative deviation from the
        closed form ``(a-b)*t + b``)."""
        m = self.model
        exact = sum(n * w for n, w in zip(self.counts, self.weights) if n)
        closed = m.weight_growth_rate * self.t + m.b
        scale = max(abs(exact), 1.0)
        return (abs(self.total_weight - exact) / scale,
                abs(self.total_weight - closed) / scale)

    def census(self) -> TwoColourSnapshot:
        return self._snapshot(self.t, np.array(self.counts, dtype=np.int64),
                              self.total_weight)

    @staticmethod
    def _snapshot(t: int, slots: np.ndarray, total_weight: float) -> TwoColourSnapshot:
        """Snapshot of the class counts ``slots`` (white degree ``d`` at
        ``2(d-1)``, black at ``2(d-1)+1``)."""
        white, black = slots[0::2], slots[1::2]
        return TwoColourSnapshot(t, white + black, total_weight, white, black)


# -- solving ----------------------------------------------------------------------


def reduce_to_one_colour(model2: TwoColourModel) -> WeightModel:
    """One-colour model with the same summed densities: splitting weights
    ``w_black``, partitioning weights scaled by ``w_black/w_white`` on each
    split-degree class.  The scale factor depends on the split degree
    alone, so a white partition declared ``by_split_degree`` gives a reduced
    one declared so too, with leaf-mass limit ``2c``.  The reduced weights
    carry no ``LinearTail``, even where the white partition has one, so
    their solve truncates with a zero tail."""
    white_pw = model2.white.partition
    w_white = model2.w_white
    w_black = model2.w_black

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

    c = model2.black.a
    limit = None
    if white_pw.tail is not None:
        glim = white_pw.tail.g_limit
        if math.isinf(glim):
            limit = math.inf
        else:
            ratio = 1.0 if c > 0 else (model2.b / model2.a if model2.a else None)
            limit = None if ratio is None else glim * ratio
    elif white_pw.by_split_degree:      # i*w[1, i+1] = 2*w_black(i)/(i+1)
        limit = 2.0 * c if c > 0 else 0.0
    pw = PartitionWeights(fn, d_max=white_pw.d_max,
                          by_split_degree=white_pw.by_split_degree)
    red = WeightModel(pw, model2.black, family="reduced",
                      params={"from": model2.family}, leaf_mass_limit=limit)
    if red.linear_fit_residual > 1e-9:
        raise ReductionInvalidError(
            f"reduced model inconsistent (residual {red.linear_fit_residual:.3g})")
    return red


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
    w2b_half = m2.w_black(2) / 2.0
    w2w_third = m2.w_white(2) / 3.0
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
    ratio = model2.black(ks) / (model2.white.splitting(ks) + model2.w_white(2) / 3.0)
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
