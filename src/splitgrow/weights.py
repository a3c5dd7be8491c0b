"""Weight models for vertex-splitting trees.

A model is a pair of weight families on degrees:

* partitioning weights ``w[i, j] >= 0``, symmetric in ``(i, j)``, governing
  how a splitting vertex of degree ``i + j - 2`` distributes its edges over
  the two children (which then have degrees ``i`` and ``j``), and
* splitting weights ``w_i`` controlling which vertex splits; consistency
  demands ``w_i = (i/2) * sum_{j=1..i+1} w[j, i+2-j]``.

The built-in families are built here, and the convergence regime is read
from ``s = inf {i * w[1, i+1]}``; ``solver.validate_model`` judges support.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidDegreeError, InvalidParameterError, UnknownTailError

# Largest table d_max and solver truncation K accepted from a config: the
# dense (d_max+1)^2 table and the K x K system each take 512 MiB at 8192.
MAX_DEGREE = 8192

__all__ = [
    "MAX_DEGREE",
    "Regime",
    "SplittingWeights",
    "LinearTail",
    "PartitionWeights",
    "WeightModel",
    "derive_splitting_weights",
    "classify_regime",
    "make_preferential",
    "make_uniform",
    "make_alpha_class",
    "make_grafting",
    "make_table",
]


class Regime(Enum):
    """Convergence regime of a weight model.

    CASE_I   : some leaf-producing weight w[1, i+1] vanishes (in particular
               every bounded-degree model).
    CASE_II  : all w[1, i+1] positive but inf {i * w[1, i+1]} = 0; the
               density iteration carries no convergence guarantee.
    CASE_III : inf {i * w[1, i+1]} > 0 with no forced zero below the bound.
    """

    CASE_I = "I"
    CASE_II = "II"
    CASE_III = "III"


@dataclass(frozen=True)
class SplittingWeights:
    """Linear splitting weights ``w_i = a*i + b``."""

    a: float
    b: float

    def __call__(self, i):
        return self.a * i + self.b

    @property
    def offset(self) -> float:
        """Normalised offset ``x = b/a``; degree statistics of a model with
        ``a != 0`` depend on the weights only through ``x``."""
        if self.a == 0:
            raise InvalidParameterError("offset undefined for constant weights (a = 0)")
        return self.b / self.a


@dataclass(frozen=True)
class LinearTail:
    """Declares that for split degrees ``i >= start`` the only positive
    partitioning weights are the two-banded pair

        w[1, i+1] = g(i)/i   with g(i) = pg*i + qg,
        w[2, i]   = h(i)/i   with h(i) = ph*i + qh,

    except on the diagonal (``i == 2``) where ``w[2, 2] = h(2)/2`` would be
    counted twice by symmetry, so ``w[2, 2] = h(2)`` instead.

    A linear tail admits exact closed forms for all the tail sums the
    density solver needs, which is what makes truncation-free accuracy
    possible for power-law families.
    """

    start: int
    pg: float
    qg: float
    ph: float = 0.0
    qh: float = 0.0

    def g(self, i):
        return self.pg * i + self.qg

    def h(self, i):
        return self.ph * i + self.qh

    @property
    def g_limit(self) -> float:
        """Limit of g(i) = i * w[1, i+1] as i grows."""
        return math.inf if self.pg > 0 else self.qg


class PartitionWeights:
    """Symmetric nonnegative partitioning weights with optional degree bound.

    ``pw(i, j)`` takes integer scalars or numpy integer arrays, broadcast
    together, and returns a float for scalars and a float array otherwise.
    One call reads a whole split-degree class, e.g. the children of a
    degree-``i`` split are ``pw(k, i + 2 - k)`` with ``k = np.arange(1, i + 2)``.

    Parameters
    ----------
    fn : callable
        ``fn(i, j) -> array``, evaluated elementwise on integer arrays of one
        shape with ``1 <= i <= j`` (and ``j <= d_max`` when bounded); it
        returns a float array of that shape.  Symmetry and out-of-range
        zeroing are applied by the wrapper.  A ``fn`` that fails on arrays
        with TypeError, ValueError or IndexError, or returns another shape,
        is refused at construction.
    d_max : int or None
        Finite degree bound; any index beyond it maps to weight zero.
    tail : LinearTail or None
        Two-banded tail description for unbounded families, when available.
    by_split_degree : bool
        Declares that ``w[i, j]`` depends on ``i + j`` alone, so that every
        child pair of a split is equally likely, as in uniform partitioning.
    """

    def __init__(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 d_max: Optional[int] = None, tail: Optional[LinearTail] = None,
                 by_split_degree: bool = False):
        if d_max is not None and d_max < 2:
            raise InvalidParameterError("d_max must be at least 2")
        self._fn = fn
        self.d_max = d_max
        self.tail = tail
        self.by_split_degree = by_split_degree
        # probe on the pairs of degrees <= 2, which every d_max admits
        i, j = np.arange(1, 3)[:, None], np.arange(1, 3)
        try:
            shape = np.shape(fn(np.minimum(i, j), np.maximum(i, j)))
        except (TypeError, ValueError, IndexError) as exc:
            raise InvalidParameterError(
                "partition weight fn(i, j) must accept integer numpy arrays "
                f"and return a float array of their broadcast shape: {exc!r}") from None
        if shape != (2, 2):
            raise InvalidParameterError(
                "partition weight fn(i, j) must return a float array of the "
                f"broadcast shape of its integer array arguments, got shape {shape}")

    def __call__(self, i, j):
        i, j = np.asarray(i), np.asarray(j)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        ok = lo >= 1
        if self.d_max is not None:
            ok &= hi <= self.d_max
        w = np.where(ok, self._fn(np.where(ok, lo, 1), np.where(ok, hi, 1)), 0.0)
        return float(w) if w.ndim == 0 else w

    @classmethod
    def from_table(cls, d_max: int, entries: Iterable[tuple[int, int, float]]) -> "PartitionWeights":
        """Build a bounded-degree table from ``(i, j, weight)`` triples.

        Entries are symmetrised; omitted pairs are zero.  ``d_max`` is an
        integer of at most ``MAX_DEGREE``, the indices are integers and the
        weights numbers; a bool counts as neither.
        """
        if not _is_a(d_max, numbers.Integral):
            raise InvalidParameterError(f"d_max must be an integer, got {d_max!r}")
        d_max = int(d_max)
        if d_max < 2:         # before the (d_max+1)^2 table is allocated
            raise InvalidParameterError("d_max must be at least 2")
        if d_max > MAX_DEGREE:
            raise InvalidParameterError(
                f"d_max must be at most {MAX_DEGREE}, got {d_max}")
        table: dict[tuple[int, int], float] = {}
        for i, j, w in entries:
            if not (_is_a(i, numbers.Integral) and _is_a(j, numbers.Integral)):
                raise InvalidParameterError(
                    f"table indices must be integers, got ({i!r}, {j!r})")
            if not _is_a(w, numbers.Real):
                raise InvalidParameterError(f"weight for ({i}, {j}) must be a number, got {w!r}")
            i, j = int(i), int(j)
            if i < 1 or j < 1:
                raise InvalidParameterError(f"table indices must be >= 1, got ({i}, {j})")
            if i > d_max or j > d_max:
                raise InvalidParameterError(
                    f"table entry ({i}, {j}) exceeds d_max = {d_max}")
            w = float(w)
            if not math.isfinite(w) or w < 0:
                raise InvalidParameterError(f"weight for ({i}, {j}) must be finite and >= 0")
            key = (min(i, j), max(i, j))
            if key in table and table[key] != w:
                raise InvalidParameterError(f"conflicting entries for pair {key}")
            table[key] = w
        dense = np.zeros((d_max + 1, d_max + 1))
        for (i, j), w in table.items():
            dense[i, j] = dense[j, i] = w
        return cls(lambda i, j: dense[i, j], d_max=d_max)


def _is_a(value, kind: type) -> bool:
    """Whether ``value`` is a number of ``kind``, ``numbers.Integral`` or
    ``numbers.Real``, and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


# split degrees read per partition-weight call: wider blocks were no faster,
# and their larger temporaries raised the peak memory of repeated solves
# (by 1 MB at K = 1024 with 64 columns, 2 MB with 128)
_BLOCK = 32


def _band_blocks(pw: PartitionWeights, n: int, rows: int):
    """The children of split degrees ``1 .. n``, ``_BLOCK`` degrees per
    partition-weight call: yields ``(i, w)`` with ``i`` the block's split
    degrees and ``w[k-1, :] = pw(k, i+2-k)`` for the child degrees
    ``k = 1 .. min(i[-1]+1, rows)`` (the band of the block ends at
    ``k = i+1``)."""
    for lo in range(1, n + 1, _BLOCK):
        i = np.arange(lo, min(lo + _BLOCK, n + 1))
        k = np.arange(1, min(int(i[-1]) + 1, rows) + 1)[:, None]
        yield i, pw(k, i - k + 2)


def derive_splitting_weights(pw: PartitionWeights, i_max: int) -> np.ndarray:
    """Splitting weights implied by the partitioning weights.

    Returns ``w_1 .. w_{i_max}`` with ``w_i = (i/2) * sum_{j=1..i+1} w[j, i+2-j]``,
    each sum an exact ``fsum`` of its column.
    """
    if i_max < 1:
        raise InvalidParameterError("i_max must be >= 1")
    out = np.empty(i_max)
    for i, w in _band_blocks(pw, i_max, i_max + 1):
        out[i - 1] = (i / 2.0) * np.array([math.fsum(col) for col in w.T])
    return out


def _linear_fit(derived: np.ndarray,
                line: Optional[SplittingWeights] = None) -> tuple[SplittingWeights, float]:
    """``line`` (by default the line through ``w_1`` and ``w_2``) and its
    largest deviation from the derived weights ``w_1 .. w_n``."""
    if line is None:
        line = SplittingWeights(derived[1] - derived[0], 2.0 * derived[0] - derived[1])
    fitted = line.a * np.arange(1, len(derived) + 1) + line.b
    return line, float(np.max(np.abs(derived - fitted)))


class WeightModel:
    """A partitioning-weight family together with its splitting weights.

    Instances are immutable after construction and safe to share across
    concurrently running simulation replicas.  The per-degree split-size
    distributions are cached lazily; cache writes are idempotent.
    """

    def __init__(self, partition: PartitionWeights,
                 splitting: Optional[SplittingWeights] = None,
                 family: str = "custom", params: Optional[dict] = None,
                 leaf_mass_limit: Optional[float] = None):
        self.partition = partition
        self.family = family
        self.params = dict(params or {})
        # the fit covers a bounded partition to its bound
        derived = derive_splitting_weights(partition, partition.d_max or 16)
        self.splitting, self.linear_fit_residual = _linear_fit(derived, splitting)
        # explicit splitting weights assert consistency; otherwise fall back
        # to the pair-sum weights whenever the linear fit does not hold
        self._trust_linear = splitting is not None or self.is_linear()
        self._derived_cache: dict[int, float] = {
            i + 1: float(v) for i, v in enumerate(derived)}
        self._leaf_mass_limit = leaf_mass_limit
        self._split_cache: dict[int, tuple[list[int], list[float], float]] = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def d_max(self) -> Optional[int]:
        return self.partition.d_max

    def w(self, i: int) -> float:
        """Splitting weight of degree ``i`` (pair-sum weight for tables that
        are not linear-consistent)."""
        if self._trust_linear:
            return self.splitting(i)
        got = self._derived_cache.get(i)
        if got is None:
            k = np.arange(1, i + 2)
            got = (i / 2.0) * math.fsum(self.partition(k, i + 2 - k))
            self._derived_cache[i] = got
        return got

    def splitting_weights(self, k_max: int) -> np.ndarray:
        """Vector ``w_1 .. w_{k_max}``."""
        if self._trust_linear:
            return self.splitting(np.arange(1, k_max + 1, dtype=float))
        return np.array([self.w(i) for i in range(1, k_max + 1)])

    @property
    def w2(self) -> float:
        return self.w(2)

    def is_linear(self) -> bool:
        """Whether ``linear_fit_residual`` is at most 1e-9."""
        return self.linear_fit_residual <= 1e-9

    def leaf_mass(self, i: int) -> float:
        """``i * w[1, i+1]``, the rate at which degree-``i`` splits shed leaves."""
        return i * self.partition(1, i + 1)

    @property
    def sheds_leaves(self) -> bool:
        """Whether every split sheds a leaf: a ``LinearTail`` from degree 1
        with no second band and no degree bound, so a degree-``i`` vertex
        always splits into degrees 1 and ``i + 1``."""
        tail = self.partition.tail
        return (tail is not None and tail.start == 1 and tail.ph == 0 and tail.qh == 0
                and self.d_max is None)

    @property
    def leaf_mass_limit(self) -> Optional[float]:
        """Limit of ``i * w[1, i+1]``, or None when the model does not know it."""
        if self._leaf_mass_limit is not None:
            return self._leaf_mass_limit
        if self.partition.tail is not None:
            return self.partition.tail.g_limit
        if self.d_max is None and self.partition.by_split_degree:
            return 2.0 * self.splitting.a     # i * w[1, i+1] = 2*w_i/(i+1)
        return None

    # -- split-size law ----------------------------------------------------

    def _split_column(self, i: int) -> np.ndarray:
        """``(i/2) * w[k, i+2-k]`` for ``k = 1..i+1``: the weight of the
        ordered child-degree pair ``(k, i+2-k)`` of a degree-``i`` split."""
        if i < 1:
            raise InvalidDegreeError(f"degree must be >= 1, got {i}")
        k = np.arange(1, i + 2)
        return (i / 2.0) * self.partition(k, i + 2 - k)

    def split_distribution(self, i: int) -> tuple[list[int], list[float], float]:
        """Support and cumulative weights of the child-degree pairs of a
        degree-``i`` split: the first child degrees ``k`` with positive
        weight, the running sums of ``(i/2) * w[k, i+2-k]`` over ``k = 1..i+1``
        at those ``k``, and the total ``w_i``.  Only the support is cached,
        so a preferential split of any degree holds two entries.  Past the
        start of a ``LinearTail`` the law is read from the tail, in O(1)."""
        got = self._split_cache.get(i)
        if got is not None:
            return got
        tail = self.partition.tail
        if tail is not None and self.d_max is None and i >= tail.start:
            got = _tail_law(tail, i)
        else:
            col = self._split_column(i)
            pos = col > 0
            cum = np.cumsum(col)                # left to right, like a running sum
            got = (np.flatnonzero(pos) + 1).tolist(), cum[pos].tolist(), float(cum[-1])
        self._split_cache[i] = got
        return got

    def split_probabilities(self, i: int) -> np.ndarray:
        total = self.split_distribution(i)[2]
        if total <= 0:
            raise InvalidDegreeError(f"degree {i} has no admissible split")
        return self._split_column(i) / total

    def sample_split(self, i: int, rng) -> int:
        """Draw the first child degree ``k`` of a degree-``i`` split."""
        ks, cum, total = self.split_distribution(i)
        if total <= 0:
            raise InvalidDegreeError(f"degree {i} has no admissible split")
        return ks[bisect.bisect_right(cum, rng.random() * total)]

    def __repr__(self):
        bound = self.d_max if self.d_max is not None else "inf"
        return (f"WeightModel(family={self.family!r}, params={self.params}, "
                f"w_i={self.splitting.a:g}*i{self.splitting.b:+g}, d_max={bound})")


def _tail_law(tail: LinearTail, i: int) -> tuple[list[int], list[float], float]:
    """``WeightModel.split_distribution`` of a split degree ``i`` past the
    tail's start, in scalar arithmetic.  Only the pairs ``(1, i+1)`` and
    ``(2, i)`` and their reverses can be positive; the zeros between them add
    exactly, so the running sums are those of the whole column."""
    half, g = i / 2.0, tail.g(i) / i
    h = tail.h(i) if i == 2 else tail.h(i) / i
    if i == 1:                          # (1, 2) and (2, 1): the g band twice
        ks, col = [1, 2], [half * g, half * g]
    elif i == 2:                        # (2, 2) on the diagonal, once
        ks, col = [1, 2, 3], [half * g, half * h, half * g]
    else:
        ks, col = [1, 2, i, i + 1], [half * g, half * h, half * h, half * g]
    cum = list(accumulate(col))
    keep = [j for j, c in enumerate(col) if c > 0]
    return [ks[j] for j in keep], [cum[j] for j in keep], cum[-1]


# -- regime ------------------------------------------------------------------


def classify_regime(m: WeightModel) -> tuple[Regime, float]:
    """Classify the convergence regime and compute ``s``.

    For bounded models the infimum runs over ``1 <= i < d_max`` and the bound
    itself forces CASE_I.  For unbounded models the minimum over
    ``1 <= i <= 4096`` is folded with the model's ``leaf_mass_limit``, the
    limit of ``i * w[1, i+1]``; if the model knows none, an UnknownTailError
    is raised rather than extrapolating.
    """
    i = np.arange(1, m.d_max if m.d_max is not None else 4097)
    s_scan = float(np.min(i * m.partition(1, i + 1)))
    if m.d_max is not None:
        return Regime.CASE_I, s_scan
    if s_scan == 0.0:
        return Regime.CASE_I, 0.0
    if m.leaf_mass_limit is None:
        raise UnknownTailError(
            "unbounded model with unknown tail of i*w[1,i+1]; construct the "
            "model with a leaf_mass_limit, a LinearTail or a by_split_degree partition")
    s = min(s_scan, m.leaf_mass_limit)
    if s <= 0.0:
        return Regime.CASE_II, 0.0
    return Regime.CASE_III, float(s)


# -- family constructors ------------------------------------------------------


def _check_splitting_valid(sw: SplittingWeights) -> None:
    """Refuse linear weights of an unbounded model that are not finite, turn
    negative, or are constant and not positive."""
    if not (math.isfinite(sw.a) and math.isfinite(sw.b)):
        raise InvalidParameterError("splitting weight coefficients must be finite")
    if sw.a < 0:
        raise InvalidParameterError("unbounded model needs a >= 0 (weights turn negative)")
    if sw(1) < 0:
        raise InvalidParameterError(f"w_1 = {sw(1):g} < 0")
    if sw.a == 0 and sw.b <= 0:
        raise InvalidParameterError("constant weights must be positive")


def make_preferential(sw: SplittingWeights) -> WeightModel:
    """Attachment-only model: the sole positive partitioning weights are
    ``w[1, i+1] = w[i+1, 1] = w_i / i``, so every split sheds a leaf."""
    _check_splitting_valid(sw)
    tail = LinearTail(start=1, pg=sw.a, qg=sw.b)
    pw = PartitionWeights(_two_banded_fn(sw, None, 1, None, tail), d_max=None, tail=tail)
    return WeightModel(pw, sw, family="preferential", params={"a": sw.a, "b": sw.b})


def make_uniform(x: float) -> WeightModel:
    """Uniform partitioning: a degree-``k`` split picks each ordered child
    pair with the same probability; ``w_i = i + x`` with ``x > -1``."""
    if not (x > -1 and math.isfinite(x)):
        raise InvalidParameterError(f"uniform family needs a finite x > -1, got {x}")
    sw = SplittingWeights(1.0, float(x))
    return WeightModel(_uniform_partition(sw), sw, family="uniform", params={"x": float(x)})


def _uniform_partition(sw: SplittingWeights) -> PartitionWeights:
    """Uniform partitioning for the splitting weights ``sw``: every ordered
    child pair of a degree-d split has weight ``2*w_d/(d(d+1))``."""

    def fn(i, j):
        d = i + j - 2
        dd = np.maximum(d, 1)
        return np.where(d >= 1, 2.0 * sw(dd) / (dd * (dd + 1)), 0.0)

    return PartitionWeights(fn, by_split_degree=True)


def _two_banded_fn(sw: SplittingWeights, alpha_of: Optional[Callable[[np.ndarray], np.ndarray]],
                   start: int, head: Optional[PartitionWeights], tail: LinearTail):
    """Partitioning accessor with head table below ``start`` and the
    two-banded split law ``i*w[1,i+1] = alpha_i*w_i``, ``i*w[2,i] = (1-alpha_i)*w_i``
    from ``start`` on (diagonal pair (2,2) not halved).  ``alpha_of`` is
    evaluated on arrays of degrees ``>= start`` only.  From ``tail.start`` on
    the bands are the tail's ``g(i)`` and ``h(i)``, so that the partition and
    ``WeightModel.split_distribution``, which reads the tail, agree to the
    bit; ``alpha_of`` may be None when the tail starts at ``start``."""

    def fn(i, j):  # i <= j, so i == 1 is the pair (1, d+1) and i == 2 is (2, d)
        d = i + j - 2
        if head is not None:
            low = head(i, j)
        else:                          # forced: w[1,2] = w_1
            low = np.where(d == 1, sw(1), 0.0)
        dt = np.maximum(d, start)
        g, h = tail.g(dt), tail.h(dt)
        if alpha_of is not None:
            al, w = alpha_of(dt), sw(dt)
            past = dt >= tail.start
            g, h = np.where(past, g, al * w), np.where(past, h, (1.0 - al) * w)
        high = np.where(i == 1, g / dt,
                        np.where(i == 2, np.where(dt == 2, h, h / dt), 0.0))
        return np.where(d < 1, 0.0, np.where(d < start, low, high))

    return fn


def make_alpha_class(sw: SplittingWeights, alpha: Sequence[float], M: int = 2,
                     head: Optional[PartitionWeights] = None) -> WeightModel:
    """Two-banded family: for split degrees ``i >= M`` the only admissible
    child pairs are ``(1, i+1)`` (probability ``alpha_i``) and ``(2, i)``.

    ``alpha`` is a sequence of values in (0, 1] for degrees ``M, M+1, ...``;
    the final value extends to all larger degrees and fixes the model's
    ``LinearTail``.  ``head`` supplies the partitioning weights of split
    degrees below ``M``; for ``M == 2`` it may be omitted and
    ``w[1,2] = w_1`` is used.
    """
    if M < 2:
        raise InvalidParameterError("M must be >= 2")
    if M > 2 and head is None:
        raise InvalidParameterError("head table required when M > 2")
    _check_splitting_valid(sw)

    seq = [float(v) for v in alpha]
    if not seq:
        raise InvalidParameterError("alpha sequence must be nonempty")
    for v in seq:
        if not 0.0 < v <= 1.0:
            raise InvalidParameterError(f"alpha values must lie in (0, 1], got {v}")

    def alpha_of(i, _seq=np.array(seq), _M=M):
        return _seq[np.minimum(i - _M, len(_seq) - 1)]

    al = seq[-1]
    tail = LinearTail(start=M + len(seq) - 1, pg=al * sw.a, qg=al * sw.b,
                      ph=(1.0 - al) * sw.a, qh=(1.0 - al) * sw.b)
    fn = _two_banded_fn(sw, alpha_of, M, head, tail)
    pw = PartitionWeights(fn, d_max=None, tail=tail)
    model = WeightModel(pw, sw, family="alpha", params={"M": M})
    if not model.is_linear():
        raise InvalidParameterError(
            "head table is inconsistent with the splitting weights "
            f"(max residual {model.linear_fit_residual:.3g})")
    return model


def make_grafting(alpha: float, gamma: float) -> WeightModel:
    """Attachment-and-grafting family with parameters ``alpha, gamma in [0, 1]``:
    ``w_i = (alpha/2 + 1 - gamma)*i + 2*gamma - alpha - 1`` and split law
    ``alpha_i = 1 - alpha*i / (2*w_i)`` from degree 2 on."""
    if not (0.0 <= alpha <= 1.0 and 0.0 <= gamma <= 1.0):
        raise InvalidParameterError("alpha and gamma must lie in [0, 1]")
    a = alpha / 2.0 + 1.0 - gamma
    b = 2.0 * gamma - alpha - 1.0
    sw = SplittingWeights(a, b)
    if sw(1) < 0:
        raise InvalidParameterError(
            f"w_1 = gamma - alpha/2 = {sw(1):g} < 0; needs gamma >= alpha/2")

    # i * w[1, i+1] = w_i - alpha*i/2 = (1-gamma)*i + 2*gamma - alpha - 1
    tail = LinearTail(start=2, pg=1.0 - gamma, qg=2.0 * gamma - alpha - 1.0,
                      ph=alpha / 2.0, qh=0.0)
    fn = _two_banded_fn(sw, None, 2, None, tail)
    pw = PartitionWeights(fn, d_max=None, tail=tail)
    return WeightModel(pw, sw, family="grafting",
                       params={"alpha": float(alpha), "gamma": float(gamma)})


def make_table(d_max: int, entries: Iterable[tuple[int, int, float]]) -> WeightModel:
    """Bounded-degree model from an explicit ``(i, j, weight)`` table."""
    pw = PartitionWeights.from_table(d_max, entries)
    return WeightModel(pw, None, family="table", params={"d_max": int(d_max)})
