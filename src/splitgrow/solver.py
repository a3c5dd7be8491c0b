"""Limiting degree densities from the stationary census equations.

Every one-colour model has one solve, ``fixed_point_densities``, and one
verdict on its support, ``validate_model``, which reads the derived splitting
weights from the update matrix's ``column_sums``.  The solve and ``experiment``
refuse a failing verdict through ``check_support`` unless forced, and a
forced solve is marked ``unsupported``.

Every model gets one system, solved by ``_solve_stationary``: rows
k = 2..K read ``(w_2 + w_k) a_k = sum_{i>=k-1} i*w[k,i-k+2] * a_i`` and
row 1 reads ``sum a + (mass beyond K) = 1``.  For linear weights with
``s = inf {i*w[1,i+1]} > 0``, the models the paper covers, its solution is
also the minimal solution of the fixed-point system ``a = M a + c``, whose
row 1 is ``a_1 = (s + sum_{i>=2} (i*w[1,i+1] - s) a_i) / (w_2 + s)``.
Truncated, that row drops ``sum_{i>K} (i*w[1,i+1] - s) a_i``, which grows
with the degree, where the normalised row drops only the mass beyond K.
``iterate_from_below`` keeps the fixed-point form and reaches its minimal
solution from the zero vector, the paper's constructive route; no command
runs it, and it is the oracle the solve is checked against.

For unbounded models whose tail is two-banded with linear band masses
(``i*w[1,i+1] = pg*i+qg``, ``i*w[2,i] = ph*i+qh`` beyond some degree), the
sums over ``i > K`` are closed exactly: beyond the truncation the stationary
equations collapse to the two-term recursion
``a_i = a_{i-1} * g(i-1) / (w_2 + g(i))``, whose ratio products are Gamma
ratios, and the telescoping identity

    sum_{i>=N} Gamma(i+u)/Gamma(i+w) = Gamma(N+u) / ((w-1-u)*Gamma(N+w-1))

turns every required tail sum into a closed expression: the tail mass
``Q0 a_K`` in row 1 and ``Qh a_K`` in row 2.  The truncated system then
has the *exact* restriction of the infinite solution as its solution,
which lets power-law families meet tight tolerances at moderate K.  A
bounded model is solved at K = d_max, and a forced unsupported model is
truncated at K with a zero tail.  The closure travels with the update
matrix (``UpdateMatrix.closure``), so the solve, the iteration and the
residual report read the same sums.  Two-colour models reach this solve
through ``twocolour.solve_two_colour``.

A degree-k vertex only feeds degrees up to k+1, so the system is upper
Hessenberg, with the leaf-split masses ``(k-1)*w[k,1]`` on the subdiagonal.
``_hessenberg_solve`` solves it in O(K^2): partial pivoting only ever swaps
adjacent rows (Golub & Van Loan, *Matrix Computations*, Hessenberg LU).

The update matrix ``B[k-1, i-1] = i*w[k, i-k+2]`` is assembled once per
(model, K) as an ``UpdateMatrix`` and shared by the solve and its residual
report.  Its columns below the start of a declared ``LinearTail`` form a
dense head, read from the partitioning weights in blocks of columns, so
every model's partitioning weights must follow the array contract of
``PartitionWeights``.  The columns from the tail's start on hold four
bands, stored as the vectors ``g`` and ``h``.  Every row below the head is
then bidiagonal, so those rows are eliminated in closed form (one
cumulative product) and folded into the head's last column; only the head
goes through ``_hessenberg_solve``.  A tail family costs O(K) time and
memory.

A partition declared ``by_split_degree`` (``uniform`` and the two-colour
uniform reductions, ``rna`` among them) has ``B = U diag(beta)``, with ``U``
the upper-Hessenberg matrix of ones and ``beta_i = i*w[1, i+1]``: ``B`` is
stored as ``beta`` and ``B @ x`` is one suffix sum.  Subtracting row k+1
from row k of rows 2..K leaves a three-term recurrence whose minimal
solution ``_recurrence_solve`` finds backwards from K, also in O(K), up to
a scale that row 1 then fixes; forced solves of these partitions take the
same recurrence.  Dense heads and ``_hessenberg_solve`` then serve tables
and undeclared custom partitions only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (InvalidParameterError, NoConvergenceError, NonPositiveError,
                     RankDeficientError, RegimeError, SingularSystemError)
from .weights import (LinearTail, Regime, WeightModel, _band_blocks, _linear_fit,
                      classify_regime)

__all__ = [
    "ConditionReport",
    "ValidationReport",
    "validate_model",
    "check_support",
    "ResidualReport",
    "TailClosure",
    "DensitySolution",
    "UpdateMatrix",
    "fixed_point_densities",
    "iterate_from_below",
    "residuals",
]


@dataclass
class ResidualReport:
    """Stationarity residuals ``r_k = a_k*(w_2+w_k) - sum_i i*w[k,i-k+2]*a_i``
    (tail sums closed when the model admits it) plus the deviations of the
    two census normalisations and the estimated mass beyond the truncation."""

    per_k: np.ndarray
    sum_dev: float
    moment_dev: float
    tail_mass: float

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.per_k))) if len(self.per_k) else 0.0


@dataclass
class DensitySolution:
    densities: np.ndarray
    K: int
    method: str
    regime: Regime
    s: float
    residuals: ResidualReport
    unsupported: bool = False
    warnings: list[str] = field(default_factory=list)
    closure: Optional[TailClosure] = None
    # the order of the dense Hessenberg elimination: K when every column is
    # dense, 0 when the solve is the recurrence of a by_split_degree partition
    head_size: int = 0
    # not a field: the solve is direct.  The benchmark tracer
    # (perfbench/tracing.py) reads it until ROADMAP item 18 deletes the tracer
    iterations = 0

    @property
    def monotone_ok(self) -> bool:
        """Every density >= -1e-15, as the minimal solution is nonnegative."""
        return bool(self.densities.min() >= -1e-15)

    @property
    def sum_a(self) -> float:
        return float(self.densities.sum())

    @property
    def sum_ka(self) -> float:
        return float((np.arange(1, self.K + 1) * self.densities).sum())

    def __getitem__(self, k: int) -> float:
        """Density of degree ``k`` (1-based)."""
        return float(self.densities[k - 1])


# -- tail closure ---------------------------------------------------------------


class TailClosure(NamedTuple):
    """How a solve treats the degrees beyond its truncation K.

    ``kind`` is ``"gamma"`` (Gamma-ratio tail sums, ``pg > 0``),
    ``"geometric"`` (``pg = 0 < qg``), ``"zero"`` (the tail carries no mass)
    or ``"none"``, with ``reason`` saying why and ``warnings`` for the
    solution.  The sums over ``i > K`` are all relative to a_K:
    Q0 = sum R_i, Q0m = sum i*R_i, Qg = sum g(i)*R_i, Qh = sum h(i)*R_i,
    where R_i = a_i/a_K under the two-term tail recursion, or zero for a
    zero tail."""

    kind: str
    reason: str = ""
    warnings: tuple = ()
    Q0: float = 0.0
    Q0m: float = 0.0
    Qg: float = 0.0
    Qh: float = 0.0


def _tail_closure(tail: LinearTail, w2: float, K: int) -> TailClosure:
    """The closure of a ``LinearTail`` at K."""
    def none(reason):
        note = "tail closure unavailable; zero-tail truncation used"
        return TailClosure("none", reason, (note,))

    if K < max(tail.start, 2):
        return none("K below the tail start")
    pg, qg, ph, qh = tail.pg, tail.qg, tail.ph, tail.qh
    if pg < 0 or tail.g(K + 1) < 0:
        return none("negative leaf mass beyond K")
    if pg > 0:
        u = qg / pg
        v = (qg + w2) / pg
        if v - u <= 1:          # sum i*a_i would diverge; no valid closure
            return none("sum k*a_k diverges")
        con = (K + u) / (v - u)
        lin = (K + u) * (K + 1 + u) / (v - u - 1)
        return TailClosure("gamma", Q0=con, Q0m=lin - u * con, Qg=pg * lin,
                           Qh=ph * lin + (qh - ph * u) * con)
    if qg == 0:
        return TailClosure("zero")
    r = qg / (w2 + qg)
    geo = r / (1.0 - r)                      # = qg / w2
    q0m = K * geo + geo / (1.0 - r)
    return TailClosure("geometric", Q0=geo, Q0m=q0m, Qg=qg * geo, Qh=ph * q0m + qh * geo)


def _closure_for(model: WeightModel, K: int) -> TailClosure:
    """The model's tail closure at K, or a zero tail with its reason."""
    if model.d_max is not None:
        return TailClosure("none", "bounded model")
    pw = model.partition
    if pw.by_split_degree:
        # a_k/a_{k-1} is about beta_{k-1}/(w_2 + w_k), below 2/k for linear
        # weights: the degrees beyond K carry a negligible mass
        note = "super-exponential tail; zero-tail truncation used"
        return TailClosure("none", note, (note,))
    if pw.tail is not None:
        return _tail_closure(pw.tail, model.w2, K)
    return TailClosure("none", "no tail metadata",
                       ("unbounded model without tail metadata; "
                        "zero-tail truncation may bias low degrees",))


# -- the update matrix ------------------------------------------------------------

class UpdateMatrix:
    """The K x K update matrix ``B[k-1, i-1] = i*w[k, i-k+2]`` by structure.

    Column i holds the children of a degree-i split.  ``head`` holds the
    first n columns densely, rows ``k <= min(n+1, K)`` (the band ends at
    k = i+1).  From the start of a declared ``LinearTail`` on, an unbounded
    model's only children are (1, i+1) and (2, i), so columns ``i > n`` hold
    four bands: ``g(i)`` in row 1 and on the subdiagonal (row i+1), ``h(i)``
    in row 2 and on the diagonal (row i).  ``g`` and ``h`` hold those
    masses for ``i = n+1..K``; they are empty when every column is dense.

    A partition declared ``by_split_degree`` gives every row of column i's
    band the same entry, ``beta_i = i*w[1, i+1]``, so ``B = U diag(beta)``
    with ``U`` the upper-Hessenberg matrix of ones.  That layout stores
    ``beta`` alone; ``head``, ``g`` and ``h`` are empty and there is no head
    system.

    ``closure`` closes the sums beyond K for every solve and residual report
    made with the matrix; it is a zero tail by default.
    """

    __slots__ = ("head", "g", "h", "beta", "closure")

    def __init__(self, head: np.ndarray, g: np.ndarray, h: np.ndarray,
                 beta: Optional[np.ndarray] = None, closure=TailClosure("none")):
        self.head, self.g, self.h, self.beta, self.closure = head, g, h, beta, closure

    @property
    def K(self) -> int:
        if self.beta is not None:
            return len(self.beta)
        return self.head.shape[1] + len(self.g)

    @property
    def head_size(self) -> int:
        """Order m of the head system ``B[:m, :m]``; rows m..K-1 are
        bidiagonal.  It is 0 for ``beta``."""
        return self.head.shape[0]

    def first_row(self) -> np.ndarray:
        """Row 0 of B, the leaf masses ``i*w[1, i+1]`` for i = 1..K."""
        if self.beta is not None:
            return self.beta
        return np.concatenate([self.head[0], self.g])

    def square_head(self) -> np.ndarray:
        """``B[:m, :m]``: the dense columns and, when there is a tail, its
        first column.  It is ``head`` itself when every column is dense."""
        m, n = self.head.shape
        if m == n:
            return self.head
        H = np.zeros((m, m))
        H[:, :n] = self.head
        H[0, n] = self.g[0]
        H[1, n] = self.h[0]
        H[n, n] += self.h[0]        # B[1, 1] = 2*w[2, 2] = 2*h(2) when n = 1
        return H

    def tail_products(self, diag: np.ndarray) -> np.ndarray:
        """``a_j / a_{m-1}`` for j = m..K-1 in a system whose rows r >= m
        read ``B[r, r-1]*a_{r-1} + (B[r, r] - diag[r])*a_r = 0``."""
        if not len(self.g):
            return self.g
        m = self.head_size
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.cumprod(self.g[:-1] / (diag[m:] - self.h[1:]))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if self.beta is not None:
            # row k sums beta_i*x_i over i >= k-1, and row 1 equals row 2;
            # long doubles keep the suffix sums as close as a dense product
            y = np.cumsum((self.beta * x)[::-1], dtype=np.longdouble)[::-1]
            return np.concatenate([y[:1], y[:-1]]).astype(float)
        m, n = self.head.shape
        if n == self.K:
            return self.head @ x
        y = np.zeros(self.K)
        y[:m] = self.head @ x[:n]
        xt = x[n:]
        y[n:] += self.h * xt                # (i, 2)
        y[n + 1:] += self.g[:-1] * xt[:-1]  # (i+1, 1)
        y[0] += self.g @ xt                 # (1, i+1)
        y[1] += self.h @ xt                 # (2, i)
        return y

    def column_sums(self) -> np.ndarray:
        """The K column sums of B, read from the layout: the head's column
        sums, ``2*(g + h)`` for a tail column (``g + 2*h`` for column K,
        which has no subdiagonal), and ``beta_i * min(i+1, K)``."""
        K = self.K
        if self.beta is not None:
            return self.beta * np.minimum(np.arange(2, K + 2), K)
        tail = 2.0 * (self.g + self.h)
        tail[-1:] -= self.g[-1:]
        return np.concatenate([self.head.sum(axis=0), tail])


def _update_matrix(model: WeightModel, K: int) -> UpdateMatrix:
    """The model's update matrix at K.  The dense columns are read from the
    partitioning weights by ``weights._band_blocks``, each block over the
    rows of its band (k <= i+1) only; the tail columns are evaluated from
    ``g`` and ``h``.  Column 1 (where (2, 1) is (1, 2) reversed) is always
    dense.  An unbounded ``by_split_degree`` partition gives ``beta`` from
    one weight call instead.  The matrix carries the model's tail closure
    at K, ``_closure_for(model, K)``."""
    pw = model.partition
    closure = _closure_for(model, K)
    if model.d_max is None and pw.by_split_degree:
        i = np.arange(1, K + 1)
        e = np.empty(0)
        return UpdateMatrix(e.reshape(0, 0), e, e, i * pw(1, i + 1), closure)
    tail = pw.tail if model.d_max is None else None
    n = min(max(tail.start, 2) - 1, K) if tail is not None else K
    head = np.zeros((min(n + 1, K), n))
    for i, w in _band_blocks(pw, n, K):
        head[:len(w), i[0] - 1:i[-1]] = i * w
    cols = np.arange(n + 1, K + 1, dtype=float)
    if tail is None:
        return UpdateMatrix(head, cols, cols, closure=closure)      # both empty
    return UpdateMatrix(head, tail.g(cols), tail.h(cols), closure=closure)


# -- the support verdict ---------------------------------------------------------


@dataclass
class ConditionReport:
    ok: Optional[bool]      # None means not applicable
    detail: str


@dataclass
class ValidationReport:
    """The paper's conditions on a one-colour model, the one verdict on its
    support: ``linearity`` (derived weights within 1e-9 of the model's line
    over degrees 1..d_max, or 1..200 unbounded), ``leaf_reachability`` and
    ``top_splittable`` (bounded only), and ``regime`` (unbounded only: ``s > 0``,
    which ``classify_regime`` gives in CASE_III alone), with its ``case`` and ``s``."""

    linearity: ConditionReport
    leaf_reachability: ConditionReport
    top_splittable: ConditionReport
    regime: ConditionReport
    case: Regime
    s: float

    @property
    def conditions(self) -> dict[str, ConditionReport]:
        return {k: v for k, v in vars(self).items() if isinstance(v, ConditionReport)}

    @property
    def ok(self) -> bool:
        return all(c.ok is not False for c in self.conditions.values())


def validate_model(m: WeightModel) -> ValidationReport:
    """Check the conditions, reporting violations rather than raising (an
    unknown leaf-mass tail raises UnknownTailError).  Unbounded, ``w_i`` for
    i <= 200 are the halved ``UpdateMatrix.column_sums`` at K = 201."""
    case, s = classify_regime(m)
    where = f"regime {case.value} with s = {s:g}"
    if m.d_max is None:
        span = 200
        derived = _update_matrix(m, span + 1).column_sums()[:span] / 2.0
        resid = _linear_fit(derived, m.splitting)[1]
        reach = top = ConditionReport(None, "unbounded model; not applicable")
        regime = ConditionReport(s > 0.0, where)
    else:
        D = span = m.d_max
        resid = m.linear_fit_residual
        ks = np.arange(2, D + 1)
        bad = ks[m.partition(1, ks) <= 0].tolist()
        reach = ConditionReport(not bad,
                                "w[1,k] > 0 for all 2 <= k <= d_max" if not bad
                                else f"w[1,k] = 0 for k in {_listed(bad)}")
        ks = np.arange(2, D)
        idx = ks[m.partition(ks, D + 2 - ks) > 0].tolist()
        top = ConditionReport(bool(idx),
                              f"w[i, d_max+2-i] > 0 for i in {_listed(idx)}" if idx
                              else "no i in 2..d_max-1 with w[i, d_max+2-i] > 0")
        regime = ConditionReport(None, f"{where}; bounded model, not applicable")
    line = m.splitting
    lin = ConditionReport(resid <= 1e-9, f"max |w_i - ({line.a:g}*i{line.b:+g})| = "
                                         f"{resid:.3g} over i <= {span}")
    return ValidationReport(lin, reach, top, regime, case, s)


def _listed(values: list[int]) -> str:
    """``values``, cut after five entries and counted."""
    cut = f"{str(values[:5])[:-1]}, ...] ({len(values)} in all)"
    return str(values) if len(values) <= 5 else cut


def check_support(model: WeightModel, force_unsupported: bool = False) -> ValidationReport:
    """``validate_model``'s report; unless ``force_unsupported``, a failing
    report raises the one RegimeError naming each failed condition."""
    rep = validate_model(model)
    failed = [f"{name} ({c.detail})" for name, c in rep.conditions.items() if c.ok is False]
    if failed and not force_unsupported:
        raise RegimeError(f"model fails {'; '.join(failed)}: no convergence guarantee; "
                          "pass force_unsupported=True (--force-unsupported) to run it anyway")
    return rep


def fixed_point_densities(model: WeightModel, K: int = 512,
                          force_unsupported: bool = False) -> DensitySolution:
    """The model's one solve: rows k = 2..K of the stationary system and
    row 1 ``sum a + Q0 a_K = 1``, ``Q0 a_K`` being the closed tail mass, at
    K = d_max for a bounded model (method ``linear``; RankDeficientError
    when a degree below the bound is unreachable, NonPositiveError on a
    negative density) and at K with the model's tail closure for an
    unbounded one (method ``fixed-point``, the minimal solution of
    ``a = M a + c``).  Row 1 is redundant for linear weights unless
    degree-1 vertices never split, a case that rounding can hide, so it is
    refused by name.

    A model whose ``validate_model`` report fails is refused by
    ``check_support`` unless ``force_unsupported``; the forced result is
    marked ``unsupported``, and an unbounded model is then truncated at K
    with a zero tail (method ``linear-truncated``).
    """
    if K < 2:
        raise InvalidParameterError("K must be >= 2")
    rep = check_support(model, force_unsupported)
    regime, s, unsupported = rep.case, rep.s, not rep.ok
    bounded = model.d_max is not None
    warnings = ["forced solve outside the guaranteed regime; "
                "no almost-sure census limit is claimed"] if unsupported else []
    K = model.d_max or K
    B = _update_matrix(model, K)
    if unsupported and not bounded:
        B.closure = TailClosure("none", "forced solve truncates with a zero tail")
    warnings.extend(B.closure.warnings)
    method = "linear" if bounded else "linear-truncated" if unsupported else "fixed-point"
    try:
        if (B.beta[0] if B.beta is not None else B.head[1, 0]) == 0.0:
            raise SingularSystemError(
                "degree-1 vertices never split, so no degree above 1 is reachable")
        a = _solve_stationary(B, model.w2 + model.splitting_weights(K),
                              f"the stationary system at K = {K}")
    except SingularSystemError as exc:
        if not bounded:
            raise
        raise RankDeficientError(
            f"stationary system without row 0 has rank < d_max-1 = {K - 1} ({exc}); "
            "some degree below the bound is unreachable") from None
    res = _residual_report(model, a, B)
    if method == "linear":
        if np.any(a < -1e-12):
            raise NonPositiveError(f"negative density: min rho = {a.min():.3e}")
        if np.any(a <= 0):
            warnings.append("some densities are zero (degenerate table)")
        if res.moment_dev > 1e-8:
            warnings.append(f"sum k*rho deviates from 2 by {res.moment_dev:.12g}; "
                            "weights are likely inconsistent")
    return DensitySolution(
        densities=a, K=K, method=method, regime=regime, s=s, residuals=res,
        unsupported=unsupported, warnings=warnings, closure=B.closure, head_size=B.head_size)


def iterate_from_below(model: WeightModel, K: int = 512, tol: float = 1e-13,
                       max_iter: int = 1_000_000) -> np.ndarray:
    """The paper's from-below iteration ``a <- M a + c`` of the fixed-point
    system, from the zero vector, at K (K = d_max for a bounded model), the
    sums beyond K closed as in the solve.  It stops at the first step whose
    largest change is below ``tol`` and returns the stacked iterates, the
    zero vector first.  It judges no support: it is the oracle, with the
    s-shifted row 1, that the normalised solve is tested against.  Its row
    scales are ``w_2 + s`` and ``w_2 + w_k``; RegimeError unless all are > 0.

    The iterates are nondecreasing when every coefficient of ``M`` is
    nonnegative, i.e. for unbounded models (every band mass is at least
    ``s``).  A bounded model's row 1 holds ``-s`` at the top degree, so its
    early iterates overshoot (``a_1 = s/(w_2+s)`` after one step); the
    limit is still the normalised solution when the splitting weights are
    linear in the degree.  NoConvergenceError after ``max_iter`` steps, or
    at the first iterate that is not finite."""
    if K < 2:
        raise InvalidParameterError("K must be >= 2")
    s = classify_regime(model)[1]
    K = model.d_max or K
    B = _update_matrix(model, K)
    denom = np.concatenate([[model.w2 + s], model.w2 + model.splitting_weights(K)[1:]])
    if np.any(denom <= 0):
        raise RegimeError("nonpositive update denominator (w_2 + w_k <= 0)")
    clo = B.closure
    row0 = B.first_row() - s
    row0[0] = 0.0
    a = np.zeros(K)
    history = [a]
    step = math.inf
    with np.errstate(over="ignore", invalid="ignore"):         # checked below
        for n in range(1, max_iter + 1):
            y = (B @ a) / denom
            y[0] = (row0 @ a + s + (clo.Qg - s * clo.Q0) * a[-1]) / denom[0]
            y[1] += clo.Qh * a[-1] / denom[1]
            step = float(np.max(np.abs(y - a)))
            if not math.isfinite(step):
                raise NoConvergenceError(f"iterate {n} of at most {max_iter} is not finite")
            a = y
            history.append(a)
            if step < tol:
                return np.array(history)
    raise NoConvergenceError(
        f"no convergence after {max_iter} iterations (last step {step:.3e})")


def _solve_stationary(B: UpdateMatrix, diag: np.ndarray, what: str) -> np.ndarray:
    """The one stationary solve at K = B.K.  Rows k = 2..K read
    ``(B a)_k - diag_k a_k = 0``, row 2 gaining ``B.closure.Qh a_K``; row 1
    reads ``sum a + B.closure.Q0 a_K = 1``, the densities and the closed
    tail mass summing to 1; ``diag[0]`` is not read.

    For ``beta`` the backward recurrence takes ``a`` with ``a_1 = 1`` from
    rows 2..K and row 1 fixes the scale; that layout's closure is a zero
    tail.  Otherwise the head system, its rows 1 and 2 folded over the
    tail columns through ``a_j = a_{m-1} * tail_products``, goes through
    ``_hessenberg_solve`` and is extended by the same products.  ``what``
    names the system in the SingularSystemError raised on a zero pivot or a
    non-finite solution."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # checked below
        if B.beta is not None:
            a = _recurrence_solve(B.beta, diag, what)
            a /= a.sum()
        else:
            m = B.head_size
            A = B.square_head().copy()
            A[np.diag_indices(m)] -= diag[:m]
            A[0] = 1.0
            P = B.tail_products(diag)
            last = P[-1] if len(P) else 1.0          # a_K / a_{m-1}
            # rows 1 and 2 reach every tail column and the closure: fold
            # them into column m-1
            A[0, m - 1] += P.sum() + B.closure.Q0 * last
            A[1, m - 1] += B.h[1:] @ P + B.closure.Qh * last
            rhs = np.zeros(m)
            rhs[0] = 1.0
            x = _hessenberg_solve(A, rhs, what)
            a = np.concatenate([x, x[-1] * P])
    if not np.all(np.isfinite(a)):
        raise SingularSystemError(f"{what} gave a non-finite solution")
    return a


def _recurrence_solve(beta: np.ndarray, diag: np.ndarray, what: str) -> np.ndarray:
    """Rows 2..K of the stationary system for ``B = U diag(beta)``, in O(K):
    ``a`` with ``a_1 = 1``.

    With ``d_k = diag_k``, row k minus row k+1 reads
    ``d_k a_k - d_{k+1} a_{k+1} = beta_{k-1} a_{k-1}`` and row K reads
    ``(d_K - beta_K) a_K = beta_{K-1} a_{K-1}``.  The ratios
    ``r_k = a_k/a_{k-1} = beta_{k-1} / (d_k - d_{k+1} r_{k+1})`` are taken
    backwards from K: Miller's backward recurrence for the minimal solution
    (Gautschi, SIAM Rev. 9 (1967) 24-82), in ratio form so that no iterate
    overflows.  Their running product is ``a``."""
    zero = np.flatnonzero(beta[:-1] == 0.0)
    if len(zero):
        i = zero[0] + 1
        raise SingularSystemError(
            f"{what}: degree-{i} vertices never split, so no degree above "
            f"{i} is reachable")
    b, d = beta.tolist(), diag.tolist()
    r = [1.0] * len(b)
    t = b[-1]
    try:
        for k in range(len(b) - 1, 0, -1):
            r[k] = b[k - 1] / (d[k] - t)
            t = d[k] * r[k]
    except ZeroDivisionError:
        raise SingularSystemError(
            f"{what}: the backward recurrence divides by zero at degree {k + 1}") from None
    return np.cumprod(r)


def _hessenberg_solve(H: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve ``H x = rhs`` for upper Hessenberg ``H``, overwriting both:
    top-down elimination with adjacent-row pivoting, then back-substitution.
    ``what`` names the system in the SingularSystemError raised on a zero
    pivot or a non-finite solution."""
    K = len(rhs)
    for j in range(K - 1):
        if abs(H[j + 1, j]) > abs(H[j, j]):
            H[[j, j + 1], j:] = H[[j + 1, j], j:]
            rhs[[j, j + 1]] = rhs[[j + 1, j]]
        if H[j + 1, j]:                      # the pivot is then nonzero too
            f = H[j + 1, j] / H[j, j]
            H[j + 1, j + 1:] -= f * H[j, j + 1:]
            rhs[j + 1] -= f * rhs[j]
    zero = np.flatnonzero(np.diagonal(H) == 0.0)
    if len(zero):
        raise SingularSystemError(
            f"{what} is singular (zero pivot in column {zero[0] + 1})")
    x = np.empty(K)
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        for j in range(K - 1, -1, -1):
            x[j] = (rhs[j] - H[j, j + 1:] @ x[j + 1:]) / H[j, j]
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"{what} gave a non-finite solution")
    return x


# -- residuals ---------------------------------------------------------------------


def _residual_report(model: WeightModel, a: np.ndarray, B: UpdateMatrix) -> ResidualReport:
    """Residuals of ``a`` against the model's update matrix ``B`` at
    K = len(a), the sums beyond K closed by ``B.closure``."""
    K = len(a)
    clo = B.closure
    gains = B @ a
    aK = a[-1]
    gains[0] += clo.Qg * aK
    gains[1:2] += clo.Qh * aK               # K = 1 has no row 2
    tail_mass = clo.Q0 * aK + 0.0           # + 0.0: a zero tail never reads -0.0
    per_k = a * (model.w2 + model.splitting_weights(K)) - gains
    ks = np.arange(1, K + 1)
    return ResidualReport(
        per_k=per_k,
        sum_dev=abs(float(a.sum()) + tail_mass - 1.0),
        moment_dev=abs(float((ks * a).sum()) + clo.Q0m * aK - 2.0),
        tail_mass=float(tail_mass))


def residuals(model: WeightModel, a: np.ndarray) -> ResidualReport:
    """Stationarity residuals of a density vector against the model, at
    ``K = len(a)``."""
    a = np.asarray(a, dtype=float)
    return _residual_report(model, a, _update_matrix(model, len(a)))
