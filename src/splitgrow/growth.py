"""Growth engines for vertex-splitting trees.

Three engines are provided:

* ``OrderedTree`` maintains the full planar tree (cyclically ordered
  half-edges per vertex) and performs the structural split: a chosen vertex
  ``v`` of degree ``i`` is replaced by an adjacent pair ``v', v''`` of
  degrees ``k`` and ``i+2-k``, the incident edges being divided into two
  contiguous arcs of the cyclic order.

* ``UrnState`` tracks only the degree census ``n_k``: a split moves one
  ball out of urn ``i`` and adds one ball each to urns ``k`` and ``i+2-k``.

* ``TwoColourState`` tracks the census of both colours of the two-colour
  process (``twocolour.TwoColourModel``): a step recolours a black vertex
  or splits a white one into two blacks.

Driving the first two engines with the same stream of (degree,
child-degree) decisions produces identical censuses, which is the invariant
the correctness tests pin down; degree statistics do not depend on which
contiguous arc is chosen.

All three engines keep one census state, ``_CensusUrn``: the class counts
and weights, the clock, the running total weight, the snapshots and
``checks()``, the invariant checks of a grown replica.  ``UrnState`` and
``TwoColourState`` also share its one scalar ``step``: it draws a census
class with probability ``n_d * w_d / W_t`` by one early-exit scan of the
class masses, in O(K) for K classes, then splits a member or, for a black
two-colour vertex, recolours it, an event with no child degrees.
``OrderedTree`` builds its census through the same state but overrides
``step``: it draws a vertex from a weight envelope ``A + B*d >= w_d`` in
O(1) expected time, a uniform vertex or the owner of a uniform half-edge,
kept with probability ``w_d / (A + B*d)``.  Its split costs O(1) plus the
shorter arc.  The engines sample independently, so their agreement in law
tests one sampler against the other.  States are confined to one worker at a
time; the weight model is shared read-only.

``run`` grows a tree whose every split sheds a leaf, under an exact
envelope, through ``_leaf_kernel``: no half-edge then ever changes owner, so
numpy resolves thousands of steps at once.  It logs where the new half-edges
go in the cyclic orders, and the tree inserts them when its half-edge lists
are first read, which a run that reads only the census never does.  Every
other tree grows through ``_tree_kernel``, which draws its uniforms in
blocks and steps in Python.  Both leave the tree, the running total, the
snapshots and the generator exactly as the same number of ``step`` calls
would.  Census engines grow through ``run_batch``, the continuous-time
embedding of the urn: a split never changes another vertex's degree, so
every vertex splits after its own exponential clock of rate ``w_d``, and
the order in which the clocks ring is the urn's sequence of draws
(Athreya and Karlin, Ann. Math. Statist. 39 (1968) 1801-1817; Janson,
Stoch. Proc. Appl. 110 (2004) 177-245).  Its vertices are independent, so
numpy expands them a generation at a time, and a clock that has not rung
by the horizon is memoryless there, so a replica between horizons is its
census, a count per class.  Its replicas are independent too:
consecutive replicas of one model grow as a group, with one round of numpy
calls per generation of the whole group, each replica still drawing from
its own generator exactly what it would draw alone.  When every split of a
one-colour model sheds a leaf (``WeightModel.sheds_leaves``, the tree's
condition too), a vertex keeps its identity through its splits, one degree
up each time, and its split times are partial sums of exponentials of
rates ``w_d, w_{d+1}, ...``: the census's ``kernel`` is then ``"chains"``,
which draws each vertex's whole chain up to the horizon at once, so a
generation is the leaves born in the one before, not the children of every
hub split.  Other census models grow by ``"generations"``.  Either way
``run_batch`` has the law of ``step`` but other draws (for census engines
``step``, with its own kid rule, is the independent reference in law, not
bit for bit), and in ``run_batch`` the class table ``_ClassLaws`` alone
decides the classes an event creates.  A leaf split's pair ``(1, d + 1)``
is one census in either order, so neither the chains nor ``_leaf_kernel``
reads a split law.  ``_leaf_kernel`` and ``run_batch`` take their
snapshots, at the clocks of ``_clocks``, through one census path,
``_advance_census``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from .errors import DegeneracyError, InvalidDegreeError, InvalidParameterError
from .weights import WeightModel

if TYPE_CHECKING:
    from .twocolour import TwoColourModel

__all__ = [
    "SplitEvent",
    "CensusSnapshot",
    "OrderedTree",
    "UrnState",
    "TwoColourSnapshot",
    "TwoColourState",
    "run",
    "run_batch",
    "write_census_csv",
]


@dataclass(frozen=True)
class SplitEvent:
    """One growth step: a degree-``parent_degree`` vertex split into children
    of ``child_degrees``, or recoloured (no child degrees); ``arrangement``
    is the cyclic starting position of the first child's arc (-1 for
    census-only engines)."""

    t: int
    parent_degree: int
    child_degrees: tuple[int, ...]
    arrangement: int = -1


@dataclass
class CensusSnapshot:
    t: int
    counts: np.ndarray          # counts[d-1] = number of degree-d vertices
    total_weight: float

    CSV_COLUMNS = "n"
    CSV_FIELDS = ("counts",)    # the arrays written as the CSV_COLUMNS
    KIND = "one-colour"

    def identity_deviations(self) -> tuple[int, int]:
        """(sum n - t, sum k*n - (2t-2)); both are exactly zero for any
        reachable state."""
        n = self.counts
        ks = np.arange(1, len(n) + 1)
        return int(n.sum()) - self.t, int((ks * n).sum()) - (2 * self.t - 2)


class _CensusUrn:
    """The census every engine keeps: ``counts[c]`` members of class ``c``
    weigh ``weights[c] = _class_weight(c)`` each, ``t`` is the clock and
    ``total_weight`` the running sum of the class masses.  The defaults are
    one colour's: class ``d-1`` holds the degree-``d`` vertices, of weight
    ``w_d``.  Engines change ``counts`` through ``_add`` or, in
    ``_advance_census``, all at once."""

    model: WeightModel
    # the names of the snapshot's identity_deviations, in order
    IDENTITIES = ("census_sum_dev", "census_moment_dev")

    def __init__(self, counts: Iterable[int], t: Optional[int] = None):
        self.counts: list[int] = list(counts)
        self.weights: list[float] = [self._class_weight(c) for c in range(len(self.counts))]
        self.t = int(sum(self.counts) if t is None else t)
        self.total_weight = float(sum(n * w for n, w in zip(self.counts, self.weights) if n))

    def _class_weight(self, c: int) -> float:
        return self.model.w(c + 1)

    def _layout(self) -> tuple[WeightModel, int, float]:
        """Split-size model, class stride and the total weight's gain per
        event (exact for linear weights)."""
        return self.model, 1, self.model.w2

    @property
    def kernel(self) -> str:
        """The expansion ``run_batch`` grows this census with: ``"chains"``
        for one colour when every split sheds a leaf, else
        ``"generations"``."""
        split_model, stride, _ = self._layout()
        return "chains" if stride == 1 and split_model.sheds_leaves else "generations"

    @staticmethod
    def _snapshot(t: int, counts: np.ndarray, total_weight: float) -> CensusSnapshot:
        return CensusSnapshot(t, counts, total_weight)

    def census(self) -> CensusSnapshot:
        return self._snapshot(self.t, np.array(self.counts, dtype=np.int64),
                              self.total_weight)

    def _add(self, c: int, dn: int) -> None:
        """Change the member count of class ``c`` by ``dn``, creating the
        classes up to ``c`` as needed."""
        counts = self.counts
        while len(counts) <= c:
            self.weights.append(self._class_weight(len(counts)))
            counts.append(0)
        counts[c] += dn

    def sample_class(self, rng) -> int:
        """A class drawn with probability ``counts[c] * weights[c] /
        total_weight`` by one scan of the class masses from ``u *
        total_weight``.  The running total may differ from the exact sum in
        the last bits, so a draw can pass every class; it then goes to the
        last class with positive weight.  A zero-weight class is never
        returned."""
        if not self.total_weight > 0.0:
            raise DegeneracyError("total sampling weight is not positive")
        x = rng.random() * self.total_weight
        last = -1
        for c, n in enumerate(self.counts):
            if n:
                m = n * self.weights[c]
                if m > 0.0:
                    if x < m:
                        return c
                    x -= m
                    last = c
        if last < 0:
            raise DegeneracyError("no class has positive sampling weight")
        return last

    def step(self, rng) -> SplitEvent:
        """One event, from a class uniform and then, for a split, a split
        uniform.  A member of a splitting class (its stride bit clear) of
        degree ``d`` splits into members of degrees ``k`` and ``d+2-k``; any
        other (a black vertex) recolours to the class below."""
        split_model, s, _ = self._layout()
        c = self.sample_class(rng)
        d = c // s + 1
        if c % s:
            degrees, kids = (), (c - 1,)
        else:
            k = split_model.sample_split(d, rng)
            degrees, kids = (k, d + 2 - k), (s * k - 1, s * (d + 2 - k) - 1)
        add, w = self._add, self.weights
        add(c, -1)
        for kc in kids:
            add(kc, 1)
        self.total_weight += sum(w[kc] for kc in kids) - w[c]
        self.t += 1
        return SplitEvent(self.t, d, degrees)

    def _closed_total(self, exact: float) -> tuple[float, float]:
        """The closed-form total weight ``w_2 * t - 2a`` (NaN for weights
        that are not linear) and the total its deviation is relative to,
        here the running one; ``exact`` is the exact sum."""
        m = self.model
        closed = m.w2 * self.t - 2.0 * m.splitting.a if m.is_linear() else math.nan
        return closed, self.total_weight

    def checks(self) -> dict[str, float]:
        """The invariant checks of a grown replica: the census identities
        of its snapshot, exactly zero, under the names ``IDENTITIES``; the
        running total's relative drift from the exact sum of the class
        masses; and its relative deviation from the closed form."""
        devs = self.census().identity_deviations()
        out = {name: abs(dev) for name, dev in zip(self.IDENTITIES, devs)}
        exact = sum(n * w for n, w in zip(self.counts, self.weights) if n)
        closed, scale = self._closed_total(exact)
        out["weight_rel_drift"] = abs(self.total_weight - exact) / max(abs(exact), 1.0)
        out["weight_closed_form_rel_dev"] = \
            abs(self.total_weight - closed) / max(abs(scale), 1.0)
        return out


class UrnState(_CensusUrn):
    """Census-only engine: one urn per degree, ball weight ``w_d`` each;
    class ``d-1`` holds the degree-``d`` balls."""

    def __init__(self, model: WeightModel, counts: Iterable[int]):
        self.model = model
        super().__init__(counts)
        if self.t < 1:
            raise InvalidParameterError("initial census is empty")
        if model.d_max is not None and len(self.counts) > model.d_max:
            if any(self.counts[model.d_max:]):
                raise InvalidParameterError("initial census exceeds d_max")

    @classmethod
    def single_edge(cls, model: WeightModel) -> "UrnState":
        return cls(model, [2])


@dataclass
class TwoColourSnapshot(CensusSnapshot):
    """Census at event time ``t``: ``counts`` is the degree census of all
    vertices, which ``white`` and ``black`` split by colour."""

    white: np.ndarray
    black: np.ndarray

    CSV_COLUMNS = "n_white,n_black"
    CSV_FIELDS = ("white", "black")
    KIND = "two-colour"

    def identity_deviations(self) -> tuple[int, int]:
        """(sum(3*n_white + 2*n_black) - (t+2), sum k*n - (2V-2)) with ``V``
        the vertex count; both are exactly zero for any reachable state."""
        ks = np.arange(1, len(self.counts) + 1)
        colour = int(3 * self.white.sum() + 2 * self.black.sum()) - (self.t + 2)
        return colour, int((ks * self.counts).sum()) - (2 * int(self.counts.sum()) - 2)


class TwoColourState(_CensusUrn):
    """Per-degree census of both colours plus the event clock.

    One census urn holds both colours, white degree ``d`` in class
    ``2(d-1)`` and black degree ``d`` in class ``2(d-1)+1``, so one draw
    selects colour and degree at once.  The clock ``t`` defaults to the
    vertex count, which is right for a fresh process started from a single
    edge (t = 2); general states must pass ``t`` explicitly.  A step
    recolours a black vertex (an event with no child degrees) or splits a
    white one into two blacks.
    """

    IDENTITIES = ("colour_identity_dev",)

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
        return self.model.white, 2, self.model.weight_growth_rate

    def _class_weight(self, c: int) -> float:
        d = c // 2 + 1
        return self.model.black(d) if c % 2 else self.model.white.splitting(d)

    def _closed_total(self, exact: float) -> tuple[float, float]:
        """The closed-form total weight ``(a-b)*t + b`` and the total its
        deviation is relative to, here the exact sum ``exact``."""
        m = self.model
        return m.weight_growth_rate * self.t + m.b, exact

    @staticmethod
    def _snapshot(t: int, slots: np.ndarray, total_weight: float) -> TwoColourSnapshot:
        """Snapshot of the class counts ``slots`` (white degree ``d`` at
        ``2(d-1)``, black at ``2(d-1)+1``)."""
        white, black = slots[0::2], slots[1::2]
        return TwoColourSnapshot(t, white + black, total_weight, white, black)


def _envelope(model: WeightModel) -> tuple[float, float, bool]:
    """``(A, B, exact)`` with ``A + B*d >= w_d`` for every degree ``d`` the
    model can reach; ``exact`` when the bound is ``w_d`` itself."""
    if model.d_max is not None:
        top = float(np.max(model.splitting_weights(model.d_max)))
        return max(top, 0.0), 0.0, False
    if not model._trust_linear:
        raise InvalidParameterError(
            "the tree engine needs linear splitting weights w_i = a*i + b "
            "for an unbounded model")
    a, b = float(model.splitting.a), float(model.splitting.b)
    return max(b, 0.0), a, b >= 0.0


class OrderedTree(_CensusUrn):
    """Planar tree engine on half-edges.

    Vertex ids are ``0 .. t-1``.  Edge ``e`` is the half-edge pair ``2e``,
    ``2e + 1``: ``_ends[h]`` owns half-edge ``h``, whose twin is ``h ^ 1``,
    and ``_adj[v]`` lists ``v``'s half-edges in cyclic order.  In a split the
    child with the longer arc keeps the parent's id and list, cut in place;
    the shorter arc's half-edges pass to the new vertex ``t``.  A step thus
    costs O(1) plus the shorter arc, which for a preferential split is empty.

    Vertices are drawn from the envelope ``A + B*d >= w_d`` (Batagelj and
    Brandes, PRE 71 (2005) 036113): a draw below ``A*t`` of
    ``A*t + B*(2t-2)`` picks a uniform vertex, one above it the owner of a
    uniform half-edge, so vertex ``v`` is proposed with probability
    proportional to ``A + B*deg(v)`` and kept with probability
    ``w_deg(v) / (A + B*deg(v))``.  Linear weights ``w_d = a*d + b`` of an
    unbounded model take ``B = a``, ``A = max(b, 0)``, which is exact for
    ``b >= 0``; a bounded table takes ``A = max w_d``, ``B = 0``.  The replay
    ``apply_to_degree`` draws through uniform half-edges too, keeping an owner
    of the degree it is given.

    ``_leaf_kernel`` changes ``_ends``, the census and the running total, but
    only logs its insertions into the half-edge lists: per block the new
    half-edges, the vertices they join and their positions in the cyclic
    orders, with the degrees of vertices ``0 .. t-1`` after the log in
    ``_deg[:t]``.  ``_adj`` makes the logged insertions, in step order,
    before it returns the lists, so every reader sees the lists that the
    same ``step`` calls would leave.

    ``adjacency[v]`` lists the neighbours of vertex ``v`` in cyclic order;
    the lists must describe a tree on ``0 .. n-1``.
    """

    def __init__(self, model: WeightModel, adjacency: list[list[int]]):
        self.model = model
        n = len(adjacency)
        ends = array("i")
        adj: list[array] = []
        waiting: dict[tuple[int, int], int] = {}   # (owner, other) -> half-edge
        for v, nbrs in enumerate(adjacency):
            if not nbrs:
                raise InvalidParameterError(
                    f"vertex {v} has no edge; vertex ids must be 0..{n - 1} with no gap")
            hs = array("i")
            for u in nbrs:
                if not isinstance(u, (int, np.integer)) or not 0 <= u < n or u == v:
                    raise InvalidParameterError(f"vertex {v} has invalid neighbour {u!r}")
                u = int(u)
                h = waiting.pop((v, u), None)
                if h is None:
                    if (u, v) in waiting:
                        raise InvalidParameterError(f"vertices {v} and {u} share two edges")
                    h = len(ends)
                    ends.extend((v, u))
                    waiting[(u, v)] = h + 1
                hs.append(h)
            adj.append(hs)
        if waiting:
            (u, v), _ = waiting.popitem()
            raise InvalidParameterError(f"vertex {v} lists {u}, but {u} does not list {v}")
        self._lists, self._ends, self.t = adj, ends, n
        self._log: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._deg: Optional[np.ndarray] = None
        if not self.is_tree():
            raise InvalidParameterError(
                "initial edges do not form a tree: they hold a cycle or are disconnected")
        top = max(len(hs) for hs in adj)
        if model.d_max is not None and top > model.d_max:
            raise InvalidParameterError(
                f"initial tree has degree {top} > d_max = {model.d_max}")
        self._envelope = _envelope(model)
        counts = [0] * top
        for hs in adj:
            counts[len(hs) - 1] += 1
        super().__init__(counts)

    # -- construction ------------------------------------------------------

    @classmethod
    def single_edge(cls, model: WeightModel) -> "OrderedTree":
        return cls(model, [[1], [0]])

    @classmethod
    def from_edges(cls, model: WeightModel, edges: Iterable[tuple[int, int]]) -> "OrderedTree":
        """Build from an edge list on vertices ``0 .. n-1``; cyclic order is
        edge-insertion order."""
        adj: dict[int, list[int]] = {}
        for u, v in edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        return cls(model, [adj.get(v) for v in range(len(adj))])

    @property
    def _adj(self) -> list[array]:
        """The half-edge lists, after the insertions that ``_leaf_kernel``
        logged are made, in step order."""
        if self._log:
            adj = self._lists
            for hv, v, p in self._log:
                adj.extend([array("i", (g,)) for g in (hv + 1).tolist()])
                for nb, q, g in zip(map(adj.__getitem__, v.tolist()), p.tolist(), hv.tolist()):
                    nb.insert(q, g)
            self._log, self._deg = [], None
        return self._lists

    @property
    def kernel(self) -> str:
        """The kernel ``run`` grows this tree with: ``"leaf-block"`` when
        every split sheds a leaf and the envelope is exact, else
        ``"scalar"``."""
        return "leaf-block" if self.model.sheds_leaves and self._envelope[2] else "scalar"

    # -- queries ---------------------------------------------------------------

    def degree(self, v: int) -> int:
        if not 0 <= v < self.t:
            raise InvalidParameterError(f"no vertex {v}")
        return len(self._adj[v])

    def neighbours(self, v: int) -> list[int]:
        ends = self._ends
        return [ends[h ^ 1] for h in self._adj[v]]

    def is_tree(self) -> bool:
        """Half-edge consistency, edge count and connectivity (on demand;
        O(t))."""
        adj, ends, n = self._adj, self._ends, self.t
        if n < 2 or len(adj) != n or len(ends) != 2 * (n - 1):
            return False
        listed = sorted(h for hs in adj for h in hs)
        if listed != list(range(len(ends))):
            return False
        if any(ends[h] != v for v, hs in enumerate(adj) for h in hs):
            return False
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            for h in adj[stack.pop()]:
                u = ends[h ^ 1]
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        return all(seen)

    # -- dynamics ------------------------------------------------------------

    def sample_vertex(self, rng) -> int:
        """Vertex drawn with probability w_deg(v) / total weight, by the
        envelope: a proposal from one uniform, then, unless the envelope is
        exact, an acceptance test from the next."""
        if not self.total_weight > 0.0:
            raise DegeneracyError("total sampling weight is not positive")
        A, B, exact = self._envelope
        t, adj, ends = self.t, self._adj, self._ends
        at = A * t
        span = at + B * (2 * t - 2)
        while True:
            x = rng.random() * span
            # rounding of the scaled draw can reach t or 2t - 2
            if x < at:
                v = min(int(x / A), t - 1)
            else:
                v = ends[min(int((x - at) / B), 2 * t - 3)]
            if exact:
                return v
            d = len(adj[v])
            if rng.random() * (A + B * d) < self.weights[d - 1]:
                return v

    def split_vertex(self, v: int, k: int, rng) -> SplitEvent:
        """Replace ``v`` (degree ``i``) by adjacent vertices of degrees ``k``
        and ``i+2-k``; the first child takes a contiguous arc of ``k-1``
        edges starting at the cyclic position ``int(u*i)`` for a uniform
        ``u``."""
        i = len(self._adj[v])
        if not 1 <= k <= i + 1:
            raise InvalidParameterError(f"child degree {k} out of range for degree {i}")
        ell = i + 2 - k
        if self.model.d_max is not None and max(k, ell) > self.model.d_max:
            raise InvalidParameterError(
                f"split into degrees {k}, {ell} exceeds d_max = {self.model.d_max}")
        p = int(rng.random() * i)
        self._split(v, i, k, p)
        return SplitEvent(self.t, i, (k, ell), p)

    def _split(self, v: int, i: int, k: int, p: int) -> None:
        """The surgery and bookkeeping of ``split_vertex`` with arc start
        ``p``."""
        adj, ends, t = self._adj, self._ends, self.t
        ell = i + 2 - k
        if k <= ell:                    # the first arc, k-1 edges, moves
            q, moving, dv, dt = p, k - 1, ell, k
        else:                           # the second arc, ell-1 edges, moves
            q, moving, dv, dt = (p + k - 1) % i, ell - 1, k, ell
        nb = adj[v]
        hv = len(ends)                  # v's half of the new edge; t gets hv + 1
        wrap = q + moving - i
        if wrap <= 0:
            moved = nb[q:q + moving]
            del nb[q:q + moving]
            nb.insert(q, hv)
        else:
            moved = nb[q:] + nb[:wrap]
            del nb[q:]
            del nb[:wrap]
            nb.append(hv)
        for h in moved:
            ends[h] = t
        moved.append(hv + 1)
        adj.append(moved)
        ends.extend((v, t))

        counts = self.counts
        if dv > len(counts) or dt > len(counts):
            self._add(max(dv, dt) - 1, 0)
        counts[i - 1] -= 1
        counts[dv - 1] += 1
        counts[dt - 1] += 1
        w = self.weights
        self.total_weight += w[k - 1] + w[ell - 1] - w[i - 1]
        self.t = t + 1

    def step(self, rng) -> SplitEvent:
        v = self.sample_vertex(rng)
        k = self.model.sample_split(len(self._adj[v]), rng)
        return self.split_vertex(v, k, rng)

    def apply_to_degree(self, i: int, k: int, rng) -> SplitEvent:
        """Split a uniformly chosen vertex of degree ``i`` (replay interface;
        the census evolution does not depend on which one), refusing a degree
        no vertex has before any draw.  The vertex owns a uniform half-edge,
        redrawn (16 uniforms at a time) until its degree is ``i``: a vertex
        owns as many half-edges as its degree, so the pick is uniform."""
        if not 1 <= i <= len(self.counts) or not self.counts[i - 1]:
            raise InvalidParameterError(f"no vertex of degree {i}")
        adj, ends, m = self._adj, self._ends, len(self._ends)
        while True:
            for u in rng.random(16).tolist():
                v = ends[int(u * m)]
                if len(adj[v]) == i:
                    return self.split_vertex(v, k, rng)


def run(state, t_final: int, rng, thin: Optional[int] = None) -> list[CensusSnapshot]:
    """Grow until the clock ``state.t`` reaches ``t_final`` (the vertex count
    of a one-colour engine, the event clock of a two-colour one), returning
    census snapshots.

    ``thin=m`` records the state before every m-th step and at ``t_final``,
    each clock once; a ``thin`` of 0 or None records only ``t_final``.
    Deterministic given the state, the model and the generator state.

    ``OrderedTree`` grows through the kernel its ``kernel`` property
    names: ``_leaf_kernel`` for a tree whose every split sheds a leaf,
    ``_tree_kernel`` for the others.  Both leave the tree, the running total,
    the snapshots and the generator exactly as the same number of
    ``tree.step`` calls would.  ``UrnState`` and ``TwoColourState`` grow
    through ``run_batch`` as a batch of one: the same law as
    ``state.step``, from other draws.
    """
    if t_final < state.t:
        raise InvalidParameterError(f"t_final = {t_final} < current t = {state.t}")
    if not isinstance(state, OrderedTree):
        return run_batch([state], t_final, [rng], thin)[0][0]
    clocks = _clocks(state.t, t_final, thin)
    if state.kernel == "leaf-block":
        return _leaf_kernel(state, clocks, rng)
    snaps = []
    for stop in clocks:
        _tree_kernel(state, stop, rng)
        snaps.append(state.census())
    return snaps


def _clocks(t: int, t_final: int, thin: Optional[int]) -> list[int]:
    """The clocks ``run`` records: every ``thin``-th from ``t``, then ``t_final``."""
    return [*(range(t, t_final, thin) if thin else ()), t_final]


# most uniforms per generator call of _tree_kernel, most steps per block of
# _leaf_kernel, most events per census window of _advance_census
_BLOCK = 4096


def _advance_census(state, clocks: list[int], totals: np.ndarray, removed: np.ndarray,
                    added: tuple[np.ndarray, ...], weights: np.ndarray) -> list[CensusSnapshot]:
    """Move ``state``'s census, clock and running total past events and
    return its snapshots at the ``clocks`` they reach, which leave the list.

    Event ``j`` moves the clock from ``state.t + j`` to ``state.t + j + 1``,
    removes a member of class ``removed[j]`` and adds one to class ``a[j]``
    of each ``a`` in ``added`` (none for -1); ``totals[j]`` is the running
    total before it.  In each window of ``_BLOCK`` events, which bounds the
    rows held, row ``r`` counts the events before the window's clock ``r``
    that no earlier row holds, by one ``bincount`` per column, and a
    ``cumsum`` makes it the census at that clock.  A snapshot is as wide as
    the classes reached by its clock.  The window's snapshot clocks, widths
    and totals take one numpy operation each, and each snapshot owns a copy
    of its row, so no later window or edit reaches it.  The weights of new
    classes are read from ``weights``, the class weights.
    """
    t0, n = state.t, len(removed)
    reach = bisect_right(clocks, t0 + n)
    cuts = np.array(clocks[:reach], np.int64) - t0
    del clocks[:reach]
    counts = np.array(state.counts, np.int64)
    snaps, first = [], 0
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        # a clock on a window edge is the last of the window it ends
        last = int(np.searchsorted(cuts, hi, side="right"))
        marks, first = cuts[first:last] - lo, last
        reached = np.maximum.accumulate(np.max([a[lo:hi] for a in added], axis=0))
        size = max(len(counts), int(reached[-1]) + 1) + 1   # column 0 takes class -1
        cell = np.searchsorted(marks, np.arange(hi - lo), side="right") * size + 1
        cells = (len(marks) + 1) * size
        census = -np.bincount(cell + removed[lo:hi], minlength=cells)
        for a in added:
            census += np.bincount(cell + a[lo:hi], minlength=cells)
        census = census.reshape(-1, size)
        census = np.cumsum(census, axis=0, out=census)[:, 1:]
        census[:, :len(counts)] += counts
        if len(marks):      # most windows of an unthinned run hold no clock
            widths = np.where(marks > 0, np.maximum(reached[marks - 1] + 1, len(counts)),
                              len(counts))
            snaps += [state._snapshot(t, row[:width].copy(), total) for t, row, width, total
                      in zip((t0 + lo + marks).tolist(), census, widths.tolist(),
                             totals[lo + marks].tolist())]
        counts = census[-1].copy()
    state.t = t0 + n
    state.total_weight = float(totals[-1])
    state.counts = counts.tolist()
    new = range(len(state.weights), len(state.counts))
    state.weights += weights[new.start:new.stop].tolist()
    return snaps


def _tree_kernel(tree: OrderedTree, t_stop: int, rng) -> None:
    """Advance a tree to ``tree.t == t_stop``: ``tree.step`` with the
    envelope sampler inlined, block uniforms and no events.

    A step draws, in ``step``'s order, a proposal and (for an inexact
    envelope) an acceptance uniform per attempt, then the split size and the
    arc start, so it uses at least ``per`` = 3 or 4 uniforms.  A block is
    drawn only when fewer than ``per`` are left, and holds at most
    ``per * (t_stop - t)`` with the leftovers, so the generator is never
    drawn ahead of the scalar path.
    """
    A, B, exact = tree._envelope
    per = 3 if exact else 4
    adj, ends, w = tree._adj, tree._ends, tree.weights
    cached_law = tree.model._split_cache.get
    split_law = tree.model.split_distribution
    split = tree._split
    us: list[float] = []                    # the block's unused uniforms, reversed
    t = tree.t
    while t < t_stop:
        if not tree.total_weight > 0.0:
            raise DegeneracyError("total sampling weight is not positive")
        at = A * t
        span = at + B * (2 * t - 2)
        while True:
            if len(us) < per:
                fresh = rng.random(min(_BLOCK, per * (t_stop - t) - len(us))).tolist()
                fresh.reverse()
                us = fresh + us
            x = us.pop() * span
            if x < at:
                v = int(x / A)
                if v >= t:
                    v = t - 1
            else:
                h = int((x - at) / B)
                if h > 2 * t - 3:
                    h = 2 * t - 3
                v = ends[h]
            i = len(adj[v])
            if exact or us.pop() * (A + B * i) < w[i - 1]:
                break
        ks, cum, wsum = cached_law(i) or split_law(i)
        if wsum <= 0:
            raise InvalidDegreeError(f"degree {i} has no admissible split")
        k = ks[bisect_right(cum, us.pop() * wsum)]
        split(v, i, k, int(us.pop() * i))
        t += 1


def _leaf_kernel(tree: OrderedTree, clocks: list[int], rng) -> list[CensusSnapshot]:
    """Advance a tree whose every split sheds a leaf, under an exact
    envelope, to ``tree.t == clocks[-1]``, ``_BLOCK`` steps at a time, and
    return its snapshots at the clocks ``clocks``.

    Such a split inserts one half-edge into the parent's list and gives the
    new leaf the other, so no half-edge ever changes owner and ``_ends``
    only grows (the generator of Batagelj and Brandes, PRE 71 (2005)
    036113).  A block draws ``rng.random(3n)``, the proposal, split and arc
    uniforms of its ``n`` steps, and resolves them with the float operations
    of ``_tree_kernel``:

    * a proposal owned by a half-edge made in the block is resolved by
      pointer jumping: the odd half of step ``s``'s edge belongs to the new
      vertex ``t0 + s``, the even half to the vertex step ``s`` split;
    * a step's degree is the vertex's degree before the block plus its
      earlier picks in the block, which ``_stable_order`` ranks by two
      linear radix passes over the vertex ids, not a sort;
    * the split uniform goes unread: a degree-``i`` split's only pair is
      ``(1, i + 1)``, admissible when the leaf mass ``g(i)`` is positive,
      and its two orders make the same tree;
    * the running totals are one ``cumsum`` of ``step``'s weight changes.

    The block raises ``step``'s DegeneracyError or InvalidDegreeError before
    it changes the tree; the generator has then drawn the whole block.
    Otherwise it logs the block's insertions for ``tree._adj`` to make when
    the lists are next read, and ``_advance_census`` takes its snapshots: a
    step turns a degree-``i`` vertex into one of degree ``i + 1`` and a
    leaf.  It seeds the degrees from ``tree._deg`` while insertions are
    pending, so a second call builds no list either.
    """
    A, B, _ = tree._envelope
    ends, model = tree._ends, tree.model
    t, t_final = tree.t, clocks[-1]
    deg = np.ones(t_final, np.int64)        # a vertex made later has degree 1
    deg[:t] = tree._deg[:t] if tree._log else np.fromiter(map(len, tree._adj), np.int64, t)
    tree._deg = deg                         # changed only by the blocks in the log
    snaps: list[CensusSnapshot] = []
    while t < t_final:
        if not tree.total_weight > 0.0:
            raise DegeneracyError("total sampling weight is not positive")
        n = min(_BLOCK, t_final - t)
        t0, e0, s = t, len(ends), np.arange(n)
        u = rng.random(3 * n).reshape(n, 3)
        clock = t0 + s
        at = A * clock
        x = u[:, 0] * (at + B * (2 * clock - 2))
        v = np.empty(n, np.int64)
        src = np.full(n, -1, np.int64)      # v[s] = v[src[s]] while src[s] >= 0
        uni = x < at
        if uni.any():
            v[uni] = np.minimum((x[uni] / A).astype(np.int64), clock[uni] - 1)
        he = np.flatnonzero(~uni)
        h = np.minimum(((x[he] - at[he]) / B).astype(np.int64), 2 * clock[he] - 3)
        old = h < e0
        v[he[old]] = np.frombuffer(ends, np.intc)[h[old]]
        he, h = he[~old], h[~old] - e0
        leaf = (h & 1) == 1
        v[he[leaf]] = t0 + (h[leaf] >> 1)
        src[he[~leaf]] = h[~leaf] >> 1
        pend = he[~leaf]
        while len(pend):                    # pointer jumping
            nxt = src[pend]
            jump = src[nxt]
            done = jump < 0
            v[pend[done]] = v[nxt[done]]
            src[pend[done]] = -1
            src[pend[~done]] = jump[~done]
            pend = pend[~done]
        # the rank of each pick among the picks of its vertex, in step order
        order = _stable_order(v)
        vs = v[order]
        _, start, picks = np.unique(vs, return_index=True, return_counts=True)
        i = np.empty(n, np.int64)
        i[order] = deg[vs] + s - np.repeat(start, picks)
        w = tree.weights
        w = np.array(w + [model.w(d) for d in range(len(w) + 1, int(i.max()) + 2)])
        totals = np.cumsum(np.concatenate(([tree.total_weight], (w[0] + w[i]) - w[i - 1])))
        bad_total = np.flatnonzero(~(totals[:n] > 0))
        bad_law = np.flatnonzero(~(model.partition.tail.g(i) > 0))
        if len(bad_total) and (not len(bad_law) or bad_total[0] <= bad_law[0]):
            raise DegeneracyError("total sampling weight is not positive")
        if len(bad_law):
            raise InvalidDegreeError(f"degree {i[bad_law[0]]} has no admissible split")
        deg[vs[start]] += picks
        p = (u[:, 2] * i).astype(np.intc)
        tree._log.append(((e0 + 2 * s).astype(np.intc), v.astype(np.intc), p))
        ends.frombytes(np.stack((v, clock), axis=1).astype(np.intc).tobytes())
        snaps += _advance_census(tree, clocks, totals, i - 1, (i, np.zeros(n, np.int64)), w)
        t = tree.t
    return snaps + [tree.census() for _ in clocks]


def _stable_order(ids: np.ndarray) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for ids in ``[0, 2**32)``: two
    stable passes over their 16-bit halves, the low half first, which numpy
    sorts by radix, in linear time."""
    order = np.argsort(ids.astype(np.uint16), kind="stable")
    return order[np.argsort((ids[order] >> 16).astype(np.uint16), kind="stable")]


# the most events in flight: consecutive replicas of one model grow as a
# group while their events sum to at most this, and a replica that needs
# more grows alone, in legs, which is exact because the process is Markov
_EVENT_BUDGET = 1 << 16
# chains of a replica's generation this large start with one draw per row,
# smaller ones with four: a row averages about 0.6 splits, so the draws cost
# most in a large generation and the blocks' fixed cost in a small one
_WIDE = 512
# the most rows a round or a release expands with one set of numpy calls,
# unless one replica has more; more go in pieces, which bounds the memory
_ROUND_ROWS = 8192


class _ClassLaws:
    """Death rates and event laws of the census classes of one layout,
    extended as the classes are reached: ``cover`` the rates, which every
    individual needs, ``cover_laws`` the event laws too, which events need.

    The law of class ``c`` is its run of entries ``lo[c]:hi[c]``; an event
    draws one, whose ``kid1`` and ``kid2`` are the classes it adds a member
    to (-1 for none).  A splitting class (stride bit clear) of degree ``d``
    has an entry per first child degree ``k`` of its split law, with kids
    ``s*k - 1`` and ``s*(d+2-k) - 1`` for the stride ``s`` and ``keys = c +
    cum / w_d``, so a search for ``c + u`` in the flat keys draws the entry
    of any class, and one ``searchsorted`` draws those of many.  A
    recolouring class has the one entry ``(c - 1, -1)``, and under chains a
    splitting class of leaf mass ``g(d) > 0`` the one entry ``(0, c + 1)``,
    read from no split law.  A class of positive weight with no entry has
    no admissible split.  The tables are numpy arrays, extended by one
    ``concatenate`` each as classes are added: ``w`` ends in a weight 0 and
    the kids in a class -1, which index -1, "none", reads.
    """

    def __init__(self, state):
        self.owner = state.model
        self.split_model, self.stride, self.gain = state._layout()
        self.chains = state.kernel == "chains"
        self._weight_of = state._class_weight
        self.w = np.zeros(1)
        self.inv_w = np.empty(0)                # 1 / w_c; inf for a class that never dies
        self.lo = self.hi = np.empty(0, np.int64)
        self.keys = np.empty(0)
        self.kid1 = self.kid2 = np.full(1, -1, np.int64)    # each entry's child classes

    def cover(self, n: int) -> None:
        """Rates of every class below ``n``."""
        new = np.array([self._weight_of(c) for c in range(len(self.inv_w), n)], float)
        if len(new):
            self.w = np.concatenate((self.w[:-1], new, [0.0]))
            with np.errstate(divide="ignore"):
                self.inv_w = np.concatenate((self.inv_w, np.where(new > 0, 1.0 / new, math.inf)))

    def cover_laws(self, n: int) -> None:
        """Rates and event laws of every class below ``n``."""
        self.cover(n)
        s, model = self.stride, self.split_model
        lo, keys, kid1, kid2 = [], [], [], []
        for c in range(len(self.lo), n):
            d, run = c // s + 1, ()
            if not self.w[c] > 0:
                pass
            elif c % s:                         # a recolour
                run = ((1.0, c - 1, -1),)
            elif self.chains:                   # a leaf split
                run = ((1.0, 0, c + 1),) if model.partition.tail.g(d) > 0 else ()
            else:
                ks, cum, wsum = model.split_distribution(d)
                if wsum > 0:
                    run = [(x / wsum, s * k - 1, s * (d + 2 - k) - 1) for k, x in zip(ks, cum)]
            lo.append(len(self.keys) + len(keys))
            for x, k1, k2 in run:
                keys.append(c + x)
                kid1.append(k1)
                kid2.append(k2)
        if lo:
            hi = lo[1:] + [len(self.keys) + len(keys)]
            self.lo, self.hi = (np.concatenate((old, np.array(new, np.int64)))
                                for old, new in ((self.lo, lo), (self.hi, hi)))
            self.keys = np.concatenate((self.keys, keys))
            self.kid1, self.kid2 = (np.concatenate((old[:-1], np.array(new + [-1], np.int64)))
                                    for old, new in ((self.kid1, kid1), (self.kid2, kid2)))


class _Growth:
    """The next ``need[r]`` events of each replica ``r`` of a group, as the
    continuous-time branching processes that embed their urns.

    Every member of a census is an individual of its class ``c``; it dies
    after an exponential time of rate ``w_c`` and leaves the children of a
    split (or the recoloured vertex).  A replica's state at its horizon is
    its census ``alive[r]`` of the members whose clocks have not rung,
    which are memoryless there; it starts as the replica's census, at
    horizon 0.  While its events are too few, the horizon moves on from
    ``lo`` to ``hi`` and ``Binomial(alive_c, q_c)`` members of each
    occupied class of weight ``w_c > 0`` ring, ``q_c = -expm1(-w_c (hi -
    lo))``, each at ``lo - log1p(-u q_c) / w_c`` (its clock's law given
    that it rings; a move may ring none).  The children of every event
    before the horizon are expanded a generation at a time: each draws its
    death time and is an event if that falls before the horizon, else it
    is counted back into ``alive``.  A replica's first ``need`` events in
    time order are its urn's next events; two at the same time, which
    takes a death within an ulp of its birth, may come in either order.

    The replicas are independent, so a round expands the generations of the
    whole group with one set of numpy calls: the rows carry their replica's
    index ``rep``, grouped by replica, and each replica keeps its own
    horizon, weight, events and census.  Replica ``r`` draws from
    ``rngs[r]`` alone what it would draw grown alone: a move draws its
    binomials, then one ring uniform per released member, then, in time
    order, one split uniform each; a generation of ``m`` individuals draws
    ``random((2, m))``, the death uniforms then the split uniforms.  Its
    outcome thus depends on its generator alone.

    Under chains (``laws.chains``: one colour, every split sheds a leaf) a
    vertex keeps its identity through its splits, so ``_chains`` expands
    each individual with all its splits before the horizon, drawing no split
    uniform, and a generation is the leaves born in the one before.  A
    released vertex is an event whose chain goes on one class up, beside
    its new leaf.  Each event keeps the index of its entry in ``laws``, -1
    when its class has no admissible split.
    """

    def __init__(self, laws: _ClassLaws, states, need: list[int], rngs):
        n = len(states)
        self.laws, self.need, self.rngs = laws, need, rngs
        self.w0 = [s.total_weight for s in states]  # the weights at horizon 0
        self.weight, self.drawn, self.rounds = list(self.w0), [0] * n, 0
        self.events: list[list] = [[] for _ in range(n)]    # (time, class, entry) arrays
        width = max(len(s.counts) for s in states)  # alive[r, c]: unrung members of class c
        self.alive = np.array([s.counts + [0] * (width - len(s.counts)) for s in states], np.int64)
        self._edges = np.arange(n + 1)
        laws.cover(width)
        self.horizon = np.zeros(n)

    def _next_horizon(self, r: int) -> float:
        """A horizon for replica ``r`` at which its expected event count
        reaches a goal: eight times the effective population ``W / g`` while
        that is small against the events needed, else the events needed plus
        one standard deviation.  The total weight ``W`` grows by ``g`` per
        event (exactly, for linear weights), so the count is a linear birth
        process whose spread over the rest of the run is about ``need /
        sqrt(W / g)``.  The rule only sets how much work is wasted, never the
        law."""
        n, need, w = self.drawn[r], self.need[r], max(self.weight[r], 1e-300)
        g = (w - self.w0[r]) / n if n >= 16 else self.laws.gain
        if not g > 1e-12 * w:
            return self.horizon[r] + (need - n + 2.0 * math.sqrt(need) + 2.0) / w
        pop = w / g
        goal = min(need + need / math.sqrt(pop) + 2.0, n + 7.0 * pop + 16.0)
        return self.horizon[r] + math.log1p(g * (goal - n) / w) / g

    def _slices(self, rep: np.ndarray) -> list[tuple[int, int, int]]:
        """``(r, start, stop)`` of each replica ``r`` with rows in ``rep``."""
        ends = np.searchsorted(rep, self._edges).tolist()
        return [(r, a, b) for r, (a, b) in enumerate(zip(ends, ends[1:])) if b > a]

    def _uniforms(self, rep: np.ndarray, *shape: int) -> np.ndarray:
        """``rngs[r].random((*shape, m))`` for each replica ``r`` with ``m``
        rows in ``rep``, joined along the last axis."""
        return np.concatenate([self.rngs[r].random((*shape, b - a))
                               for r, a, b in self._slices(rep)], axis=-1)

    def _outlive(self, c, rep) -> None:
        """Count individuals of classes ``c`` whose clocks ring past their
        replica's horizon back into its census."""
        if self.alive.shape[1] < len(self.laws.inv_w):     # widen past the covered classes
            self.alive = np.pad(self.alive, ((0, 0), (0, len(self.laws.inv_w))))
        np.add.at(self.alive.reshape(-1), rep * self.alive.shape[1] + c, 1)

    def _log(self, t, c, e, rep, dw, base=0.0) -> None:
        """Keep events of classes ``c`` at times ``t`` with entries ``e``:
        a replica's total weight changes by ``base`` per event plus the sum
        of its events' ``dw``."""
        c, e = c.astype(np.int32), e.astype(np.int32)
        for r, a, b in self._slices(rep):
            self.drawn[r] += b - a
            self.weight[r] += float((b - a) * base + dw[a:b].sum())
            self.events[r].append((t[a:b], c[a:b], e[a:b]))

    def _record(self, t, c, rep, u: Optional[np.ndarray] = None):
        """Events of classes ``c`` at times ``t``, each of the entry its
        split uniform ``u`` draws or, under chains (``u = None``), of its
        class's one entry; returns their children that can die."""
        laws = self.laws
        laws.cover_laws(int(c.max()) + 1)
        a, b = laws.lo[c], laws.hi[c]
        e = np.where(b > a, a, -1)      # a class's one entry, or -1 for none
        if u is not None:               # the rows whose class has a choice draw
            pick = np.flatnonzero(b - a > 1)
            e[pick] = np.minimum(np.maximum(np.searchsorted(
                laws.keys, c[pick] + u[pick], side="right"), a[pick]), b[pick] - 1)
        k1, k2 = laws.kid1[e], laws.kid2[e]
        laws.cover(int(max(k1.max(), k2.max())) + 1)
        w = laws.w
        self._log(t, c, e, rep, w[k1] + w[k2] - w[c])
        kids = np.stack((k1, k2), axis=1).ravel()
        live = np.flatnonzero(w[kids] > 0)
        return t[live >> 1], kids[live], rep[live >> 1]

    def _expand(self, birth, c, rep):
        """One generation of each replica; returns the next."""
        u = self._uniforms(rep, 2)
        death = birth - np.log1p(-u[0]) * self.laws.inv_w[c]
        ev = death < self.horizon[rep]
        self._outlive(c[~ev], rep[~ev])
        go = np.flatnonzero(ev)
        if not len(go):
            return death[go], c[go], rep[go]
        return self._record(death[go], c[go], rep[go], u[1][go])

    def _chains(self, birth, c, rep):
        """``_expand`` each individual with its whole chain, for a model
        whose every split sheds a leaf: the vertex splits into a leaf and
        itself one class up, so its split times are partial sums of
        exponentials of rates ``w_c, w_{c+1}, ...``.  A block of
        ``standard_exponential((m, L))`` for a replica's ``m`` rows gives
        each row ``L`` split times; a row with a split past the horizon is
        counted back into the census at its class there, and the rows that
        run past the block go on in one twice as long.  A replica's first
        block has ``L`` = 4, or 1 from ``_WIDE`` rows on, so the rows run in
        two lanes.  Returns the leaves born, the next generation."""
        laws = self.laws
        wide = (np.diff(np.searchsorted(rep, self._edges)) >= _WIDE)[rep]
        events = []                         # (time, class, replica) arrays
        for lane, L in ((wide, 1), (~wide, 4)):
            rows = slice(None) if lane.all() else np.flatnonzero(lane)
            birth_l, c_l, rep_l = birth[rows], c[rows], rep[rows]
            while len(c_l):
                laws.cover(int(c_l.max()) + L + 1)  # the block's classes and the last kid
                cls = c_l[:, None] + np.arange(L)
                t = np.empty((len(c_l), L))
                for r, a, b in self._slices(rep_l):
                    self.rngs[r].standard_exponential((b - a, L), out=t[a:b])
                t *= laws.inv_w[cls]
                t[:, 0] += birth_l
                np.cumsum(t, axis=1, out=t)
                # the times grow, so each row's events are a prefix, n of its L
                hit = np.flatnonzero(t < self.horizon[rep_l][:, None])
                row = hit >> (L.bit_length() - 1)
                n = np.bincount(row, minlength=len(c_l))
                events.append((t.ravel()[hit], cls.ravel()[hit], rep_l[row]))
                stop, go = np.flatnonzero(n < L), np.flatnonzero(n == L)
                self._outlive(c_l[stop] + n[stop], rep_l[stop])
                birth_l, c_l, rep_l, L = t[go, -1], c_l[go] + L, rep_l[go], 2 * L
        # each replica's events in block order, as it would draw them alone
        t, c, rep = _by_replica(events)
        if not len(c):
            return t, c, rep
        laws.cover_laws(int(c.max()) + 1)
        w, lo, hi = laws.w, laws.lo, laws.hi
        self._log(t, c, np.where(hi[c] > lo[c], lo[c], -1), rep, w[c + 1] - w[c], w[0])
        keep = len(t) if w[0] > 0 else 0
        return t[:keep], np.zeros(keep, np.int64), rep[:keep]

    def _release(self, waiting: list[int]):
        """Move the horizon of each replica in ``waiting`` on and record the
        members of its census that ring before it, per replica in time
        order; the census keeps the others."""
        laws, released = self.laws, []
        for r in waiting:
            alive, rng = self.alive[r], self.rngs[r]
            occupied = np.flatnonzero(alive)
            occupied = occupied[laws.w[occupied] > 0]
            if not len(occupied):
                raise DegeneracyError(
                    "total sampling weight is not positive: no vertex can split "
                    f"after {self.drawn[r]} of {self.need[r]} events")
            lo, hi = self.horizon[r], self._next_horizon(r)
            self.horizon[r] = hi
            q = -np.expm1(-laws.w[occupied] * (hi - lo))
            m = rng.binomial(alive[occupied], q)
            alive[occupied] -= m
            c, q = np.repeat(occupied, m), np.repeat(q, m)
            t = lo - np.log1p(-rng.random(len(c)) * q) * laws.inv_w[c]
            first = np.argsort(t)
            released.append((t[first], c[first], np.full(len(c), r)))
        t, c, rep = (np.concatenate(a) for a in zip(*released))
        if not len(c):
            return t, c, rep
        u = () if laws.chains else (self._uniforms(rep),)
        return self._pieces(self._record, t, c, rep, *u)

    def _pieces(self, fn, *cols):
        """``fn`` of the rows ``cols``, whose third is their replica, in
        pieces of whole replicas of at most ``_ROUND_ROWS`` rows each
        unless one replica has more, with the pieces' results joined."""
        cuts = [0]
        for _, a, b in self._slices(cols[2]):
            if b - cuts[-1] > _ROUND_ROWS and a > cuts[-1]:
                cuts.append(a)
        if len(cuts) == 1:
            return fn(*cols)
        cuts.append(len(cols[2]))
        parts = [fn(*(x[a:b] for x in cols)) for a, b in zip(cuts, cuts[1:])]
        return tuple(map(np.concatenate, zip(*parts)))

    def grow(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Grow the group, then yield, per replica, the classes and entries
        of its next ``need`` events, in time order."""
        expand = self._chains if self.laws.chains else self._expand
        while True:
            waiting = [r for r, n in enumerate(self.drawn) if n < self.need[r]]
            if not waiting:
                break
            birth, c, rep = self._release(waiting)
            while len(c):
                self.rounds += 1
                birth, c, rep = self._pieces(expand, birth, c, rep)
        for r, events in enumerate(self.events):
            t, c, e = (np.concatenate(a) for a in zip(*events))
            self.events[r] = []
            first = np.argsort(t)[:self.need[r]]
            yield c[first].astype(np.int64), e[first].astype(np.int64)


def _by_replica(parts: list[tuple[np.ndarray, ...]]) -> list[np.ndarray]:
    """The rows of ``parts``, tuples of arrays whose last is the rows'
    replica, joined and grouped by replica in their order; ``parts`` is
    emptied."""
    cols = [np.concatenate(a) for a in zip(*parts)]
    parts.clear()
    if len(cols[-1]) and cols[-1].min() < cols[-1].max():
        order = np.argsort(cols[-1], kind="stable")
        for j, col in enumerate(cols):
            cols[j] = col[order]
    return cols


def run_batch(states, t_final: int, rngs, thin: Optional[int] = None):
    """Grow census engines (``UrnState``, ``TwoColourState``; a tree grows by
    ``run``) to the clock ``t_final``, state ``r`` from ``rngs[r]`` alone.

    Returns each state's snapshots, as ``run`` records them (a ``thin`` of
    0 or None records only ``t_final``), and the batch's counters: per
    state the ``events_drawn``, which are the events kept plus those drawn
    past the last kept one, and for the batch the ``rounds``, one per
    generation expanded for a whole group (under chains, a leaf generation
    with the whole chains of its members).

    Consecutive states of one model grow as a group, one ``_Growth``, while
    their events sum to at most ``_EVENT_BUDGET``; a state that needs more
    grows alone, in legs.  A group starts from its states' class counts,
    which binomial releases draw members from, so a leg costs O(classes) to
    start, not a row per vertex.  Groups are expanded as their ``kernel``
    names, with the law of ``state.step`` from other draws, and a state's
    outcome depends on its generator alone, not on the groups.  Each
    state's snapshots come from ``_advance_census``.
    """
    if len(rngs) != len(states):
        raise InvalidParameterError(
            f"{len(states)} states need as many generators, not {len(rngs)}")
    for s in states:
        if isinstance(s, OrderedTree):
            raise InvalidParameterError("run_batch grows census engines; grow a tree with run")
        if t_final < s.t:
            raise InvalidParameterError(f"t_final = {t_final} < current t = {s.t}")
    clocks = [_clocks(s.t, t_final, thin) for s in states]
    snaps: list[list] = [[] for _ in states]
    drawn, rounds, laws = [0] * len(states), 0, None
    todo = [r for r, s in enumerate(states) if s.t < t_final]
    while todo:
        if laws is None or states[todo[0]].model is not laws.owner:
            laws = _ClassLaws(states[todo[0]])
        group, events = [], 0
        for r in todo:
            need = min(t_final - states[r].t, _EVENT_BUDGET)
            if states[r].model is not laws.owner or (group and events + need > _EVENT_BUDGET):
                break
            group.append(r)
            events += need
        del todo[:len(group)]
        while group:
            growth = _Growth(laws, [states[r] for r in group],
                             [min(t_final - states[r].t, _EVENT_BUDGET) for r in group],
                             [rngs[r] for r in group])
            for i, (c, e) in enumerate(growth.grow()):
                r = group[i]
                drawn[r] += growth.drawn[i]
                if (e < 0).any():
                    d = int(c[e < 0][0]) // laws.stride + 1
                    raise InvalidDegreeError(f"degree {d} has no admissible split")
                w, k1, k2 = laws.w, laws.kid1[e], laws.kid2[e]
                totals = np.cumsum(np.concatenate(([states[r].total_weight],
                                                   w[k1] + w[k2] - w[c])))
                snaps[r] += _advance_census(states[r], clocks[r], totals, c, (k1, k2), w)
            rounds += growth.rounds
            group = [r for r in group if states[r].t < t_final]
    trajectories = [sn + [s.census() for _ in cl] for sn, s, cl in zip(snaps, states, clocks)]
    return trajectories, {"events_drawn": drawn, "rounds": rounds}


# -- trajectory serialisation ---------------------------------------------------


_CSV_CELLS = 32768      # count cells (snapshot degrees) per census.csv chunk


def write_census_csv(fh, trajectories: list[list[CensusSnapshot]]) -> None:
    """Write to the binary file ``fh`` the ASCII rows ``replica,t,k``
    followed by the snapshots' count columns (``n``, or ``n_white,n_black``
    for two-colour snapshots), where ``trajectories[r]`` holds replica
    ``r``'s snapshots, all of one kind; degrees with no vertex are omitted.
    A replica's snapshots are written in chunks of up to ``_CSV_CELLS``
    count cells (or one snapshot)."""
    headers = {snap.CSV_COLUMNS for snaps in trajectories for snap in snaps}
    if len(headers) > 1:
        raise InvalidParameterError("census.csv takes snapshots of one kind, got columns "
                                    + " and ".join(sorted(headers)))
    fh.write(f"replica,t,k,{headers.pop() if headers else CensusSnapshot.CSV_COLUMNS}\n".encode())
    for rep, snaps in enumerate(trajectories):
        bounds = np.cumsum([0, *(len(snap.counts) for snap in snaps)])
        lo = 0
        while lo < len(snaps):
            hi = max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + _CSV_CELLS, "right")) - 1)
            fh.write(_csv_chunk(rep, snaps[lo:hi], bounds[lo:hi + 1] - bounds[lo]))
            lo = hi


def _csv_chunk(rep: int, snaps: list[CensusSnapshot], bounds: np.ndarray) -> bytes:
    """The rows of ``snaps``, whose counts fill ``bounds[i]:bounds[i+1]`` of
    their concatenation, as one ``uint8`` matrix whose NUL bytes (prefix
    padding and leading zeros) a boolean mask drops from the bytes.

    Each ``CSV_FIELDS`` array is concatenated once, and the cells where any
    of them is nonzero, the degrees some vertex has, are the rows."""
    fields = [np.concatenate([getattr(snap, name) for snap in snaps])
              for name in snaps[0].CSV_FIELDS]
    cells = np.flatnonzero(reduce(np.bitwise_or, fields))
    occupied = np.diff(np.searchsorted(cells, bounds))      # rows per snapshot
    prefixes = np.array([f"{rep},{snap.t},".encode() for snap in snaps])
    columns = [cells + 1 - np.repeat(bounds[:-1], occupied), *(f[cells] for f in fields)]
    del fields      # freed before the row matrix, which sets the peak
    widths = [len(str(values.max(initial=0))) for values in columns]
    col = prefixes.itemsize      # the longest prefix; shorter ones end in NUL
    rows = np.empty((len(cells), col + sum(widths) + len(widths)), np.uint8)
    rows[:, :col] = np.repeat(prefixes.view(np.uint8).reshape(-1, col), occupied, axis=0)
    for values, width in zip(columns, widths):
        rest = values = values.astype(np.uint32 if width < 10 else np.int64)  # faster division
        for e in range(width):      # ASCII digit of 10**e (48 is "0"); a leading zero is NUL
            rest, digit = np.divmod(rest, 10)
            rows[:, col + width - 1 - e] = (digit + 48) * (values >= (10 ** e if e else 0))
        rows[:, col + width] = ord(",")
        col += width + 1
    rows[:, -1] = ord("\n")
    rows = rows.ravel()
    return rows[rows != 0].tobytes()
