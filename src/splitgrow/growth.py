"""Growth engines for vertex-splitting trees.

Two law-equivalent engines are provided:

* ``OrderedTree`` maintains the full planar tree (cyclically ordered
  half-edges per vertex) and performs the structural split: a chosen vertex
  ``v`` of degree ``i`` is replaced by an adjacent pair ``v', v''`` of
  degrees ``k`` and ``i+2-k``, the incident edges being divided into two
  contiguous arcs of the cyclic order.

* ``UrnState`` tracks only the degree census ``n_k``: a split moves one
  ball out of urn ``i`` and adds one ball each to urns ``k`` and ``i+2-k``.

Driving both engines with the same stream of (degree, child-degree)
decisions produces identical censuses, which is the invariant the
correctness tests pin down; degree statistics do not depend on which
contiguous arc is chosen.

The engines sample independently, so their agreement in law tests one
sampler against the other.  ``UrnState`` (and ``twocolour.TwoColourState``)
draw from a ``ClassSampler``, a Fenwick tree that picks a census class with
probability ``n_d * w_d / W_t`` in O(log K).  ``OrderedTree`` draws a
vertex from a weight envelope ``A + B*d >= w_d`` in O(1) expected time: a
uniform vertex or the owner of a uniform half-edge, kept with probability
``w_d / (A + B*d)``.  Its split costs O(1) plus the shorter arc.  States
are confined to one worker at a time; the weight model is shared read-only.

``run`` grows trees through ``_tree_kernel`` and census engines through
``_census_kernel``.  Both draw their uniforms in blocks, inline the sampler
and allocate no events, and each leaves the state, the running total and
the generator exactly as the same number of ``step`` calls would.  ``step``
stays the event-returning reference.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import DegeneracyError, InvalidDegreeError, InvalidParameterError
from .weights import WeightModel

__all__ = [
    "ClassSampler",
    "SplitEvent",
    "CensusSnapshot",
    "OrderedTree",
    "UrnState",
    "run",
    "write_census_csv",
    "write_census_binary",
    "read_census_binary",
]


class ClassSampler:
    """Census classes drawn with probability ``counts[c] * weights[c] / W``.

    ``counts[c]`` members of class ``c`` weigh ``weights[c] = weight_of(c)``
    each.  A Fenwick tree over the class masses finds the class of a draw in
    O(log K) for K classes, so a heavy-tailed census with thousands of
    occupied degrees costs no more per draw than a light one.  Engines change
    ``counts`` only through ``add``.
    """

    def __init__(self, weight_of: Callable[[int], float], counts: Iterable[int] = ()):
        self._weight_of = weight_of
        self.counts: list[int] = []
        self.weights: list[float] = []
        self._mass: list[float] = []           # counts[c] * weights[c]
        self._tree = [0.0] * 17                # 1-based; capacity a power of two
        for c, n in enumerate(counts):
            self.add(c, n)

    def add(self, c: int, dn: int) -> None:
        """Change the member count of class ``c`` by ``dn``, creating the
        classes up to ``c`` as needed."""
        counts = self.counts
        while len(counts) <= c:
            self.weights.append(self._weight_of(len(counts)))
            counts.append(0)
            self._mass.append(0.0)
        counts[c] += dn
        tree = self._tree
        n = len(tree) - 1
        if c >= n:
            while n <= c:
                n <<= 1
            tree = self._tree = [0.0] * (n + 1)
            for i, mi in enumerate(self._mass):
                j = i + 1
                while mi and j <= n:
                    tree[j] += mi
                    j += j & (-j)
        m = counts[c] * self.weights[c]
        d = m - self._mass[c]
        if d == 0.0:
            return
        self._mass[c] = m
        j = c + 1
        while j <= n:
            tree[j] += d
            j += j & (-j)

    def sample(self, rng, total: float) -> tuple[int, float]:
        """A class and the leftover of the draw inside it, in
        ``[0, counts[c] * weights[c])``.

        ``total`` is the engine's running total weight.  It may differ from
        the exact sum in the last bits, so a draw can fall past the last
        class; it then goes to the last class with positive weight.  A
        zero-weight class is never returned.
        """
        if not total > 0.0:
            raise DegeneracyError("total sampling weight is not positive")
        x = rng.random() * total
        tree = self._tree
        n = len(tree) - 1
        pos = 0
        bit = n
        while bit:
            nxt = pos + bit
            if nxt <= n and tree[nxt] <= x:
                x -= tree[nxt]
                pos = nxt
            bit >>= 1
        mass = self._mass
        if pos < len(mass) and mass[pos] > 0.0:
            return pos, x
        return self._nearest_positive(pos), 0.0

    def _nearest_positive(self, pos: int) -> int:
        """Where a draw that rounding parked at ``pos``, past the last class
        or on an empty one, goes: the nearest class with positive mass at or
        below ``pos``, else above it."""
        mass = self._mass
        top = min(pos, len(mass) - 1)
        for c in chain(range(top, -1, -1), range(top + 1, len(mass))):
            if mass[c] > 0.0:
                return c
        raise DegeneracyError("no class has positive sampling weight")


@dataclass(frozen=True)
class SplitEvent:
    """One growth step: a degree-``parent_degree`` vertex split into children
    of ``child_degrees``; ``arrangement`` is the cyclic starting position of
    the first child's arc (-1 for census-only engines)."""

    t: int
    parent_degree: int
    child_degrees: tuple[int, int]
    arrangement: int = -1


@dataclass
class CensusSnapshot:
    t: int
    counts: np.ndarray          # counts[d-1] = number of degree-d vertices
    total_weight: float

    CSV_COLUMNS = "n"

    def identity_deviations(self) -> tuple[int, int]:
        """(sum n - t, sum k*n - (2t-2)); both are exactly zero for any
        reachable state."""
        n = self.counts
        ks = np.arange(1, len(n) + 1)
        return int(n.sum()) - self.t, int((ks * n).sum()) - (2 * self.t - 2)

    def csv_rows(self, prefix: str) -> str:
        """``prefix`` + ``k,n`` lines for the degrees with a vertex."""
        return "".join(f"{prefix}{k},{n}\n"
                       for k, n in enumerate(self.counts.tolist(), 1) if n)


class _CensusMixin:
    """Census read-outs shared by the one-colour engines; ``counts[d-1]``
    is the number of degree-``d`` vertices."""

    model: WeightModel
    t: int
    total_weight: float
    counts: list[int]

    def census(self) -> CensusSnapshot:
        return CensusSnapshot(self.t, np.array(self.counts, dtype=np.int64),
                              self.total_weight)

    def census_deviations(self) -> tuple[int, int, float]:
        """Integer census identities plus the relative drift of the running
        total weight against a fresh recomputation."""
        n = self.counts
        sum_n = sum(n) - self.t
        sum_kn = sum((d + 1) * c for d, c in enumerate(n)) - (2 * self.t - 2)
        exact = sum(c * self.model.w(d + 1) for d, c in enumerate(n) if c)
        drift = abs(self.total_weight - exact) / max(abs(exact), 1.0)
        return sum_n, sum_kn, drift

    def expected_weight(self) -> float:
        """Closed form ``w_2 * t - 2a``, valid for linear splitting weights."""
        return self.model.w2 * self.t - 2.0 * self.model.splitting.a


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


class OrderedTree(_CensusMixin):
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
    ``b >= 0``; a bounded table takes ``A = max w_d``, ``B = 0``.  The degree
    buckets serve ``apply_to_degree``.

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
        self._adj, self._ends, self.t = adj, ends, n
        if not self.is_tree():
            raise InvalidParameterError(
                "initial edges do not form a tree: they hold a cycle or are disconnected")
        top = max(len(hs) for hs in adj)
        if model.d_max is not None and top > model.d_max:
            raise InvalidParameterError(
                f"initial tree has degree {top} > d_max = {model.d_max}")
        self._envelope = _envelope(model)
        self.counts: list[int] = []
        self._members: list[list[int]] = []     # the degree-d vertices at d-1
        self._w: list[float] = []               # w_d at d-1
        self._add_degrees(top)
        self._pos = array("i")                  # v's index in its bucket
        for v, hs in enumerate(adj):
            d = len(hs)
            self.counts[d - 1] += 1
            bucket = self._members[d - 1]
            self._pos.append(len(bucket))
            bucket.append(v)
        self.total_weight = float(sum(n * wd for n, wd in zip(self.counts, self._w) if n))

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

    def _add_degrees(self, top: int) -> None:
        """Census classes for the degrees up to ``top``."""
        while len(self.counts) < top:
            self.counts.append(0)
            self._members.append([])
            self._w.append(self.model.w(len(self.counts)))

    # -- queries ---------------------------------------------------------------

    def degree(self, v: int) -> int:
        if not 0 <= v < self.t:
            raise InvalidParameterError(f"no vertex {v}")
        return len(self._adj[v])

    def neighbours(self, v: int) -> list[int]:
        ends = self._ends
        return [ends[h ^ 1] for h in self._adj[v]]

    def vertices(self) -> range:
        return range(self.t)

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
            if rng.random() * (A + B * d) < self._w[d - 1]:
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

        counts, members, pos = self.counts, self._members, self._pos
        if dv > len(counts) or dt > len(counts):
            self._add_degrees(max(dv, dt))
        counts[i - 1] -= 1
        counts[dv - 1] += 1
        counts[dt - 1] += 1
        if dv != i:
            bucket = members[i - 1]
            last = bucket.pop()
            if last != v:
                pos[last] = pos[v]
                bucket[pos[v]] = last
            bucket = members[dv - 1]
            pos[v] = len(bucket)
            bucket.append(v)
        bucket = members[dt - 1]
        pos.append(len(bucket))
        bucket.append(t)
        w = self._w
        self.total_weight += w[k - 1] + w[ell - 1] - w[i - 1]
        self.t = t + 1

    def step(self, rng) -> SplitEvent:
        v = self.sample_vertex(rng)
        k = self.model.sample_split(len(self._adj[v]), rng)
        return self.split_vertex(v, k, rng)

    def apply_to_degree(self, i: int, k: int, rng) -> SplitEvent:
        """Split a uniformly chosen vertex of degree ``i`` (replay interface;
        the census evolution does not depend on which one)."""
        if not 1 <= i <= len(self._members) or not self._members[i - 1]:
            raise InvalidParameterError(f"no vertex of degree {i}")
        bucket = self._members[i - 1]
        v = bucket[int(rng.integers(len(bucket)))]
        return self.split_vertex(v, k, rng)


class UrnState(_CensusMixin):
    """Census-only engine: one urn per degree, ball weight ``w_d`` each."""

    def __init__(self, model: WeightModel, counts: Iterable[int]):
        self.model = model
        w = model.w
        # class d-1 holds the degree-d balls, each of weight w_d
        self._classes = ClassSampler(lambda c: w(c + 1), counts)
        self.counts = self._classes.counts      # changed only through _classes
        self.t = int(sum(self.counts))
        self.total_weight = float(sum(n * wd for n, wd in
                                      zip(self.counts, self._classes.weights) if n))
        if self.t < 1:
            raise InvalidParameterError("initial census is empty")
        if model.d_max is not None and len(self.counts) > model.d_max:
            if any(self.counts[model.d_max:]):
                raise InvalidParameterError("initial census exceeds d_max")

    @classmethod
    def single_edge(cls, model: WeightModel) -> "UrnState":
        return cls(model, [2])

    def _layout(self) -> tuple[WeightModel, int]:
        """Split-size model and class stride for ``_census_kernel``."""
        return self.model, 1

    def sample_degree(self, rng) -> int:
        """Degree class drawn with probability w_d * n_d / total weight."""
        return self._classes.sample(rng, self.total_weight)[0] + 1

    def apply_split(self, i: int, k: int) -> SplitEvent:
        if self.counts[i - 1] < 1:
            raise InvalidParameterError(f"no ball in urn {i}")
        ell = i + 2 - k
        add = self._classes.add
        add(i - 1, -1)
        add(k - 1, 1)
        add(ell - 1, 1)
        self.t += 1
        w = self.model.w
        self.total_weight += w(k) + w(ell) - w(i)
        return SplitEvent(self.t, i, (k, ell))

    def step(self, rng) -> SplitEvent:
        i = self.sample_degree(rng)
        k = self.model.sample_split(i, rng)
        return self.apply_split(i, k)


def run(state, t_final: int, rng, thin: Optional[int] = None) -> list[CensusSnapshot]:
    """Grow until the clock ``state.t`` reaches ``t_final`` (the vertex count
    of a one-colour engine, the event clock of a two-colour one), returning
    census snapshots.

    ``thin=m`` records every m-th step (plus initial and final states);
    ``thin=None`` records only the final state.  Deterministic given the
    state, the model and the generator state.

    ``OrderedTree`` grows through ``_tree_kernel``, ``UrnState`` and
    ``TwoColourState`` through ``_census_kernel``.  Both draw their uniforms
    in blocks and allocate no events, and each leaves the state, the running
    total and the generator exactly as the same number of ``state.step``
    calls would.
    """
    if t_final < state.t:
        raise InvalidParameterError(f"t_final = {t_final} < current t = {state.t}")
    advance = _tree_kernel if isinstance(state, OrderedTree) else _census_kernel
    snaps: list[CensusSnapshot] = []
    if thin:
        snaps.append(state.census())
    # every step advances the clock by one, so snapshots fall every thin ticks
    for stop in chain(range(state.t + thin, t_final, thin) if thin else (), (t_final,)):
        advance(state, stop, rng)
        snaps.append(state.census())
    return snaps


_BLOCK = 4096           # most uniforms drawn per generator call by the kernels


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
    adj, ends, w = tree._adj, tree._ends, tree._w
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


def _census_kernel(state, t_stop: int, rng) -> None:
    """Advance a census engine to ``state.t == t_stop``: ``state.step`` with
    the ``ClassSampler`` inlined, block uniforms and no events.

    The engine's ``_layout()`` gives the split-size model and the stride
    ``s`` of its classes.  One colour (``s = 1``): class ``c`` is degree
    ``c + 1``.  Two colours (``s = 2``): an odd class is a black vertex and
    recolours into class ``c - 1``; an even class is a white vertex of degree
    ``c // 2 + 1``.  A split of degree ``d`` into ``k`` and ``d + 2 - k`` adds
    one member to classes ``s*k - 1`` and ``s*(d + 2 - k) - 1``.

    The draws, the order of the count and mass updates and the float
    operations on the running total are those of ``state.step``, so the
    outcome is bit-identical.  At most ``t_stop - t`` uniforms are drawn at
    a time, and every event uses at least one, so the generator is never
    drawn ahead of the scalar path.
    """
    split_model, stride = state._layout()
    recolour = stride - 1                   # class bit of a recolouring vertex
    sampler = state._classes
    counts, weights, mass = sampler.counts, sampler.weights, sampler._mass
    tree = sampler._tree
    n = len(tree) - 1
    cached_law = split_model._split_cache.get
    split_law = split_model.split_distribution
    us: list[float] = []                    # the block's unused uniforms, reversed
    ncls = len(counts)
    t, total = state.t, state.total_weight
    try:
        while t < t_stop:
            if not total > 0.0:
                raise DegeneracyError("total sampling weight is not positive")
            if not us:
                us = rng.random(min(_BLOCK, t_stop - t)).tolist()
                us.reverse()
            x = us.pop() * total
            # Fenwick descent; n is a power of two, so only the first level
            # can look past the last class
            if tree[n] <= x:
                c = n
            else:
                c, bit = 0, n >> 1
                while bit:
                    nxt = c + bit
                    if tree[nxt] <= x:
                        x -= tree[nxt]
                        c = nxt
                    bit >>= 1
            if c >= ncls or not mass[c] > 0.0:
                c = sampler._nearest_positive(c)
            if c & recolour:
                kids: tuple[int, ...] = (c - 1,)
            else:
                d = c // stride + 1
                ks, cum, wsum = cached_law(d) or split_law(d)
                if wsum <= 0:
                    raise InvalidDegreeError(f"degree {d} has no admissible split")
                if not us:
                    us = rng.random(min(_BLOCK, t_stop - t)).tolist()
                    us.reverse()
                k = ks[bisect_right(cum, us.pop() * wsum)]
                kids = (stride * k - 1, stride * (d + 2 - k) - 1)
            # ClassSampler.add(c, -1), then add(kid, 1) for each kid
            counts[c] -= 1
            m = counts[c] * weights[c]
            dm = m - mass[c]
            if dm != 0.0:
                mass[c] = m
                j = c + 1
                while j <= n:
                    tree[j] += dm
                    j += j & -j
            for kc in kids:
                if kc >= ncls:                  # a new class; the tree may grow
                    sampler.add(kc, 1)
                    tree = sampler._tree
                    n = len(tree) - 1
                    ncls = len(counts)
                    continue
                counts[kc] += 1
                m = counts[kc] * weights[kc]
                dm = m - mass[kc]
                if dm != 0.0:
                    mass[kc] = m
                    j = kc + 1
                    while j <= n:
                        tree[j] += dm
                        j += j & -j
            if c & recolour:
                total += weights[c - 1] - weights[c]
            else:
                total += weights[kids[0]] + weights[kids[1]] - weights[c]
            t += 1
    finally:
        state.t, state.total_weight = t, total


# -- trajectory serialisation ---------------------------------------------------


def write_census_csv(fh, trajectories: list[list[CensusSnapshot]]) -> None:
    """Rows ``replica,t,k`` followed by the snapshots' count columns (``n``,
    or ``n_white,n_black`` for two-colour snapshots), where
    ``trajectories[r]`` holds replica ``r``'s snapshots; degrees with no
    vertex are omitted."""
    columns = next((snap.CSV_COLUMNS for snaps in trajectories for snap in snaps),
                   CensusSnapshot.CSV_COLUMNS)
    fh.write(f"replica,t,k,{columns}\n")
    for rep, snaps in enumerate(trajectories):
        for snap in snaps:
            fh.write(snap.csv_rows(f"{rep},{snap.t},"))


_REC_HEAD = struct.Struct("<QI")


def write_census_binary(path, snapshots: list[CensusSnapshot]) -> None:
    """Compact little-endian dump: per snapshot ``u64 t, u32 K`` followed by
    ``K`` u64 counts for degrees 1..K."""
    with open(path, "wb") as fh:
        for snap in snapshots:
            counts = np.asarray(snap.counts, dtype="<u8")
            fh.write(_REC_HEAD.pack(snap.t, len(counts)))
            fh.write(counts.tobytes())


def read_census_binary(path) -> list[CensusSnapshot]:
    """Snapshots of a ``write_census_binary`` dump.  A file that ends inside
    a record raises InvalidParameterError naming the record's byte offset."""
    raw = Path(path).read_bytes()
    out: list[CensusSnapshot] = []
    pos = 0
    while pos < len(raw):
        if pos + _REC_HEAD.size > len(raw):
            raise InvalidParameterError(
                f"{path}: truncated record header at byte {pos} "
                f"(file ends at byte {len(raw)})")
        t, k = _REC_HEAD.unpack_from(raw, pos)
        body = pos + _REC_HEAD.size
        if body + 8 * k > len(raw):
            raise InvalidParameterError(
                f"{path}: record at byte {pos} holds {k} counts up to byte "
                f"{body + 8 * k}, but the file ends at byte {len(raw)}")
        counts = np.frombuffer(raw, dtype="<u8", count=k, offset=body)
        out.append(CensusSnapshot(t, counts.astype(np.int64), float("nan")))
        pos = body + 8 * k
    return out
