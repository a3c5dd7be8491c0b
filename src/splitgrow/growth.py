"""Growth engines for vertex-splitting trees.

Two law-equivalent engines are provided:

* ``OrderedTree`` maintains the full planar tree (cyclically ordered
  adjacency per vertex) and performs the structural split: a chosen vertex
  ``v`` of degree ``i`` is replaced by an adjacent pair ``v', v''`` of
  degrees ``k`` and ``i+2-k``, the incident edges being divided into two
  contiguous arcs of the cyclic order.

* ``UrnState`` tracks only the degree census ``n_k``: a split moves one
  ball out of urn ``i`` and adds one ball each to urns ``k`` and ``i+2-k``.

Driving both engines with the same stream of (degree, child-degree)
decisions produces identical censuses, which is the invariant the
correctness tests pin down; degree statistics do not depend on which
contiguous arc is chosen.

Both draw from the degree census: a ``ClassSampler`` picks a degree class
with probability ``n_d * w_d / W_t`` in O(log K) over K degree classes, and
the tree then picks a uniform member of that class from the same draw.  A
tree step adds O(deg) surgery.  States are confined to one worker at a time;
the weight model is shared read-only.

``run`` grows ``UrnState`` and ``twocolour.TwoColourState`` through one
census kernel, ``_census_kernel``: it draws its uniforms in blocks, inlines
the sampler and allocates no events, and it leaves the census, the running
total and the generator exactly as the same number of ``step`` calls would.
``step`` stays the event-returning reference.  ``OrderedTree`` grows
through ``step``.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
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
    """Census bookkeeping shared by both engines."""

    model: WeightModel
    t: int
    total_weight: float

    def _census_init(self, counts: Iterable[int]) -> None:
        w = self.model.w
        # class d-1 holds the degree-d vertices, each of weight w_d
        self._classes = ClassSampler(lambda c: w(c + 1), counts)
        self.counts = self._classes.counts      # changed only through _classes
        self.t = int(sum(self.counts))
        self.total_weight = float(sum(n * wd for n, wd in
                                      zip(self.counts, self._classes.weights) if n))

    def _census_split(self, i: int, k: int, ell: int) -> None:
        """One degree-``i`` vertex replaced by two of degrees ``k``, ``ell``."""
        add = self._classes.add
        add(i - 1, -1)
        add(k - 1, 1)
        add(ell - 1, 1)
        self.t += 1
        w = self.model.w
        self.total_weight += w(k) + w(ell) - w(i)

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


class OrderedTree(_CensusMixin):
    """Planar tree engine with tombstoned vertex slots and id reuse."""

    def __init__(self, model: WeightModel, adjacency: list[Optional[list[int]]]):
        self.model = model
        self._adj = adjacency
        self._free: list[int] = [v for v, nb in enumerate(adjacency) if nb is None]
        counts: list[int] = []
        for nb in adjacency:
            if nb is None:
                continue
            d = len(nb)
            while len(counts) < d:
                counts.append(0)
            counts[d - 1] += 1
        self._census_init(counts)
        self._members: list[list[int]] = [[] for _ in counts]
        self._pos: dict[int, int] = {}
        for v, nb in enumerate(adjacency):
            if nb is None:
                continue
            self._enter(v, len(nb))
        if model.d_max is not None:
            top = max((len(nb) for nb in adjacency if nb is not None), default=0)
            if top > model.d_max:
                raise InvalidParameterError(
                    f"initial tree has degree {top} > d_max = {model.d_max}")

    # -- construction ------------------------------------------------------

    @classmethod
    def single_edge(cls, model: WeightModel) -> "OrderedTree":
        return cls(model, [[1], [0]])

    @classmethod
    def from_edges(cls, model: WeightModel, edges: Iterable[tuple[int, int]]) -> "OrderedTree":
        """Build from an edge list; cyclic order is edge-insertion order."""
        adj: dict[int, list[int]] = {}
        for u, v in edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        n = max(adj) + 1
        return cls(model, [adj.get(v) for v in range(n)])

    # -- bookkeeping ---------------------------------------------------------

    def _enter(self, v: int, d: int) -> None:
        while len(self._members) < d:
            self._members.append([])
        bucket = self._members[d - 1]
        self._pos[v] = len(bucket)
        bucket.append(v)

    def _leave(self, v: int, d: int) -> None:
        bucket = self._members[d - 1]
        p = self._pos.pop(v)
        last = bucket.pop()
        if last != v:
            bucket[p] = last
            self._pos[last] = p

    def _new_id(self) -> int:
        if self._free:
            return self._free.pop()
        self._adj.append(None)
        return len(self._adj) - 1

    # -- queries ---------------------------------------------------------------

    def degree(self, v: int) -> int:
        nb = self._adj[v]
        if nb is None:
            raise InvalidParameterError(f"vertex {v} is not live")
        return len(nb)

    def neighbours(self, v: int) -> list[int]:
        return list(self._adj[v])

    def vertices(self):
        return (v for v, nb in enumerate(self._adj) if nb is not None)

    def is_tree(self) -> bool:
        """Connectivity and acyclicity check (on demand; O(t))."""
        live = [v for v, nb in enumerate(self._adj) if nb is not None]
        if not live:
            return False
        seen = {live[0]}
        stack = [live[0]]
        nedges = 0
        while stack:
            v = stack.pop()
            nedges += len(self._adj[v])
            for u in self._adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(live) and nedges == 2 * (len(live) - 1)

    # -- dynamics ------------------------------------------------------------

    def sample_vertex(self, rng) -> int:
        """Vertex drawn with probability w_deg(v) / total weight: a degree
        class by its census weight, then a uniform member of that class
        read from the same draw's leftover."""
        c, x = self._classes.sample(rng, self.total_weight)
        bucket = self._members[c]
        # rounding of x / w_c can reach the bucket size
        return bucket[min(int(x / self._classes.weights[c]), len(bucket) - 1)]

    def split_vertex(self, v: int, k: int, rng) -> SplitEvent:
        """Replace ``v`` (degree ``i``) by adjacent ``v'``, ``v''`` of degrees
        ``k`` and ``i+2-k``; the first child takes a contiguous arc of
        ``k-1`` edges starting at a uniformly chosen cyclic position."""
        nb = self._adj[v]
        i = len(nb)
        if not 1 <= k <= i + 1:
            raise InvalidParameterError(f"child degree {k} out of range for degree {i}")
        ell = i + 2 - k
        if self.model.d_max is not None:
            assert max(k, ell) <= self.model.d_max, "split exceeds degree bound"
        p = int(rng.integers(i)) if i > 1 else 0
        arc1 = [nb[(p + m) % i] for m in range(k - 1)]
        arc2 = [nb[(p + k - 1 + m) % i] for m in range(i - k + 1)]

        self._leave(v, i)
        self._adj[v] = None
        self._free.append(v)
        v1 = self._new_id()
        v2 = self._new_id()
        self._adj[v1] = arc1 + [v2]
        self._adj[v2] = arc2 + [v1]
        for u in arc1:
            a = self._adj[u]
            a[a.index(v)] = v1
        for u in arc2:
            a = self._adj[u]
            a[a.index(v)] = v2
        self._enter(v1, k)
        self._enter(v2, ell)
        self._census_split(i, k, ell)
        return SplitEvent(self.t, i, (k, ell), p)

    def step(self, rng) -> SplitEvent:
        v = self.sample_vertex(rng)
        k = self.model.sample_split(len(self._adj[v]), rng)
        return self.split_vertex(v, k, rng)

    def apply_to_degree(self, i: int, k: int, rng) -> SplitEvent:
        """Split a uniformly chosen vertex of degree ``i`` (replay interface;
        the census evolution does not depend on which one)."""
        bucket = self._members[i - 1]
        if not bucket:
            raise InvalidParameterError(f"no live vertex of degree {i}")
        v = bucket[int(rng.integers(len(bucket)))]
        return self.split_vertex(v, k, rng)


class UrnState(_CensusMixin):
    """Census-only engine: one urn per degree, ball weight ``w_d`` each."""

    def __init__(self, model: WeightModel, counts: Iterable[int]):
        self.model = model
        self._census_init(counts)
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
        self._census_split(i, k, ell)
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

    ``UrnState`` and ``TwoColourState`` grow through ``_census_kernel``,
    which draws its uniforms in blocks and allocates no events; the census,
    the running total and the generator end exactly as after the same number
    of ``state.step`` calls.  ``OrderedTree`` takes its ``step`` path.
    """
    if t_final < state.t:
        raise InvalidParameterError(f"t_final = {t_final} < current t = {state.t}")
    advance = _census_kernel if hasattr(state, "_layout") else _step_until
    snaps: list[CensusSnapshot] = []
    if thin:
        snaps.append(state.census())
    # every step advances the clock by one, so snapshots fall every thin ticks
    for stop in chain(range(state.t + thin, t_final, thin) if thin else (), (t_final,)):
        advance(state, stop, rng)
        snaps.append(state.census())
    return snaps


def _step_until(state, t_stop: int, rng) -> None:
    while state.t < t_stop:
        state.step(rng)


_BLOCK = 4096           # uniforms drawn per generator call by the census kernel


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
    out: list[CensusSnapshot] = []
    with open(path, "rb") as fh:
        while True:
            head = fh.read(_REC_HEAD.size)
            if not head:
                break
            t, k = _REC_HEAD.unpack(head)
            counts = np.frombuffer(fh.read(8 * k), dtype="<u8").astype(np.int64)
            out.append(CensusSnapshot(t, counts, float("nan")))
    return out
