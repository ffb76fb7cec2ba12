"""Temporal edge lists, neighborhood-formation histories, and evaluation splits.

A network is a chronologically sorted list of timestamped directed
interactions plus, per node, the time-ordered sequence of neighbors it
connected to, stored as flat CSR arrays so that batches of histories,
negative draws and adjacency tests are array operations. Timestamps are
min-max normalized to [0, 1] at load so decay parameters are comparable
across datasets; the network keeps the raw range so that times can be
converted back to the input's units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class TemporalEdge(NamedTuple):
    source: int
    target: int
    time: float


class NeighborEvent(NamedTuple):
    neighbor: int
    time: float


class EdgeListParseError(ValueError):
    """Malformed input line; message carries the 1-based line number."""


@dataclass
class TemporalNetwork:
    """Immutable-after-construction view of a temporal interaction network.

    The edges are kept chronologically in ``sources``/``targets``/``times``.
    Each node's events are stored in CSR form (compressed sparse rows): node
    u's events are positions ``indptr[u]:indptr[u + 1]`` of the flat arrays
    ``ev_nbr`` (the other endpoint) and ``ev_time``, in edge order, so times
    ascend within a node and equal times keep the input order. A directed edge
    is an event of its source; an undirected edge is an event of both
    endpoints. ``edge_pos[i]`` is edge i's position in its source's events.

    The static adjacency is a sorted array of ``a * node_count + b`` keys:
    ``adj_keys`` holds both orientations of every linked pair (so a node's
    static neighbors are one contiguous run), ``pair_keys`` the static edges
    themselves: ordered pairs in directed networks, ``a < b`` otherwise.
    """

    node_count: int
    labels: list
    label_to_id: dict
    sources: np.ndarray
    targets: np.ndarray
    times: np.ndarray
    directed: bool
    indptr: np.ndarray = field(repr=False)     # (node_count + 1,) event offsets
    ev_nbr: np.ndarray = field(repr=False)     # per event: neighbor id
    ev_time: np.ndarray = field(repr=False)    # per event: time, ascending per node
    edge_pos: np.ndarray = field(repr=False)   # per edge: its source-side event
    adj_keys: np.ndarray = field(repr=False)   # sorted a*N+b, both orientations
    pair_keys: np.ndarray = field(repr=False)  # sorted a*N+b, one per static edge
    degrees: np.ndarray = field(repr=False)
    tmin: float = 0.0   # raw time that normalizes to 0
    tmax: float = 1.0   # raw time that normalizes to 1 (tmin when all are equal)

    @property
    def n_edges(self) -> int:
        return len(self.times)

    @property
    def static_edge_count(self) -> int:
        return len(self.pair_keys)

    def normalized_time(self, raw: float) -> float:
        """A time in the input's units on the network's normalized scale."""
        return (raw - self.tmin) / ((self.tmax - self.tmin) or 1.0)

    def raw_time(self, t):
        """Normalized time(s) back in the input's units."""
        return self.tmin + np.asarray(t, dtype=np.float64) * ((self.tmax - self.tmin) or 1.0)

    def events(self, u: int):
        """Neighbor ids and times of all of u's events (views, ascending time)."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.ev_nbr[lo:hi], self.ev_time[lo:hi]

    def recent(self, u: int, t: float, limit: int):
        """Neighbor ids and times of u's last ``limit`` events strictly before t."""
        nbrs, times_u = self.events(u)
        idx = int(np.searchsorted(times_u, t, side="left"))
        lo = max(0, idx - limit)
        return nbrs[lo:idx], times_u[lo:idx]

    def neighbors(self, u: int) -> np.ndarray:
        """Distinct static neighbors of u in either direction, ascending."""
        n = self.node_count
        lo, hi = np.searchsorted(self.adj_keys, [u * n, (u + 1) * n])
        return self.adj_keys[lo:hi] - u * n

    def adjacent(self, a, b) -> np.ndarray:
        """Elementwise: do a and b share a static edge (in either direction)?"""
        keys = np.asarray(a, dtype=np.int64) * self.node_count + np.asarray(b, dtype=np.int64)
        return _contains(self.adj_keys, keys)

    def pairs(self) -> list:
        """The static edges as (a, b) tuples, ascending."""
        a, b = np.divmod(self.pair_keys, self.node_count)
        return list(zip(a.tolist(), b.tolist()))


def _pair_keys(sources, targets, n: int, directed: bool) -> np.ndarray:
    """Static-edge key of each (source, target): ordered pairs when
    ``directed``, unordered ``(min, max)`` pairs otherwise."""
    if not directed:
        sources, targets = np.minimum(sources, targets), np.maximum(sources, targets)
    return sources * n + targets


def _contains(sorted_keys: np.ndarray, keys) -> np.ndarray:
    """Elementwise membership of ``keys`` in a sorted key array."""
    keys = np.asarray(keys)
    if not len(sorted_keys):
        return np.zeros(keys.shape, dtype=bool)
    return sorted_keys.take(np.searchsorted(sorted_keys, keys), mode="clip") == keys


def _build_network(labels, label_to_id, sources, targets, times, directed, normalize,
                   t_range=(0.0, 1.0)):
    """``t_range`` is the raw (tmin, tmax) of already normalized ``times``;
    with ``normalize`` it is measured from ``times`` instead."""
    n = len(labels)
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    tmin, tmax = t_range
    if normalize and len(times):
        tmin, tmax = float(times.min()), float(times.max())
        times = (times - tmin) / (tmax - tmin) if tmax > tmin else np.zeros_like(times)
    # Stable sort keeps input order as the tie-break for equal timestamps.
    order = np.argsort(times, kind="stable")
    sources, targets, times = sources[order], targets[order], times[order]

    # Events: one per edge for its source, plus one for its target when
    # undirected; grouped by owner, in edge order within each owner.
    e = len(times)
    owner, other = sources, targets
    if not directed:
        owner, other = np.concatenate([sources, targets]), np.concatenate([targets, sources])
    edge_of = np.arange(len(owner)) % max(e, 1)
    perm = np.lexsort((edge_of, owner))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    edge_pos = np.empty(e, dtype=np.int64)
    src_side = perm < e
    edge_pos[perm[src_side]] = np.flatnonzero(src_side)

    adj_keys = np.unique(np.concatenate([sources * n + targets, targets * n + sources]))
    return TemporalNetwork(
        node_count=n,
        labels=list(labels),
        label_to_id=dict(label_to_id),
        sources=sources,
        targets=targets,
        times=times,
        directed=directed,
        indptr=indptr,
        ev_nbr=other[perm],
        ev_time=times[edge_of[perm]],
        edge_pos=edge_pos,
        adj_keys=adj_keys,
        pair_keys=np.unique(_pair_keys(sources, targets, n, directed)),
        degrees=np.bincount(adj_keys // max(n, 1), minlength=n),
        tmin=tmin,
        tmax=tmax,
    )


def network_from_edges(labels, sources, targets, times, directed, normalize=True):
    """Build a network from parallel edge arrays; node ids must be dense ints."""
    label_to_id = {lab: i for i, lab in enumerate(labels)}
    return _build_network(labels, label_to_id, sources, targets, times, directed, normalize)


def load_edge_list(path, directed: bool) -> TemporalNetwork:
    """Parse a `src dst time` text file into a TemporalNetwork.

    Node tokens are remapped to dense integers in order of first appearance;
    self-loops are dropped; duplicate temporal edges are kept as distinct
    events. Lines starting with '#' are ignored.
    """
    labels = []
    label_to_id = {}
    sources, targets, times = [], [], []

    def node_id(tok):
        nid = label_to_id.get(tok)
        if nid is None:
            nid = len(labels)
            label_to_id[tok] = nid
            labels.append(tok)
        return nid

    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise EdgeListParseError(
                    f"{path}:{lineno}: expected 'source target timestamp', got {len(parts)} fields"
                )
            try:
                t = float(parts[2])
            except ValueError:
                raise EdgeListParseError(
                    f"{path}:{lineno}: timestamp {parts[2]!r} is not a number"
                ) from None
            if not np.isfinite(t):
                raise EdgeListParseError(f"{path}:{lineno}: timestamp {parts[2]!r} is not finite")
            if parts[0] == parts[1]:
                continue  # self-loop
            sources.append(node_id(parts[0]))
            targets.append(node_id(parts[1]))
            times.append(t)
    if not times:
        raise EdgeListParseError(f"{path}: no usable edges (empty file or self-loops only)")
    return _build_network(labels, label_to_id, sources, targets, times, directed, normalize=True)


def history(net: TemporalNetwork, u: int, t: float, limit: int):
    """The at-most-``limit`` most recent events of u strictly before t, ascending."""
    if limit < 1:
        raise ValueError("history length must be >= 1")
    if not 0 <= u < net.node_count:
        raise ValueError(f"node {u} out of range")
    nbrs, times = net.recent(u, t, limit)
    return [NeighborEvent(int(n), float(tt)) for n, tt in zip(nbrs, times)]


def history_windows(net: TemporalNetwork, pos, limit: int):
    """CSR bounds (start, stop) of each event's history window.

    For the event at CSR position ``pos[i]`` of owner u at time t, the window
    holds u's at-most-``limit`` most recent events strictly before t: the
    ``limit`` positions before the start of the run of u's events at time t.
    """
    counts = np.diff(net.indptr)
    owner = np.repeat(np.arange(net.node_count), counts)
    new_run = np.ones(len(owner), dtype=bool)
    new_run[1:] = (owner[1:] != owner[:-1]) | (net.ev_time[1:] != net.ev_time[:-1])
    run_start = np.maximum.accumulate(np.where(new_run, np.arange(len(owner)), 0))
    pos = np.asarray(pos, dtype=np.int64)
    stop = run_start[pos]
    return np.maximum(net.indptr[owner[pos]], stop - limit), stop


class NegativeSampler:
    """Draws nodes with probability proportional to static_degree^(3/4).

    Zero-degree nodes get zero mass. Each sampler owns a default RNG seeded
    at construction; callers may pass an explicit generator per call instead.
    """

    def __init__(self, net: TemporalNetwork, seed: int = 0):
        weights = net.degrees.astype(np.float64) ** 0.75
        weights[net.degrees == 0] = 0.0
        total = weights.sum()
        if total <= 0:
            raise ValueError("all nodes have zero degree; cannot build sampler")
        self.probs = weights / total
        self.cum = np.cumsum(self.probs)
        self.cum[-1] = 1.0
        self._rng = np.random.default_rng(seed)

    def nodes(self, uniforms) -> np.ndarray:
        """The nodes that uniform [0, 1) variates select, elementwise."""
        return np.searchsorted(self.cum, uniforms, side="right")

    def draw(self, size: int, rng=None) -> np.ndarray:
        rng = rng if rng is not None else self._rng
        return self.nodes(rng.random(size))


def fill_negatives(net: TemporalNetwork, u, v, count: int, draw) -> np.ndarray:
    """(B, count) negatives for B (source, target) rows, by rejection.

    Each row takes the first ``count`` candidates of its own stream that are
    neither its u, its v nor a static neighbor of u. ``draw(rows, start,
    size)`` returns the candidates at positions ``start, start + 1, ...`` of
    the streams of ``rows``, at least ``size`` of them; rounds draw for the
    rows still short until all are full, and give up after 1000 rounds
    (pathologically dense toy graphs) with a hint to lower the negative
    count. The result does not depend on how many candidates a round draws.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    out = np.empty((len(u), count), dtype=np.int64)
    filled = np.zeros(len(u), dtype=np.int64)
    rows = np.arange(len(u))
    start = 0
    for _ in range(1000):
        size = int(count - filled[rows].min())
        d = draw(rows, start, size)
        start += d.shape[1]
        ur, vr = u[rows, None], v[rows, None]
        ok = (d != ur) & (d != vr) & ~net.adjacent(ur, d)
        slot = filled[rows, None] + np.cumsum(ok, axis=1) - 1
        r, j = np.nonzero(ok & (slot < count))
        out[rows[r], slot[r, j]] = d[r, j]
        filled[rows] = np.minimum(slot[:, -1] + 1, count)
        rows = rows[filled[rows] < count]
        if not len(rows):
            return out
    raise RuntimeError(
        f"negative sampling for node {int(u[rows[0]])} exceeded 1000 attempts per slot; "
        "the graph is too dense for this negative count, use a smaller one"
    )


def sample_negatives(sampler, net, u, v, count, rng=None):
    """``count`` degree-weighted draws, rejecting u, v, and u's static neighbors.

    Rejected draws are resampled; gives up after 1000 rounds (pathologically
    dense toy graphs) with a hint to lower the negative count.
    """
    return fill_negatives(
        net, [u], [v], count, lambda rows, start, size: sampler.draw(size, rng)[None, :]
    )[0]


def mask_static_edges(net: TemporalNetwork, count: int, rng):
    """Remove ``count`` random static edges (all temporal occurrences) from a copy.

    Returns (train_network, positive_pairs, negative_pairs): positives are the
    masked pairs, negatives an equal-sized uniform sample of non-edges. Node
    ids and timestamps are preserved; the training network is rebuilt from the
    surviving edges without re-normalizing time, and keeps the raw time range.
    """
    n_pairs = net.static_edge_count
    if count > n_pairs:
        raise ValueError(f"cannot mask {count} edges; only {n_pairs} static edges exist")
    t_range = (net.tmin, net.tmax)
    chosen = np.sort(rng.choice(n_pairs, size=count, replace=False))
    pairs = net.pairs()
    positives = [pairs[i] for i in chosen]
    edge_keys = _pair_keys(net.sources, net.targets, net.node_count, net.directed)
    keep = ~_contains(net.pair_keys[chosen], edge_keys)
    train = _build_network(
        net.labels, net.label_to_id, net.sources[keep], net.targets[keep],
        net.times[keep], net.directed, normalize=False, t_range=t_range,
    )

    n = net.node_count
    static = set(net.pair_keys.tolist())
    negatives = []
    seen = set()
    budget = 1000 * count + 10000
    while len(negatives) < count:
        if budget <= 0:
            raise RuntimeError("could not find enough non-edges; graph too dense")
        budget -= 1
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a == b:
            continue
        if not net.directed and a > b:
            a, b = b, a
        key = a * n + b
        if key in static or key in seen:
            continue
        seen.add(key)
        negatives.append((a, b))
    return train, positives, negatives


def write_pairs(pairs, path) -> None:
    """Two-column text file, one node pair per line."""
    with open(path, "w") as fh:
        for a, b in pairs:
            fh.write(f"{a} {b}\n")
