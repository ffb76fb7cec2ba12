"""Temporal edge lists, neighborhood-formation histories, and evaluation splits.

A network is a chronologically sorted list of timestamped directed
interactions plus, per node, the time-ordered sequence of neighbors it
connected to. Timestamps are min-max normalized to [0, 1] at load so decay
parameters are comparable across datasets; the network keeps the raw range
so that times can be converted back to the input's units.
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
    """Immutable-after-construction view of a temporal interaction network."""

    node_count: int
    labels: list
    label_to_id: dict
    sources: np.ndarray
    targets: np.ndarray
    times: np.ndarray
    directed: bool
    ev_times: list = field(repr=False)      # per node: event times, ascending
    ev_nbrs: list = field(repr=False)       # per node: neighbor ids, aligned
    neighbor_sets: list = field(repr=False)  # per node: distinct static neighbors
    degrees: np.ndarray = field(repr=False)
    static_pairs: set = field(repr=False)    # unordered (a, b) with a < b
    tmin: float = 0.0   # raw time that normalizes to 0
    tmax: float = 1.0   # raw time that normalizes to 1 (tmin when all are equal)

    @property
    def n_edges(self) -> int:
        return len(self.times)

    @property
    def static_edge_count(self) -> int:
        return len(self.static_pairs)

    @property
    def edges(self) -> list:
        """Chronological list of TemporalEdge (materialized on demand)."""
        return [
            TemporalEdge(int(s), int(t), float(tt))
            for s, t, tt in zip(self.sources, self.targets, self.times)
        ]

    def normalized_time(self, raw: float) -> float:
        """A time in the input's units on the network's normalized scale."""
        return (raw - self.tmin) / ((self.tmax - self.tmin) or 1.0)

    def raw_time(self, t):
        """Normalized time(s) back in the input's units."""
        return self.tmin + np.asarray(t, dtype=np.float64) * ((self.tmax - self.tmin) or 1.0)

    def recent(self, u: int, t: float, limit: int):
        """Neighbor ids and times of u's last ``limit`` events strictly before t."""
        times_u = self.ev_times[u]
        idx = int(np.searchsorted(times_u, t, side="left"))
        lo = max(0, idx - limit)
        return self.ev_nbrs[u][lo:idx], times_u[lo:idx]


def _build_network(labels, label_to_id, sources, targets, times, directed, normalize,
                   t_range=(0.0, 1.0)):
    """``t_range`` is the raw (tmin, tmax) of already normalized ``times``;
    with ``normalize`` it is measured from ``times`` instead."""
    node_count = len(labels)
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

    ev_t = [[] for _ in range(node_count)]
    ev_n = [[] for _ in range(node_count)]
    nbr_sets = [set() for _ in range(node_count)]
    static_pairs = set()
    for s, t, tt in zip(sources, targets, times):
        ev_t[s].append(tt)
        ev_n[s].append(t)
        if not directed:
            ev_t[t].append(tt)
            ev_n[t].append(s)
        nbr_sets[s].add(int(t))
        nbr_sets[t].add(int(s))
        # static edges are ordered pairs in directed networks, canonical
        # unordered pairs otherwise
        if directed or s < t:
            static_pairs.add((int(s), int(t)))
        else:
            static_pairs.add((int(t), int(s)))
    ev_times = [np.asarray(x, dtype=np.float64) for x in ev_t]
    ev_nbrs = [np.asarray(x, dtype=np.int64) for x in ev_n]
    degrees = np.array([len(s) for s in nbr_sets], dtype=np.int64)
    return TemporalNetwork(
        node_count=node_count,
        labels=list(labels),
        label_to_id=dict(label_to_id),
        sources=sources,
        targets=targets,
        times=times,
        directed=directed,
        ev_times=ev_times,
        ev_nbrs=ev_nbrs,
        neighbor_sets=nbr_sets,
        degrees=degrees,
        static_pairs=static_pairs,
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

    def draw(self, size: int, rng=None) -> np.ndarray:
        rng = rng if rng is not None else self._rng
        return np.searchsorted(self.cum, rng.random(size), side="right")


def sample_negatives(sampler, net, u, v, count, rng=None):
    """``count`` degree-weighted draws, rejecting u, v, and u's static neighbors.

    Rejected draws are resampled; gives up after 1000 rounds (pathologically
    dense toy graphs) with a hint to lower the negative count.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    blocked = net.neighbor_sets[u] | {u, v}
    out = np.empty(count, dtype=np.int64)
    missing = count
    for _ in range(1000):
        draws = sampler.draw(missing, rng)
        ok = np.fromiter((d not in blocked for d in draws), dtype=bool, count=missing)
        n_ok = int(ok.sum())
        out[count - missing : count - missing + n_ok] = draws[ok]
        missing -= n_ok
        if missing == 0:
            return out
    raise RuntimeError(
        f"negative sampling for node {u} exceeded 1000 attempts per slot; "
        "the graph is too dense for this negative count, use a smaller one"
    )


def mask_static_edges(net: TemporalNetwork, count: int, rng):
    """Remove ``count`` random static edges (all temporal occurrences) from a copy.

    Returns (train_network, positive_pairs, negative_pairs): positives are the
    masked pairs, negatives an equal-sized uniform sample of non-edges. Node
    ids and timestamps are preserved; the training network is rebuilt from the
    surviving edges without re-normalizing time, and keeps the raw time range.
    """
    pairs = sorted(net.static_pairs)
    if count > len(pairs):
        raise ValueError(f"cannot mask {count} edges; only {len(pairs)} static edges exist")
    t_range = (net.tmin, net.tmax)
    if count == 0:
        train = _build_network(
            net.labels, net.label_to_id, net.sources, net.targets, net.times,
            net.directed, normalize=False, t_range=t_range,
        )
        return train, [], []
    chosen = rng.choice(len(pairs), size=count, replace=False)
    positives = [pairs[i] for i in sorted(chosen)]
    removed = set(positives)

    def canon(s, t):
        s, t = int(s), int(t)
        return (s, t) if (net.directed or s < t) else (t, s)

    keep = np.fromiter(
        (canon(s, t) not in removed for s, t in zip(net.sources, net.targets)),
        dtype=bool,
        count=net.n_edges,
    )
    train = _build_network(
        net.labels, net.label_to_id, net.sources[keep], net.targets[keep],
        net.times[keep], net.directed, normalize=False, t_range=t_range,
    )

    n = net.node_count
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
        pair = canon(a, b)
        if pair in net.static_pairs or pair in seen:
            continue
        seen.add(pair)
        negatives.append(pair)
    return train, positives, negatives


def write_pairs(pairs, path) -> None:
    """Two-column text file, one node pair per line."""
    with open(path, "w") as fh:
        for a, b in pairs:
            fh.write(f"{a} {b}\n")
