"""Temporal edge lists, neighborhood-formation histories, and evaluation splits.

A network is a chronologically sorted list of timestamped directed
interactions plus, per node, the time-ordered sequence of neighbors it
connected to, stored as flat CSR arrays so that batches of histories,
negative draws and adjacency tests are array operations. Timestamps are
min-max normalized to [0, 1] at load so decay parameters are comparable
across datasets; the network keeps the raw range so that times can be
converted back to the input's units.

Every network, loaded, built from edge arrays or masked, comes from one
constructor, ``_build_network``, so all share one layout and its orderings.

The network owns the history windows: a query (u, t) sees u's
at-most-``limit`` most recent events strictly before t, and every caller
finds them with ``TemporalNetwork.windows``, ``histories`` or
``history_chunks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, filterfalse, islice
from operator import eq, itemgetter, methodcaller
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
class Histories:
    """Padded history windows of B queries; L is the longest window."""

    ids: np.ndarray   # (B, L) neighbor ids, 0 in padded slots
    dt: np.ndarray    # (B, L) query time minus event time, 0 in padded slots
    mask: np.ndarray  # (B, L) 1.0 for real events


def window_histories(t, nbr, ev_time, start, stop) -> Histories:
    """Pad the windows ``start[i]:stop[i]`` of flat event arrays into (B, L).

    ``nbr`` and ``ev_time`` hold the events' neighbor ids and times; ``t``
    holds the B query times. L is the longest window in the batch, not the
    configured history length, so a batch of short histories stays small.
    """
    t = np.asarray(t, dtype=np.float64)
    lens = np.asarray(stop) - np.asarray(start)
    lmax = int(lens.max(initial=0))
    real = np.arange(lmax) < lens[:, None]
    pos = np.where(real, np.asarray(start)[:, None] + np.arange(lmax), 0)
    ids = np.where(real, nbr[pos], 0)
    dt = np.where(real, t[:, None] - ev_time[pos], 0.0)
    return Histories(ids, dt, real.astype(np.float64))


@dataclass
class TemporalNetwork:
    """Immutable-after-construction view of a temporal interaction network.

    The edges are kept chronologically in ``sources``/``targets``/``times``.
    Each node's events are stored in CSR form (compressed sparse rows): node
    u's events are positions ``indptr[u]:indptr[u + 1]`` of the flat arrays
    ``ev_nbr`` (the other endpoint) and ``ev_time``, in edge order, so times
    ascend within a node and equal times keep the input order. A directed edge
    is an event of its source; an undirected edge is an event of both
    endpoints. ``ev_key`` holds each event's (owner, time) as ``owner + 1j *
    time``: NumPy orders complex numbers by real, then imaginary part, so
    the keys ascend in CSR order.

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
    ev_key: np.ndarray = field(repr=False)     # per event: owner + 1j * time, ascending
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

    def windows(self, u, t, limit: int):
        """CSR bounds (start, stop) of the history windows of queries
        (u[i], t[i]): u's at-most-``limit`` most recent events strictly
        before t. Times must be finite."""
        u = np.asarray(u, dtype=np.int64)
        stop = np.searchsorted(self.ev_key, u + 1j * np.asarray(t, dtype=np.float64))
        return np.maximum(self.indptr[u], stop - limit), stop

    def histories(self, u, t, limit: int) -> Histories:
        """The padded history windows of queries (u[i], t[i]); see ``windows``."""
        start, stop = self.windows(u, t, limit)
        return window_histories(t, self.ev_nbr, self.ev_time, start, stop)

    def history_chunks(self, u, t, limit: int, slots: int):
        """Yield (idx, Histories) pairs that split the queries (u[i], t[i])
        into chunks of a single window length each, so no history is padded;
        ``idx`` holds a chunk's query positions, and its histories are the
        windows of ``windows``.

        A chunk of length-L windows holds at most ``slots // (L + 1)``
        queries (at least one), so it spans at most ``slots`` node slots:
        each query's source and its L events. Chunks come by ascending
        length, and each keeps its queries in their given order.
        """
        t = np.asarray(t, dtype=np.float64)
        start, stop = self.windows(u, t, limit)
        lens = stop - start
        order = np.argsort(lens, kind="stable")
        lo = 0
        for length, hi in enumerate(np.cumsum(np.bincount(lens)).tolist()):
            size = max(1, slots // (length + 1))
            for a in range(lo, hi, size):
                idx = order[a : min(a + size, hi)]
                yield idx, window_histories(
                    t[idx], self.ev_nbr, self.ev_time, start[idx], stop[idx]
                )
            lo = hi

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


def _contains_by_first(sorted_keys: np.ndarray, keys: np.ndarray, n: int) -> np.ndarray:
    """``_contains(sorted_keys, keys)`` for pair keys ``a * n + b``, searching
    only the keys whose first node starts one of ``sorted_keys``: no other
    can match, and the search of the few left costs far less than that of
    every key in random order."""
    marked = np.zeros(n, dtype=bool)
    marked[sorted_keys // n] = True
    maybe = np.flatnonzero(marked[keys // n])
    found = np.zeros(len(keys), dtype=bool)
    found[maybe] = _contains(sorted_keys, keys[maybe])
    return found


def _unique_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending: ``np.unique`` by a sort."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _build_network(labels, label_to_id, sources, targets, times, directed, t_range=None):
    """The network of parallel edge arrays in any time order.

    ``t_range`` is the raw (tmin, tmax) of already normalized ``times``;
    with None it is measured from ``times``, which are then normalized. The
    edges are sorted by time with a stable sort, so equal times keep input
    order. The events are sorted by owner with a stable sort too, in the
    smallest type that holds the node ids (which NumPy radix-sorts; a stable
    sort gives the same order in any type). An undirected edge's two events
    are interleaved first (source side, then target side), so within each
    owner they stay in edge order. The static keys are deduplicated by a
    sort: NumPy 2.4's ``np.unique`` hashes integer keys, which is many times
    slower on key arrays like these.
    """
    n = len(labels)
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    if t_range is None and len(times):
        tmin, tmax = float(times.min()), float(times.max())
        times = (times - tmin) / (tmax - tmin) if tmax > tmin else np.zeros_like(times)
    else:
        tmin, tmax = t_range or (0.0, 1.0)
    order = np.argsort(times, kind="stable")
    sources, targets, times = sources[order], targets[order], times[order]

    if directed:
        owner, other = sources, targets
    else:
        owner = np.column_stack([sources, targets]).ravel()
        other = np.column_stack([targets, sources]).ravel()
    perm = np.argsort(owner.astype(np.min_scalar_type(n - 1)), kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    ev_time = times[perm if directed else perm >> 1]

    adj_keys = _unique_sorted(np.concatenate([sources * n + targets, targets * n + sources]))
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
        ev_time=ev_time,
        ev_key=owner[perm] + 1j * ev_time,
        adj_keys=adj_keys,
        pair_keys=_unique_sorted(_pair_keys(sources, targets, n, directed)),
        degrees=np.bincount(adj_keys // max(n, 1), minlength=n),
        tmin=tmin,
        tmax=tmax,
    )


def network_from_edges(labels, sources, targets, times, directed, normalize=True):
    """Build a network from parallel edge arrays; node ids must be dense ints."""
    label_to_id = {lab: i for i, lab in enumerate(labels)}
    return _build_network(labels, label_to_id, sources, targets, times, directed,
                          t_range=None if normalize else (0.0, 1.0))


# Characters of text read per block of lines. The parse holds one block's
# lines and fields at a time, whatever the file's size. Blocks this small
# parse as fast as larger ones, and their short-lived objects fit in memory
# the process reuses, where larger blocks raised its peak RSS.
_BLOCK_CHARS = 1 << 14


def load_edge_list(path, directed: bool) -> TemporalNetwork:
    """Parse a `src dst time` text file into a TemporalNetwork.

    Node tokens are remapped to dense integers in order of first appearance;
    self-loops are dropped; duplicate temporal edges are kept as distinct
    events. Lines that are blank or whose first token starts with '#' are
    ignored. The first bad line in file order raises EdgeListParseError:
    a field count other than three, a timestamp that ``float`` rejects, or
    a non-finite one (a self-loop's timestamp is checked too).

    The file is read in blocks of about ``_BLOCK_CHARS`` characters, split
    into lines as iterating over the file splits them, and each block is
    parsed with array operations, so memory beyond the edge arrays is
    bounded by the block, not by the file.
    """
    labels = []
    label_to_id = {}
    parts = []
    lineno = 1
    with open(path) as fh:
        while block := fh.readlines(_BLOCK_CHARS):
            parts.append(_parse_block(path, block, lineno, labels, label_to_id))
            lineno += len(block)
    if not any(len(times) for _, _, times in parts):
        raise EdgeListParseError(f"{path}: no usable edges (empty file or self-loops only)")
    sources, targets, times = map(np.concatenate, zip(*parts))
    del parts  # the blocks' arrays, copied into the three above
    return _build_network(labels, label_to_id, sources, targets, times, directed)


def _parse_block(path, lines, first_lineno, labels, label_to_id):
    """(source ids, target ids, times) of the edges among ``lines``, the
    file's lines from number ``first_lineno`` on. Labels seen for the first
    time are appended to ``labels`` and ``label_to_id``, in the order they
    appear."""
    rows = list(map(str.split, lines))
    n_fields = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    keep = n_fields > 0  # not blank, and below: not a comment
    if "#" in "".join(lines):  # the per-row comment test only where it can match
        heads = map(itemgetter(0), compress(rows, keep))
        keep[keep] = ~np.fromiter(map(methodcaller("startswith", "#"), heads), dtype=bool,
                                  count=int(keep.sum()))
    lineno = np.flatnonzero(keep) + first_lineno
    n_fields = n_fields[keep]
    if not keep.all():
        rows = list(compress(rows, keep))

    # The first bad line in file order wins: a bad field count ends the
    # rows whose timestamps count, a non-number ends the finite check.
    error = None
    good = len(rows)
    if (n_fields != 3).any():
        good = int(np.argmax(n_fields != 3))
        error = (f"expected 'source target timestamp', got {n_fields[good]} fields", good)
    ends = list(chain.from_iterable(islice(rows, good)))
    stamps = ends[2::3]
    del ends[2::3]  # source, target, source, target, ...
    try:
        times = np.fromiter(map(float, stamps), dtype=np.float64, count=good)
    except ValueError:
        good = _first_non_number(stamps)
        error = (f"timestamp {stamps[good]!r} is not a number", good)
        times = np.fromiter(map(float, stamps[:good]), dtype=np.float64, count=good)
    finite = np.isfinite(times)
    if not finite.all():
        i = int(np.argmin(finite))
        error = (f"timestamp {stamps[i]!r} is not finite", i)
    if error is not None:
        message, i = error
        raise EdgeListParseError(f"{path}:{lineno[i]}: {message}")

    link = ~np.fromiter(map(eq, ends[0::2], ends[1::2]), dtype=bool, count=good)
    if not link.all():
        ends, times = list(compress(ends, np.repeat(link, 2))), times[link]
    fresh = dict.fromkeys(filterfalse(label_to_id.__contains__, ends))
    label_to_id.update(zip(fresh, range(len(labels), len(labels) + len(fresh))))
    labels.extend(fresh)
    ids = np.fromiter(map(label_to_id.__getitem__, ends), dtype=np.int64, count=len(ends))
    return ids[0::2], ids[1::2], times


def _first_non_number(tokens) -> int:
    """Index of the first token that ``float`` rejects."""
    for i, tok in enumerate(tokens):
        try:
            float(tok)
        except ValueError:
            return i


def check_query(net: TemporalNetwork, u: int, t: float, limit: int) -> None:
    """Raise ValueError unless ``limit`` >= 1, t is finite and u is a node of ``net``."""
    if limit < 1:
        raise ValueError("history length must be >= 1")
    if not np.isfinite(t):
        raise ValueError(f"query time {t} is not finite")
    if not 0 <= u < net.node_count:
        raise ValueError(f"node {u} out of range")


def history(net: TemporalNetwork, u: int, t: float, limit: int):
    """The at-most-``limit`` most recent events of u strictly before t, ascending."""
    check_query(net, u, t, limit)
    (start,), (stop,) = net.windows([u], [t], limit)
    nbrs, times = net.ev_nbr[start:stop], net.ev_time[start:stop]
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

    def nodes(self, uniforms) -> np.ndarray:
        """The nodes that uniform [0, 1) variates select, elementwise.

        The variates are looked up in ascending order, where ``searchsorted``
        starts each search at the previous result and reads ``cum`` in
        order; on a large ``cum`` that is about twice as fast as lookups in
        random order, sort included. The result is the same.
        """
        uniforms = np.asarray(uniforms)
        flat = uniforms.ravel()
        order = np.argsort(flat)
        out = np.empty(flat.shape, dtype=np.intp)
        out[order] = np.searchsorted(self.cum, flat[order], side="right")
        return out.reshape(uniforms.shape)

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
    ids and timestamps are preserved: the training network is the one
    ``_build_network`` makes of the surviving edges on the parent's raw time
    range, so time is not re-normalized and every array has the layout of a
    loaded network.

    A non-edge attempt draws (a, b) uniformly and is rejected when a == b,
    when the pair is a static edge or when it is already a negative; after
    ``1000 * count + 10000`` attempts the graph counts as too dense. The
    attempts run in rounds of array draws, each no larger than the number
    of negatives still missing: every attempt of a round is one the
    one-at-a-time loop would make too, and numpy's array ``integers`` takes
    the same values from the generator as its scalar calls, so the result
    and the generator's state afterwards are those of that loop.
    """
    n_pairs = net.static_edge_count
    if count < 0:
        raise ValueError(f"cannot mask {count} edges; the count must be >= 0")
    if count > n_pairs:
        raise ValueError(f"cannot mask {count} edges; only {n_pairs} static edges exist")
    n = net.node_count
    gone = net.pair_keys[np.sort(rng.choice(n_pairs, size=count, replace=False))]
    a, b = np.divmod(gone, n)
    positives = list(zip(a.tolist(), b.tolist()))
    keep = ~_contains_by_first(gone, _pair_keys(net.sources, net.targets, n, net.directed), n)
    train = _build_network(net.labels, net.label_to_id, net.sources[keep], net.targets[keep],
                           net.times[keep], net.directed, t_range=(net.tmin, net.tmax))

    found = np.empty(0, dtype=np.int64)  # keys of the negatives, in draw order
    budget = 1000 * count + 10000        # (a, b) draws before giving up
    while len(found) < count:
        if budget <= 0:
            raise RuntimeError("could not find enough non-edges; graph too dense")
        size = min(count - len(found), budget)
        budget -= size
        a, b = rng.integers(0, n, size=(size, 2)).T
        if not net.directed:
            a, b = np.minimum(a, b), np.maximum(a, b)
        keys = (a * n + b)[a != b]
        keys = keys[~_contains(net.pair_keys, keys) & ~_contains(np.sort(found), keys)]
        _, first = np.unique(keys, return_index=True)
        found = np.concatenate([found, keys[np.sort(first)]])
    a, b = np.divmod(found, n)
    return train, positives, list(zip(a.tolist(), b.tolist()))


def write_pairs(pairs, path) -> None:
    """Two-column text file, one node pair per line."""
    with open(path, "w") as fh:
        for a, b in pairs:
            fh.write(f"{a} {b}\n")
