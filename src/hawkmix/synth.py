"""Planted multi-aspect temporal networks with known ground truth.

Each node belongs to one of K groups. Its outgoing event times follow a
self-exciting process (base rate plus exponentially decaying jumps) simulated
exactly by Ogata thinning; each event's target is drawn from the source's own
group, or outside it with a small crossover probability. Because the driving
aspect of every event is observable here, aspect recovery of a trained model
can be scored against truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .temporal_graph import TemporalNetwork, network_from_edges


@dataclass(frozen=True)
class PlantedSpec:
    n_aspects: int
    nodes_per_aspect: int
    mu0: float          # base rate, events per unit time
    alpha0: float       # excitation jump per event
    delta0: float       # kernel decay
    horizon: float
    cross_aspect_prob: float = 0.0

    def __post_init__(self):
        # NaN passes every comparison below, and an infinite horizon never
        # ends the thinning loop
        for name in ("mu0", "alpha0", "delta0", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if self.mu0 <= 0:
            raise ValueError("mu0 must be > 0")
        if self.delta0 <= 0:
            raise ValueError("delta0 must be > 0")
        if self.alpha0 < 0:
            raise ValueError("alpha0 must be >= 0")
        if self.alpha0 / self.delta0 >= 1.0:
            raise ValueError(
                "alpha0/delta0 must be < 1 (subcritical branching, finite cascades)"
            )
        if not 0.0 <= self.cross_aspect_prob < 0.5:
            raise ValueError("cross_aspect_prob must be in [0, 0.5)")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.n_aspects < 1 or self.nodes_per_aspect < 1:
            raise ValueError("need at least one aspect and one node per aspect")

    @property
    def node_count(self) -> int:
        return self.n_aspects * self.nodes_per_aspect


@dataclass
class PlantedTruth:
    """Ground truth: each node's group and the full raw event log."""

    labels: np.ndarray    # (n,) group of each node
    sources: np.ndarray
    targets: np.ndarray
    times: np.ndarray     # raw (unnormalized) event times
    aspects: np.ndarray   # driving aspect per event (= source's group)


def thinning_times(mu0, alpha0, delta0, horizon, rng) -> np.ndarray:
    """Event times of one self-exciting stream on [0, horizon] by thinning.

    The current intensity dominates the future one until the next event, so
    it serves as the proposal rate; the acceptance ratio is always <= 1.
    """
    t = 0.0
    excite = 0.0
    times = []
    while True:
        bound = mu0 + excite
        t_new = t + rng.exponential(1.0 / bound)
        excite *= np.exp(-delta0 * (t_new - t))
        t = t_new
        if t > horizon:
            break
        ratio = (mu0 + excite) / bound
        assert ratio <= 1.0 + 1e-12
        if rng.random() < ratio:
            times.append(t)
            excite += alpha0
    return np.array(times)


def generate(spec: PlantedSpec, rng) -> tuple[TemporalNetwork, PlantedTruth]:
    """Simulate every node's event stream and the group-driven target choices.

    Returns the network (timestamps normalized like the file loader would)
    plus the raw truth log. Per-source timestamps are strictly increasing;
    exact collisions are nudged by 1e-9 to keep strict-before history
    semantics.
    """
    n = spec.node_count
    labels = np.repeat(np.arange(spec.n_aspects), spec.nodes_per_aspect)
    group_members = [
        np.flatnonzero(labels == g) for g in range(spec.n_aspects)
    ]
    sources, targets, times = [], [], []
    for u in range(n):
        ts = thinning_times(spec.mu0, spec.alpha0, spec.delta0, spec.horizon, rng)
        own = group_members[labels[u]]
        own = own[own != u]
        outside = np.flatnonzero(labels != labels[u])
        prev = -np.inf
        for t in ts:
            if t <= prev:
                t = prev + 1e-9
                if t > spec.horizon:
                    continue
            prev = t
            go_outside = rng.random() < spec.cross_aspect_prob
            pool = outside if go_outside else own
            if len(pool) == 0:
                pool = own if len(own) else outside
                if len(pool) == 0:
                    continue  # single-node network, nothing to connect to
            v = int(pool[rng.integers(len(pool))])
            sources.append(u)
            targets.append(v)
            times.append(float(t))
    truth = PlantedTruth(
        labels=labels,
        sources=np.array(sources, dtype=np.int64),
        targets=np.array(targets, dtype=np.int64),
        times=np.array(times),
        aspects=labels[np.array(sources, dtype=np.int64)] if sources else np.empty(0, np.int64),
    )
    net = network_from_edges(
        list(range(n)), truth.sources, truth.targets, truth.times,
        directed=True, normalize=True,
    )
    return net, truth


def recovery_score(predicted, truth: PlantedTruth) -> float:
    """Best mean label agreement over all aspect relabelings, in [0, 1].

    The best one-to-one matching of predicted to planted labels is a linear
    assignment on their integer confusion matrix, solved exactly by the
    Hungarian method (``_best_matching``, O(K^3)), so any K works.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    if predicted.shape != truth.labels.shape:
        raise ValueError("predicted labels must cover the same node set as the truth")
    if len(predicted) == 0:
        raise ValueError("recovery_score needs at least one node")
    k = int(max(predicted.max(), truth.labels.max())) + 1
    confusion = np.bincount(predicted * k + truth.labels, minlength=k * k).reshape(k, k)
    cols = _best_matching(confusion)
    return float(confusion[np.arange(k), cols].sum() / len(predicted))


def _best_matching(weights: np.ndarray) -> np.ndarray:
    """Column matched to each row in a one-to-one matching of largest total
    weight, for a square integer matrix.

    The Hungarian method (Kuhn 1955) in its shortest-augmenting-path form:
    rows join one at a time, each by a Dijkstra-like search over the reduced
    costs ``cost - u[row] - v[col]`` with ``cost = -weights``, then the
    potentials move by the search's steps. Python integers keep them exact.
    """
    k = len(weights)
    cost = [[0] + [-w for w in row] for row in weights.tolist()]  # 1-based columns
    u = [0] * (k + 1)      # row potentials, 1-based
    v = [0] * (k + 1)      # column potentials; column 0 is the search's root
    owner = [0] * (k + 1)  # row matched to each column (0: none)
    for row in range(1, k + 1):
        owner[0] = row
        col = 0
        reach = [math.inf] * (k + 1)  # least reduced cost to each column so far
        via = [0] * (k + 1)       # column before each on the shortest path
        done = [False] * (k + 1)
        while owner[col]:
            done[col] = True
            r = owner[col]
            step, nxt = math.inf, 0
            for j in range(1, k + 1):
                if done[j]:
                    continue
                d = cost[r - 1][j] - u[r] - v[j]
                if d < reach[j]:
                    reach[j], via[j] = d, col
                if reach[j] < step:
                    step, nxt = reach[j], j
            for j in range(k + 1):
                if done[j]:
                    u[owner[j]] += step
                    v[j] -= step
                else:
                    reach[j] -= step
            col = nxt
        while col:  # augment along the path back to the root
            prev = via[col]
            owner[col] = owner[prev]
            col = prev
    cols = np.empty(k, dtype=np.int64)
    cols[np.array(owner[1:]) - 1] = np.arange(k)
    return cols
