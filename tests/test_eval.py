import numpy as np

import pytest

from hawkmix import (
    build_context,
    candidate_scores,
    history,
    infer_aspect_labels,
    network_from_edges,
    precision_recall_at_k,
    probe_report,
    recommend,
)

from oracle import ref_all
from util import random_params


def small_net():
    """Directed, raw times in [0, 1]: node 0's partners before t=0.5 are 1
    (outgoing) and 2 (incoming); 3 only links to it later; 7 and 8 never act
    as sources."""
    edges = [
        (0, 1, 0.1), (2, 0, 0.2), (4, 5, 0.25), (0, 4, 0.3), (5, 6, 0.35),
        (6, 7, 0.4), (1, 8, 0.45), (0, 3, 0.8), (3, 5, 0.9),
    ]
    s, t, tt = zip(*edges)
    return network_from_edges(list(range(9)), s, t, tt, directed=True, normalize=False)


def test_recommend_excludes_self_and_earlier_partners():
    net = small_net()
    p = random_params(np.random.default_rng(0))
    ranked = recommend(p, net, 0, 0.5, k=10)
    assert {v for v, _ in ranked} == {3, 5, 6, 7, 8}
    assert {v for v, _ in recommend(p, net, 0, 0.05, k=10)} == set(range(1, 9))


def test_recommend_sorted_by_score_matching_the_oracle():
    net = small_net()
    p = random_params(np.random.default_rng(1))
    ranked = recommend(p, net, 0, 0.5, k=10)
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)
    h = history(net, 0, 0.5, p.hyper.history_len)
    for v, s in ranked:
        assert abs(s - ref_all(p, 0, v, 0.5, h, None)[4]) <= 1e-12
    assert recommend(p, net, 0, 0.5, k=2) == ranked[:2]


def test_recommend_breaks_ties_by_id():
    net = small_net()
    p = random_params(np.random.default_rng(2))
    for v in (6, 7, 8):  # identical candidates score identically
        p.identity[v] = p.identity[5]
        p.aspect[v] = p.aspect[5]
    ranked = recommend(p, net, 0, 0.5, k=10)
    tied = [v for v, s in ranked if s == dict(ranked)[5]]
    assert tied == [5, 6, 7, 8]
    ctx = build_context(p, 0, 0, 0.5, history(net, 0, 0.5, p.hyper.history_len))
    assert len(set(candidate_scores(p, ctx, [5, 6, 7, 8]).tolist())) == 1


def test_infer_aspect_labels_matches_oracle():
    """Argmax of the summed oracle pi_u over each node's events (one t=1 query
    with an empty history for a node without events), across several chunks."""
    net = small_net()
    rng = np.random.default_rng(3)
    for _ in range(3):
        p = random_params(rng, history_len=2)
        expect = []
        for u in range(net.node_count):
            times = net.events(u)[1].tolist() or [1.0]
            acc = np.zeros(p.hyper.n_aspects)
            for t in times:
                _, _, pis, _, _ = ref_all(p, u, u, t, history(net, u, t, 2), None)
                acc += pis[u]
            expect.append(int(np.argmax(acc)))
        assert infer_aspect_labels(p, net).tolist() == expect


def test_probe_report_does_not_depend_on_pair_order():
    rng = np.random.default_rng(4)
    p = random_params(rng, n_nodes=40)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 40, (80, 2)) if a != b]
    pos, neg = pairs[:30], pairs[30:60]
    report = probe_report(p, pos, neg, seed=9)
    shuffled = probe_report(
        p, [pos[i] for i in rng.permutation(30)], [neg[i] for i in rng.permutation(30)], seed=9
    )
    assert shuffled.to_json() == report.to_json()


def test_precision_recall_at_k_edge_cases():
    ranked = [(3, 0.9), (1, 0.5), (4, 0.1)]
    # k beyond the list: precision still divides by k
    assert precision_recall_at_k(ranked, {3, 4, 7}, 5) == (2 / 5, 2 / 3)
    # bare ids rank the same as (node, score) tuples
    assert precision_recall_at_k([3, 1, 4], {3, 4, 7}, 2) == precision_recall_at_k(
        ranked, {3, 4, 7}, 2
    ) == (1 / 2, 1 / 3)
    with pytest.raises(ValueError, match="k must be"):
        precision_recall_at_k(ranked, {3}, 0)
    with pytest.raises(ValueError, match="empty"):
        precision_recall_at_k(ranked, set(), 3)


def test_trained_planted_link_auc(trained_planted):
    """End-to-end quality gate: the probe on the trained planted net reads
    AUC 0.787 at probe seed 0 (an untrained model ~0.53); fail below 0.75."""
    d = trained_planted
    assert d["losses"][-1] < d["losses"][0]
    report = probe_report(d["params"], d["positives"], d["negatives"], seed=0)
    assert report.metrics["auc_roc"] >= 0.75
