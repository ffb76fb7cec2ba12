from dataclasses import replace

import numpy as np

import pytest
from scipy.cluster.vq import kmeans2
from scipy.stats import rankdata

from hawkmix import (
    ModelParams,
    build_context,
    candidate_scores,
    forward,
    history,
    infer_aspect_labels,
    network_from_edges,
    precision_recall_at_k,
    probe_report,
    recommend,
    recovery_score,
)
from hawkmix import eval as eval_mod
from hawkmix.eval import check_probe_pairs
from hawkmix.temporal_graph import Histories

from oracle import ref_all
from util import random_params, read_only_copy, spy_forward, writable_copy


def maybe_read_only(params, read_only):
    return read_only_copy(params) if read_only else params


READ_ONLY = pytest.mark.parametrize("read_only", [False, True], ids=["writable", "read-only"])


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


@READ_ONLY
def test_recommend_sorted_by_score_matching_the_oracle(read_only):
    net = small_net()
    p = maybe_read_only(random_params(np.random.default_rng(1)), read_only)
    ranked = recommend(p, net, 0, 0.5, k=10)
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)
    h = history(net, 0, 0.5, p.hyper.history_len)
    for v, s in ranked:
        assert abs(s - ref_all(p, 0, v, 0.5, h, None)[4]) <= 1e-12
    assert recommend(p, net, 0, 0.5, k=2) == ranked[:2]


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_recommend_rejects_a_nonfinite_time(t):
    p = random_params(np.random.default_rng(1))
    with pytest.raises(ValueError, match="is not finite"):
        recommend(p, small_net(), 0, t, 3)


@pytest.mark.parametrize("t", [True, np.True_, "0.5", None, 0.5 + 0j, np.array([0.5])])
def test_recommend_rejects_a_time_that_is_not_a_real_number(t):
    p = random_params(np.random.default_rng(1))
    with pytest.raises(ValueError, match="query time must be a real number"):
        recommend(p, small_net(), 0, t, 3)


@pytest.mark.parametrize("t", [1, np.float64(0.5), np.float32(0.5), np.int64(1)])
def test_recommend_takes_python_and_numpy_real_times(t):
    p = random_params(np.random.default_rng(1))
    assert recommend(p, small_net(), 0, t, 3) == recommend(p, small_net(), 0, float(t), 3)


@pytest.mark.parametrize("k", [0, -1, 2.5, "3", True, None])
def test_recommend_rejects_a_k_that_is_not_a_positive_integer(k):
    p = random_params(np.random.default_rng(1))
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        recommend(p, small_net(), 0, 0.5, k)


def test_recommend_takes_a_numpy_integer_k():
    p = random_params(np.random.default_rng(1))
    assert recommend(p, small_net(), 0, 0.5, np.int64(2)) == recommend(p, small_net(), 0, 0.5, 2)


@pytest.mark.parametrize("u", [1.7, 2.0, True, "3", None])
def test_recommend_rejects_a_u_that_is_not_an_integer(u):
    """A float or a string is not a node id, and True is not node 1."""
    p = random_params(np.random.default_rng(1))
    with pytest.raises(ValueError, match="u must be an integer node id"):
        recommend(p, small_net(), u, 0.5, 3)


def test_recommend_takes_a_numpy_integer_u():
    p = random_params(np.random.default_rng(1))
    assert recommend(p, small_net(), np.int64(1), 0.5, 3) == recommend(p, small_net(), 1, 0.5, 3)


def undirected_net():
    """Undirected, raw times in [0, 1]: node 0's partners before t=0.5 are 1
    (listed as the target) and 2 (listed as the source); 5 and 6 link with
    it exactly at t=0.5; 3 links with it later."""
    edges = [
        (0, 1, 0.1), (2, 0, 0.2), (4, 3, 0.25), (7, 8, 0.3), (1, 4, 0.4),
        (0, 5, 0.5), (6, 0, 0.5), (5, 6, 0.7), (3, 0, 0.8),
    ]
    s, t, tt = zip(*edges)
    return network_from_edges(list(range(9)), s, t, tt, directed=False, normalize=False)


def test_recommend_on_an_undirected_net_excludes_earlier_partners_of_either_role():
    net = undirected_net()
    p = random_params(np.random.default_rng(6))
    assert {v for v, _ in recommend(p, net, 0, 0.5, k=10)} == {3, 4, 5, 6, 7, 8}
    assert {v for v, _ in recommend(p, net, 4, 0.5, k=10)} == {0, 2, 5, 6, 7, 8}
    # a partner whose only edge with u falls exactly at t is still eligible
    assert {v for v, _ in recommend(p, net, 5, 0.5, k=10)} == set(range(9)) - {5}
    assert {v for v, _ in recommend(p, net, 5, 0.50000001, k=10)} == set(range(9)) - {0, 5}


@READ_ONLY
def test_recommend_on_an_undirected_net_matches_the_oracle(read_only):
    net = undirected_net()
    p = maybe_read_only(random_params(np.random.default_rng(7)), read_only)
    for u, t in [(0, 0.5), (1, 0.45), (6, 0.75)]:
        h = history(net, u, t, p.hyper.history_len)
        ranked = recommend(p, net, u, t, k=10)
        assert ranked
        for v, s in ranked:
            assert abs(s - ref_all(p, u, v, t, h, None)[4]) <= 1e-12


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


def test_recommend_on_a_read_only_model_is_bitwise_that_of_its_writable_copy():
    """A read-only model keeps its node terms after the first query; its lists
    and scores are bitwise those of a writable copy, which computes them
    afresh, on the first query and on later ones, twins included."""
    net = small_net()
    p = random_params(np.random.default_rng(2))
    for v in (6, 7, 8):  # twins of node 5, as in test_recommend_breaks_ties_by_id
        p.identity[v] = p.identity[5]
        p.aspect[v] = p.aspect[5]
    frozen = read_only_copy(p)
    for u, t in [(0, 0.5), (5, 0.95), (6, 0.5), (0, 0.5), (3, 1.0)]:
        got, want = recommend(frozen, net, u, t, k=10), recommend(p, net, u, t, k=10)
        assert [(v, s.hex()) for v, s in got] == [(v, s.hex()) for v, s in want]
        assert all(s <= 0.0 for _, s in got)


def test_a_writable_copy_of_a_trained_model_scores_its_edits(trained_planted):
    """Editing a writable copy of a trained (read-only) model moves the copy's
    scores, and leaves those of the trained model as they were."""
    p, net = trained_planted["params"], trained_planted["train_net"]
    u, t = int(net.sources[-1]), float(net.times[-1])
    before = recommend(p, net, u, t, k=5)
    q = writable_copy(p)
    assert recommend(q, net, u, t, k=5) == before
    top, low = before[0][0], before[-1][0]
    q.table[low] = q.table[top]  # low becomes a twin of the top candidate
    after = dict(recommend(q, net, u, t, k=5))
    assert after[low] == pytest.approx(after[top], rel=1e-12)
    assert after[low] > dict(before)[low]
    assert recommend(p, net, u, t, k=5) == before


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


@pytest.mark.parametrize("n_nodes", [4, 12], ids=["smaller", "larger"])
@pytest.mark.parametrize(
    "call",
    [lambda p, net: recommend(p, net, 0, 0.5, k=3), infer_aspect_labels],
    ids=["recommend", "infer_aspect_labels"],
)
def test_a_model_of_another_node_count_is_an_error(call, n_nodes):
    """A model must have one row per node of the net it scores: a smaller
    one would index past its table, a larger one would score silently."""
    net = small_net()
    p = random_params(np.random.default_rng(0), n_nodes=n_nodes)
    with pytest.raises(ValueError, match=f"the model has {n_nodes} nodes but the edge list has 9"):
        call(p, net)


def mixed_net():
    """Directed, 10 nodes, 40 random edges from sources 0-7, no self-loops:
    at history length 2 the read-out's windows mix lengths 0, 1 and 2, and
    8 and 9, never sources, get one empty-window query each."""
    rng = np.random.default_rng(8)
    s = rng.integers(0, 8, 40)
    t = (s + rng.integers(1, 10, 40)) % 10
    return network_from_edges(list(range(10)), s, t, rng.uniform(0, 1, 40), directed=True)


def with_batch_size(params, batch_size):
    return ModelParams(
        replace(params.hyper, batch_size=batch_size), params.table, params.attn_w, params.attn_a
    )


def oracle_labels(params, net):
    """Argmax of the summed oracle pi_u over each node's events, or of one
    empty-history query at t=1 for a node without events."""
    limit = params.hyper.history_len
    labels = []
    for u in range(net.node_count):
        acc = np.zeros(params.hyper.n_aspects)
        for t in net.events(u)[1].tolist() or [1.0]:
            acc += ref_all(params, u, u, t, history(net, u, t, limit), None)[2][u]
        labels.append(int(np.argmax(acc)))
    return labels


@pytest.mark.parametrize("batch_size", [1, 3, 200])
def test_read_out_calls_hold_one_window_length_and_a_padded_batch_of_slots(
    monkeypatch, batch_size
):
    """Each read-out call holds windows of a single length, so none is
    padded, and at most batch_size * (history_len + 1) node slots; together
    the calls hold every query once, and each row's aspect weights are
    bitwise those of its query alone, with no candidate and with one. Below
    200, a length spans several calls."""
    net = mixed_net()
    p = with_batch_size(random_params(np.random.default_rng(5), n_nodes=10, history_len=2),
                        batch_size)
    calls = spy_forward(monkeypatch, eval_mod)
    infer_aspect_labels(p, net)
    lens = []
    for u, hist, cand, result in calls:
        b, length = hist.mask.shape
        assert np.all(hist.mask == 1.0) and cand.shape == (b, 0)
        assert b * (length + 1) <= batch_size * 3
        lens.append(length)
        for i in range(b):
            row = Histories(hist.ids[i : i + 1], hist.dt[i : i + 1], hist.mask[i : i + 1])
            alone = forward(p, u[i : i + 1], row, cand[i : i + 1]).pi_u
            assert np.array_equal(result.pi_u[i : i + 1], alone)
            one = forward(p, u[i : i + 1], row, u[i : i + 1, None]).pi_u
            assert np.array_equal(result.pi_u[i : i + 1], one)
    assert sum(len(c[0]) for c in calls) == np.maximum(np.diff(net.indptr), 1).sum()
    assert sorted(set(lens)) == [0, 1, 2]
    assert (len(lens) > len(set(lens))) == (batch_size < 200)


def test_read_out_matches_the_oracle_at_every_batch_size():
    """Labels at batch sizes 1, 3 and 200 equal each other and the oracle's,
    with one window length split across calls at the smaller sizes."""
    net = mixed_net()
    rng = np.random.default_rng(6)
    for _ in range(3):
        p = random_params(rng, n_nodes=10, history_len=2)
        labels = [infer_aspect_labels(with_batch_size(p, bs), net).tolist() for bs in (1, 3, 200)]
        assert labels == [oracle_labels(p, net)] * 3


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


def test_probe_report_takes_any_integer_aspect_index_but_a_bool():
    """``which`` is an aspect index if it is an integer of any kind, as
    ``recommend``'s ``k`` is; a bool is not one (True would probe aspect 1)."""
    rng = np.random.default_rng(4)
    p = random_params(rng, n_nodes=40)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 40, (80, 2)) if a != b]
    pos, neg = pairs[:30], pairs[30:60]
    report = probe_report(p, pos, neg, seed=9, which=1).to_json()
    for which in (np.int64(1), np.int32(1), np.uint8(1)):
        assert probe_report(p, pos, neg, seed=9, which=which).to_json() == report
    with pytest.raises(ValueError, match=r"aspect index 3 out of range \[0, 3\)"):
        probe_report(p, pos, neg, seed=9, which=np.int64(3))
    for which in (True, False, np.bool_(True)):
        with pytest.raises(ValueError, match="unknown embedding slice"):
            probe_report(p, pos, neg, seed=9, which=which)


@pytest.mark.parametrize("n_pos, n_neg", [(0, 0), (0, 3), (3, 0)])
def test_probe_report_rejects_an_empty_pair_list(n_pos, n_neg):
    p = random_params(np.random.default_rng(4), n_nodes=40)
    pairs = [(a, a + 1) for a in range(6)]
    with pytest.raises(ValueError, match=f"got {n_pos} positives and {n_neg} negatives"):
        probe_report(p, pairs[:n_pos], pairs[3 : 3 + n_neg], seed=9)


def test_probe_report_rejects_a_split_with_one_label_in_a_half():
    """check_probe_pairs replays the probe's seeded split: a report either
    comes out or the split is rejected by name, never a failure in the fit
    or the AUC; one pair of each label always leaves the fit half with one."""
    p = random_params(np.random.default_rng(4), n_nodes=40)
    pairs = [(a, a + 1) for a in range(8)]
    scored = 0
    for n_pos in range(1, 5):
        for n_neg in range(1, 5):
            for seed in range(8):
                try:
                    probe_report(p, pairs[:n_pos], pairs[4 : 4 + n_neg], seed=seed)
                    scored += 1
                except ValueError as err:
                    assert "seeded split" in str(err)
    assert 0 < scored < 4 * 4 * 8
    with pytest.raises(ValueError, match="leaves its fit half with one label"):
        check_probe_pairs([(0, 1)], [(2, 3)], seed=0)


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


def test_trained_planted_identity_embeddings_recover_the_groups(trained_planted):
    """Community gate: 2-means on the trained identity embeddings recovers the
    two planted groups; it reads 1.000 (a random labeling ~0.5); fail below 0.95."""
    d = trained_planted
    ident = d["params"].identity
    _, labels = kmeans2(ident, 2, seed=0, minit="++")
    assert recovery_score(labels, d["truth"]) >= 0.95


def test_recommend_top_k_matches_a_full_sort_with_ties_at_the_cut():
    """Top-k picks exactly the first k of a full (-score, id) sort, for every
    k: runs of tied candidates straddle the k-th place, and k can exceed the
    candidate count."""
    n = 30
    edges = [(0, 1, 0.1), (2, 0, 0.2), (3, 4, 0.25), (0, 5, 0.3), (6, 7, 0.4)]
    s, t, tt = zip(*edges)
    net = network_from_edges(list(range(n)), s, t, tt, directed=True, normalize=False)
    p = random_params(np.random.default_rng(5), n_nodes=n)
    p.table[11:16] = p.table[10]  # six candidates tied
    p.table[21:23] = p.table[20]  # three more
    ctx = build_context(p, 0, 0, 0.5, history(net, 0, 0.5, p.hyper.history_len))
    cands = [v for v in range(n) if v not in (0, 1, 2, 5)]
    scores = forward(p, [0], ctx.hist, None).lam[0][cands].tolist()
    full = sorted(zip(cands, scores), key=lambda vs: (-vs[1], vs[0]))
    tied = [i for i, (v, _) in enumerate(full) if 10 <= v <= 15]
    assert tied == list(range(tied[0], tied[0] + 6))
    for k in range(1, len(cands) + 4):
        assert recommend(p, net, 0, 0.5, k) == full[:k]


RANK_INPUTS = [
    [3.0],
    [2.0, 1.0, 2.0, 3.0, 1.0, 2.0],
    [0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300],
    [np.inf, -np.inf, np.inf, 0.0, -np.inf, np.inf, 5.0],
    [7.5] * 9,
]


@pytest.mark.parametrize("values", RANK_INPUTS + [
    np.random.default_rng(3).integers(-3, 4, 500).astype(float),
    np.random.default_rng(4).normal(size=300),
], ids=range(len(RANK_INPUTS) + 2))
def test_average_ranks_are_scipys_bitwise(values):
    values = np.asarray(values, dtype=np.float64)
    expect = rankdata(values, method="average")
    assert eval_mod._average_ranks(values).tobytes() == expect.tobytes()


def test_auc_roc_is_bitwise_that_of_scipys_ranks():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, 400)
    scores = rng.integers(0, 20, 400) / 7.0  # many ties
    n_pos = int(y.sum())
    ranks = rankdata(scores, method="average")
    expect = float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * (400 - n_pos)))
    assert eval_mod.auc_roc(y, scores) == expect


def test_auc_roc_is_nan_when_a_score_is_nan():
    assert np.isnan(eval_mod.auc_roc([0, 1, 0, 1], [0.1, np.nan, 0.3, 0.9]))
    assert np.isnan(eval_mod._average_ranks(np.array([1.0, np.nan, 1.0]))).all()
