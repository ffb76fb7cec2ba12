import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkmix import (
    NeighborEvent,
    Queries,
    TemporalEdge,
    build_context,
    candidate_scores,
    forward,
    mixed_intensity,
)
from hawkmix.params import softplus_inv
from hawkmix.temporal_graph import Histories

from oracle import ref_all, softmax as ref_softmax
from util import Sample, as_query, gumbel, node_noise, random_params, read_only_copy


def hist(*pairs):
    return [NeighborEvent(h, t) for h, t in pairs]


def query(history, u=0, v=1, t=0.9, noise=None):
    """The one-row query of u toward v at t, with the noise dict's draws."""
    return as_query(Sample(TemporalEdge(u, v, t), history, gumbel=noise))


def batch_of(u, t, histories):
    """One padded batch of a query per row (u[i] toward node 1 at t[i])."""
    return Queries.stack([query(h, u=src, t=when) for src, when, h in zip(u, t, histories)])


def run(p, history, targets=(1,), u=0, t=0.9, noise=None):
    """The forward pass for one query toward ``targets``."""
    q = as_query(Sample(TemporalEdge(u, targets[0], t), history, targets[1:], noise))
    return forward(p, [u], q.hist, q.cand, q.g)


def sq_dist(x, y):
    return float(np.sum((np.asarray(x) - np.asarray(y)) ** 2))


def test_similarity_values():
    """The identity similarity mu is the negative squared distance."""
    rng = np.random.default_rng(0)
    p = random_params(rng, m=2)
    p.identity[0] = [0, 0]
    p.identity[1] = [3, 4]
    p.identity[2] = [0, 0]
    assert run(p, [], targets=(1, 2)).mu[0].tolist() == [-25.0, 0.0]
    p3 = random_params(rng, m=3)
    p3.identity[1] = p3.identity[0]
    assert run(p3, []).mu[0].tolist() == [0.0]
    p1 = random_params(rng, m=1)
    p1.identity[0] = [1]
    p1.identity[1] = [-1]
    assert run(p1, []).mu[0].tolist() == [-4.0]


def test_kernel_values():
    p = random_params(np.random.default_rng(0))
    p.rho[0] = softplus_inv(1.0)
    kappa = run(p, hist((2, 0.9), (3, 0.9 - math.log(2)))).kappa[0]
    assert kappa[0] == 1.0
    assert kappa[1] == pytest.approx(0.5, abs=1e-15)
    p.rho[0] = softplus_inv(2.0)
    assert run(p, hist((2, 0.4))).kappa[0, 0] == pytest.approx(math.exp(-1), abs=1e-15)


def test_kernel_rejects_negative_dt():
    p = random_params(np.random.default_rng(0))
    with pytest.raises(ValueError, match="after the query time"):
        build_context(p, 0, 1, 0.5, hist((2, 0.6)))


@given(
    delta=st.floats(0.01, 10),
    dt1=st.floats(0, 5),
    dt2=st.floats(0, 5),
)
@settings(max_examples=50, deadline=None)
def test_kernel_monotone_decreasing(delta, dt1, dt2):
    lo, hi = sorted([dt1, dt2])
    p = random_params(np.random.default_rng(0))
    p.rho[0] = softplus_inv(delta)
    k_lo, k_hi = run(p, hist((2, 5.0 - lo), (3, 5.0 - hi)), t=5.0).kappa[0]
    assert k_hi <= k_lo
    assert 0 < k_hi <= 1


def test_attention_singleton():
    p = random_params(np.random.default_rng(0))
    assert run(p, hist((2, 0.1))).attn[0].tolist() == [1.0]


def test_attention_identical_history_uniform():
    p = random_params(np.random.default_rng(1))
    p.identity[3] = p.identity[4] = p.identity[5]
    w = run(p, hist((3, 0.1), (4, 0.2), (5, 0.3))).attn[0]
    assert np.allclose(w, 1 / 3, atol=1e-12)


def test_attention_matches_reference():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = random_params(rng)
        h = hist((2, 0.1), (5, 0.4), (7, 0.6))
        got = run(p, h).attn[0]
        ref, _, _, _, _ = ref_all(p, 0, 1, 0.9, h, None)
        assert np.allclose(got, ref, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-9)


def test_attention_disabled_gives_ones():
    p = random_params(np.random.default_rng(3), use_attention=False)
    assert run(p, hist((2, 0.1), (3, 0.2))).attn[0].tolist() == [1.0, 1.0]


def test_context_empty_history_is_own_embedding():
    p = random_params(np.random.default_rng(4))
    assert np.array_equal(run(p, [], t=0.5).ctx[0], p.aspect[0])


def test_context_zero_dt_averages():
    p = random_params(np.random.default_rng(5))
    got = run(p, hist((2, 0.5)), t=0.5).ctx[0, 1]
    assert np.allclose(got, 0.5 * (p.aspect[2, 1] + p.aspect[0, 1]), atol=1e-15)


def test_context_matches_reference():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = random_params(rng)
        h = hist((2, 0.05), (4, 0.3), (8, 0.7))
        _, ref_ctx, _, _, _ = ref_all(p, 0, 1, 0.9, h, None)
        assert np.allclose(run(p, h).ctx[0], ref_ctx, atol=1e-12)


def test_all_contexts_matches_context_op():
    """A padded batch stacks, per query, the K contexts a lone query gets."""
    rng = np.random.default_rng(23)
    p = random_params(rng)
    queries = [
        (0, hist((2, 0.2), (4, 0.7))),
        (1, []),
        (3, hist((5, 0.1), (2, 0.4), (6, 0.6), (7, 0.8))),
        (2, hist((4, 0.9))),
    ]
    srcs = [u for u, _ in queries]
    padded = batch_of(srcs, [0.9] * len(queries), [h for _, h in queries])
    stacked = forward(p, srcs, padded.hist, padded.cand).ctx
    assert stacked.shape == (len(queries), p.hyper.n_aspects, p.aspect.shape[2])
    for i, (u, h) in enumerate(queries):
        assert np.array_equal(stacked[i], run(p, h, u=u).ctx[0])
        _, ref_ctx, _, _, _ = ref_all(p, u, 1, 0.9, h, None)
        for k in range(p.hyper.n_aspects):
            assert np.allclose(stacked[i, k], ref_ctx[k], atol=1e-12)


@pytest.mark.parametrize(
    "histories",
    [
        [[], hist((2, 0.2), (4, 0.7)), hist((5, 0.1), (2, 0.4), (6, 0.6))],
        [[], [], []],
    ],
    ids=["empty-ragged-full", "all-empty"],
)
def test_context_is_the_weighted_blend_bit_for_bit(histories):
    """ctx is, byte for byte, w_ex * havg + w_self * au with the decayed
    history mean havg: half and half with history, the source's own aspects
    alone for an empty window, also when no row has history (L == 0)."""
    rng = np.random.default_rng(31)
    p = random_params(rng)
    srcs = [0, 1, 3]
    p.aspect[1, 2, 0] = -0.0  # an empty window gives +0.0 for it, as the blend does
    batch = batch_of(srcs, [0.9] * 3, histories)
    fwd = forward(p, srcs, batch.hist, batch.cand)
    b, lmax = batch.hist.ids.shape
    assert lmax == max(len(h) for h in histories)
    k, m = p.hyper.n_aspects, p.hyper.dim
    ah, au = p.aspect[batch.hist.ids], p.aspect[srcs]
    lens = batch.hist.mask.sum(axis=1)
    havg = (fwd.kappa[:, None, :] @ ah.reshape(b, lmax, k * m)).reshape(b, k, m)
    havg = havg / np.maximum(lens, 1.0)[:, None, None]
    w_ex = np.where(lens > 0, 0.5, 0.0)[:, None, None]
    w_self = np.where(lens > 0, 0.5, 1.0)[:, None, None]
    expect = w_ex * havg + w_self * au
    assert fwd.ctx.tobytes() == expect.tobytes()


def test_aspect_distribution_uniform_when_similarities_equal():
    p = random_params(np.random.default_rng(7), k=3)
    p.aspect[0] = p.identity[0]  # every context at distance zero
    assert np.allclose(run(p, []).pi_u[0], 1 / 3, atol=1e-12)


def test_aspect_distribution_low_temperature_one_hot():
    p = random_params(np.random.default_rng(8), k=3)
    p.theta[0] = softplus_inv(1e-3)
    p.aspect[0] = np.stack([
        p.identity[0],                          # distance 0
        p.identity[0] + 0.4,                    # clearly farther
        p.identity[0] - 0.5,
    ])
    pi = run(p, []).pi_u[0]
    assert np.argmax(pi) == 0
    assert pi[0] > 0.99


def test_aspect_distribution_sums_to_one_and_positive():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_params(rng)
        nodes = rng.integers(2, p.node_count, size=3)
        pi = run(p, hist(*zip(nodes.tolist(), [0.1, 0.4, 0.8]))).pi[0]
        assert np.allclose(pi.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(pi > 0)


def test_aspect_distribution_gumbel_argmax_frequencies():
    """Monte Carlo: argmax of the noisy distribution follows softmax(F)."""
    rng = np.random.default_rng(10)
    p = random_params(rng, k=4, m=3)
    p.theta[0] = softplus_inv(1.0)
    offsets = np.array([0.0, 0.5, 0.8, 1.2])
    p.aspect[0] = p.identity[0][None, :] + offsets[:, None] / np.sqrt(3)
    f = [-sq_dist(p.identity[0], c) for c in p.aspect[0]]
    expected = np.asarray(ref_softmax(f))
    draws = 100_000
    u = np.zeros(draws, dtype=np.int64)
    empty = Histories(np.zeros((draws, 0), dtype=np.int64), np.zeros((draws, 0)),
                      np.zeros((draws, 0)))
    g = gumbel(rng, 4 * draws).reshape(draws, 1, 4)
    fwd = forward(p, u, empty, np.empty((draws, 0)), g)
    counts = np.bincount(np.argmax(fwd.pi_u, axis=1), minlength=4)
    assert np.abs(counts / draws - expected).sum() <= 0.02


def test_aspect_distribution_deterministic_vs_replayed_noise():
    rng = np.random.default_rng(11)
    p = random_params(rng)
    h = hist((2, 0.2), (5, 0.6))
    noise = {n: np.array([0.3, -0.2, 1.0]) for n in (0, 2, 5)}
    a = run(p, h, noise=noise).pi
    b = run(p, h, noise=noise).pi
    assert np.array_equal(a, b)
    assert not np.array_equal(a, run(p, h).pi)


def test_aspect_distribution_no_gumbel_ignores_temperature():
    rng = np.random.default_rng(12)
    p = random_params(rng, use_gumbel=False)
    p.theta[0] = softplus_inv(1e-3)  # would sharpen if it were used
    p.aspect[0] = p.identity[0] + rng.normal(0, 0.1, (p.hyper.n_aspects, p.hyper.dim))
    f = [-sq_dist(p.identity[0], c) for c in p.aspect[0]]
    assert np.allclose(run(p, []).pi_u[0], np.asarray(ref_softmax(f)), atol=1e-12)


def test_aspect_intensity_empty_history_is_base_term():
    p = random_params(np.random.default_rng(13))
    lam_k = run(p, []).lam_k[0, 0]
    for k in range(p.hyper.n_aspects):
        mu = -sq_dist(p.identity[0], p.identity[1])
        gam = sq_dist(p.aspect[0, k], p.aspect[1, k])
        assert lam_k[k] == pytest.approx(mu * gam, abs=1e-12)


def test_aspect_intensity_zero_aspects_zero():
    p = random_params(np.random.default_rng(14))
    p.aspect[:] = 0.0
    assert np.all(run(p, hist((2, 0.2), (3, 0.5))).lam_k == 0.0)


def test_aspect_intensity_matches_reference():
    rng = np.random.default_rng(15)
    for _ in range(10):
        p = random_params(rng)
        h = hist((2, 0.1), (6, 0.55))
        _, _, _, ref_lam_k, _ = ref_all(p, 0, 1, 0.9, h, None)
        assert np.allclose(run(p, h).lam_k[0, 0], ref_lam_k, atol=1e-12, rtol=0)


def test_mixed_intensity_k1_degenerate():
    p = random_params(np.random.default_rng(16), k=1)
    h = hist((2, 0.3))
    fwd = run(p, h)
    assert fwd.pi_u[0].tolist() == [1.0]
    lam = mixed_intensity(p, build_context(p, 0, 1, 0.9, h))
    assert lam == pytest.approx(fwd.lam_k[0, 0, 0], abs=1e-15)


def test_mixed_intensity_convexity_under_equal_components():
    p = random_params(np.random.default_rng(17))
    p.aspect[:] = p.aspect[0, 0]  # every aspect identical -> equal lambdas
    fwd = run(p, hist((2, 0.3), (4, 0.6)))
    lams = fwd.lam_k[0, 0]
    assert np.allclose(lams, lams[0], atol=1e-12)
    assert fwd.lam[0, 0] == pytest.approx(lams[0], abs=1e-9)


def test_mixed_intensity_between_min_and_max_aspect():
    rng = np.random.default_rng(18)
    for _ in range(20):
        p = random_params(rng)
        fwd = run(p, hist((2, 0.1), (3, 0.4), (7, 0.8)))
        lams, lam = fwd.lam_k[0, 0], fwd.lam[0, 0]
        assert lams.min() - 1e-12 <= lam <= lams.max() + 1e-12
        assert np.exp(lam) > 0


def test_intensity_invariant_under_history_permutation():
    rng = np.random.default_rng(19)
    p = random_params(rng, use_attention=True)
    h = hist((2, 0.1), (3, 0.4), (7, 0.8))
    noise = {n: rng.gumbel(size=p.hyper.n_aspects) for n in [0, 2, 3, 7]}
    lam_a = mixed_intensity(p, query(h, noise=noise))
    h_perm = [h[2], h[0], h[1]]
    lam_b = mixed_intensity(p, query(h_perm, noise=noise))
    assert lam_a == pytest.approx(lam_b, abs=1e-12)


def test_no_attention_k1_reduces_to_plain_multivariate_form():
    """Attention off, K=1: base similarity plus kernel-weighted history terms."""
    rng = np.random.default_rng(20)
    p = random_params(rng, k=1, use_attention=False)
    h = hist((2, 0.2), (5, 0.6))
    ctx = build_context(p, 0, 1, 0.9, h)
    delta = float(p.decay[0])
    expect = -sq_dist(p.identity[0], p.identity[1]) * sq_dist(p.aspect[0, 0], p.aspect[1, 0])
    for node, th in h:
        expect += (
            -sq_dist(p.identity[node], p.identity[1])
            * sq_dist(p.aspect[node, 0], p.aspect[1, 0])
            * math.exp(-delta * (0.9 - th))
        )
    assert mixed_intensity(p, ctx) == pytest.approx(expect, abs=1e-12)


def test_stack_pads_windows_and_noise_with_zeros():
    """``Queries.stack`` pads each row's window to the widest with zero ids,
    dt and mask, and gives a row without noise +0.0 noise; with no noise in
    any row, ``g`` is None."""
    rng = np.random.default_rng(40)
    p = random_params(rng)
    k = p.hyper.n_aspects
    noise = {n: gumbel(rng, k) for n in (3, 2, 5)}
    rows = [
        query(hist((2, 0.1), (5, 0.4), (2, 0.6)), u=3, noise=noise),
        query([], u=4),
        query(hist((6, 0.2)), u=0),
    ]
    q = Queries.stack(rows)
    assert q.u.tolist() == [3, 4, 0] and q.cand.tolist() == [[1], [1], [1]]
    assert q.hist.ids.tolist() == [[2, 5, 2], [0, 0, 0], [6, 0, 0]]
    assert q.hist.mask.tolist() == [[1, 1, 1], [0, 0, 0], [1, 0, 0]]
    assert q.hist.dt.tolist() == [[0.9 - 0.1, 0.9 - 0.4, 0.9 - 0.6], [0, 0, 0], [0.9 - 0.2, 0, 0]]
    assert q.g[0].tobytes() == np.stack([noise[3], noise[2], noise[5], noise[2]]).tobytes()
    assert q.g[1:].tobytes() == np.zeros((2, 4, k)).tobytes()
    quiet = Queries.stack(rows[1:])
    assert quiet.g is None
    assert quiet.hist.ids.tolist() == [[0], [6]] and quiet.hist.mask.tolist() == [[0], [1]]


@pytest.mark.parametrize("use_gumbel", [True, False])
def test_a_stacked_batch_scores_each_row_as_it_scores_alone(use_gumbel):
    """Rows with windows of 0-4 events, a third of them without noise, each
    toward three candidates: in one stacked batch every row's lam and pi
    agree with the row scored alone to 1e-12, and bitwise in a batch whose
    rows share one window length."""
    rng = np.random.default_rng(41)
    p = random_params(rng, use_gumbel=use_gumbel)
    k = p.hyper.n_aspects
    rows = []
    for i, n_hist in enumerate([0, 4, 2, 0, 1, 3, 4, 2, 4]):
        nodes = rng.integers(0, p.node_count, size=n_hist).tolist()
        h = hist(*zip(nodes, np.sort(rng.uniform(0, 0.9, size=n_hist)).tolist()))
        noise = {n: gumbel(rng, k) for n in [i % 5] + nodes} if use_gumbel and i % 3 else None
        negatives = rng.integers(0, p.node_count, size=2)
        rows.append(as_query(Sample(TemporalEdge(i % 5, 8, 0.9), h, negatives, noise)))
    longest = [row for row in rows if row.hist.ids.shape[1] == 4]
    for batch, exact in ((rows, False), (longest, True)):
        q = Queries.stack(batch)
        together = forward(p, q.u, q.hist, q.cand, q.g)
        for i, row in enumerate(batch):
            alone = forward(p, row.u, row.hist, row.cand, row.g)
            n = row.hist.ids.shape[1] + 1
            if exact:
                assert together.lam[i].tobytes() == alone.lam[0].tobytes()
                assert together.pi[i].tobytes() == alone.pi[0].tobytes()
            else:
                assert np.allclose(together.lam[i], alone.lam[0], atol=1e-12, rtol=0)
                assert np.allclose(together.pi[i, :n], alone.pi[0], atol=1e-12, rtol=0)


def test_candidate_scores_match_mixed_intensity():
    """Scoring 11 targets at once equals scoring each alone and the reference."""
    rng = np.random.default_rng(21)
    p = random_params(rng, n_nodes=12)
    h = hist((2, 0.1), (3, 0.5))
    ctx = build_context(p, 0, 1, 0.9, h)
    targets = np.arange(1, 12)
    scores = candidate_scores(p, ctx, targets)
    for v, s in zip(targets, scores):
        assert s == pytest.approx(mixed_intensity(p, ctx.with_target(int(v))), abs=1e-12)
        assert s == pytest.approx(ref_all(p, 0, int(v), 0.9, h, None)[4], abs=1e-12)


def test_oracle_equivalence_50_fixtures():
    """Whole-pipeline agreement with the straight-line reference, 1e-12."""
    rng = np.random.default_rng(22)
    for trial in range(50):
        use_attention = trial % 2 == 0
        use_gumbel = trial % 3 != 0
        n_hist = trial % 4
        p = random_params(
            rng, use_attention=use_attention, use_gumbel=use_gumbel, k=2 + trial % 3
        )
        nodes = rng.integers(2, p.node_count, size=n_hist)
        times = np.sort(rng.uniform(0, 0.9, size=n_hist))
        h = hist(*[(int(a), float(b)) for a, b in zip(nodes, times)])
        noise = None
        if use_gumbel:
            noise = {}
            for node in [0] + [x for x, _ in h]:
                noise.setdefault(node, rng.gumbel(size=p.hyper.n_aspects))
        fwd = run(p, h, noise=noise)
        _, _, ref_pis, ref_lam_k, ref_lam = ref_all(p, 0, 1, 0.9, h, noise)
        for k in range(p.hyper.n_aspects):
            assert fwd.lam_k[0, 0, k] == pytest.approx(ref_lam_k[k], abs=1e-12)
        assert fwd.lam[0, 0] == pytest.approx(ref_lam, abs=1e-12)
        assert np.allclose(fwd.pi_u[0], ref_pis[0], atol=1e-12, rtol=0)
        assert mixed_intensity(p, query(h, noise=noise)) == pytest.approx(ref_lam, abs=1e-12)


def target_in_history_fixtures(rng, scale, count=20):
    """Queries whose target (node 1) is also a history node, so the target's
    pair distances to that event are exactly zero; one in three has the
    target twice in its history."""
    for trial in range(count):
        p = random_params(
            rng, scale=scale, use_attention=trial % 2 == 0,
            use_gumbel=trial % 3 != 0, k=1 + trial % 3,
        )
        repeats = 2 if trial % 3 == 2 else 1
        nodes = rng.permutation(np.r_[[1] * repeats, rng.integers(2, p.node_count, size=trial % 3)])
        times = np.sort(rng.uniform(0, 0.9, size=len(nodes)))
        h = hist(*zip(nodes.tolist(), times.tolist()))
        noise = None
        if p.hyper.use_gumbel:
            noise = {n: rng.gumbel(size=p.hyper.n_aspects) for n in [0] + nodes.tolist()}
        yield p, h, noise


def test_oracle_equivalence_target_in_history():
    """The Gram-form pair distances keep 1e-12 where a distance is zero."""
    for p, h, noise in target_in_history_fixtures(np.random.default_rng(23), scale=0.6):
        fwd = run(p, h, noise=noise)
        _, _, ref_pis, ref_lam_k, ref_lam = ref_all(p, 0, 1, 0.9, h, noise)
        for k in range(p.hyper.n_aspects):
            assert fwd.lam_k[0, 0, k] == pytest.approx(ref_lam_k[k], abs=1e-12)
        assert fwd.lam[0, 0] == pytest.approx(ref_lam, abs=1e-12)
        assert np.allclose(fwd.pi_u[0], ref_pis[0], atol=1e-12, rtol=0)


def test_oracle_equivalence_target_in_history_large_embeddings():
    """At embedding scale 5 the squared norms are ~70 times those at scale
    0.6, so a cancellation in the Gram form would show; the intensities
    still agree with the oracle to 1e-12 relative."""
    for p, h, noise in target_in_history_fixtures(np.random.default_rng(24), scale=5.0):
        fwd = run(p, h, noise=noise)
        _, _, _, ref_lam_k, ref_lam = ref_all(p, 0, 1, 0.9, h, noise)
        for k in range(p.hyper.n_aspects):
            assert fwd.lam_k[0, 0, k] == pytest.approx(ref_lam_k[k], rel=1e-12)
        assert fwd.lam[0, 0] == pytest.approx(ref_lam, rel=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.01, 5.0),
    n_hist=st.integers(0, 4),
    use_attention=st.booleans(),
    use_gumbel=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_intensities_are_never_positive(seed, scale, n_hist, use_attention, use_gumbel):
    """The sign cap in ``forward``'s docstring: every lam_k and lam is <= 0,
    so a positive's loss term is at least ln 2. Candidates include the source
    and the history nodes, whose distances to a slot are exactly zero."""
    rng = np.random.default_rng(seed)
    p = random_params(rng, scale=scale, use_attention=use_attention, use_gumbel=use_gumbel)
    nodes = rng.integers(0, p.node_count, size=n_hist)
    h = hist(*zip(nodes.tolist(), np.sort(rng.uniform(0, 0.9, size=n_hist)).tolist()))
    noise = None
    if use_gumbel:
        noise = {n: rng.gumbel(size=p.hyper.n_aspects) for n in [0] + nodes.tolist()}
    targets = np.r_[0, nodes, rng.integers(0, p.node_count, size=4)]
    fwd = run(p, h, targets=targets.tolist(), noise=noise)
    assert np.all(fwd.lam_k <= 0.0)
    assert np.all(fwd.lam <= 0.0)
    assert np.all(np.logaddexp(0.0, -fwd.lam) >= math.log(2.0))


@pytest.mark.parametrize("use_attention", [True, False])
@pytest.mark.parametrize("use_gumbel", [True, False])
def test_forward_without_candidates_gives_the_same_aspect_weights(use_attention, use_gumbel):
    """C == 0 (the aspect read-out) skips the candidate terms, the attention
    and the history slots' aspect weights only: on a batch of an empty, a
    ragged and a full history (history_len 4) it gives bitwise the source's
    pi and the ctx of C == 3."""
    rng = np.random.default_rng(26)
    p = random_params(rng, use_attention=use_attention, use_gumbel=use_gumbel)
    k = p.hyper.n_aspects
    u = [0, 6, 1]
    hists = batch_of(
        u, [0.9, 0.8, 0.95],
        [(), hist((2, 0.1), (3, 0.5)), hist((4, 0.1), (2, 0.2), (5, 0.6), (2, 0.7))],
    ).hist
    g = None
    if use_gumbel:
        g = np.concatenate([rng.gumbel(size=(3, 1, k)), rng.gumbel(size=(3, 4, k))], axis=1)
        g[:, 1:] *= hists.mask[:, :, None]
    full = forward(p, u, hists, rng.integers(0, p.node_count, size=(3, 3)), g)
    empty = forward(p, u, hists, np.empty((3, 0), dtype=np.int64), g)
    assert empty.pi.shape == (3, 1, k)
    assert np.array_equal(empty.pi, full.pi[:, :1])
    assert np.array_equal(empty.ctx, full.ctx)
    assert full.attn is not None
    assert empty.attn is None and empty.z is None and empty.wu is None and empty.wh is None
    assert empty.lam_k.shape == (3, 0, k)
    assert empty.lam.shape == empty.mu.shape == (3, 0)


@pytest.mark.parametrize("batch", [7, 200])
@pytest.mark.parametrize("n_cand", [0, 3, 6])
@pytest.mark.parametrize("use_gumbel", [True, False])
def test_source_weights_of_a_history_less_row_do_not_depend_on_its_batch(
    batch, n_cand, use_gumbel
):
    """The source's aspect logits are a row-local product: in a batch padded
    to L = 4 that mixes empty windows with windows of 1-4 events, each
    history-less row's pi_u is bitwise that of the row scored alone at
    L = 0, with or without candidates and Gumbel noise."""
    rng = np.random.default_rng(28)
    n, k = 50, 4
    p = random_params(rng, n_nodes=n, m=20, k=k, use_gumbel=use_gumbel)
    lens = rng.integers(0, 5, size=batch)
    lens[: batch // 2] = 0
    lens[-1] = 4
    lens = rng.permutation(lens)
    histories = [
        hist(*zip(rng.integers(0, n, size=ln).tolist(), np.sort(rng.uniform(0, 0.9, ln)).tolist()))
        for ln in lens
    ]
    u = rng.integers(0, n, size=batch)
    cand = rng.integers(0, n, size=(batch, n_cand))
    q = batch_of(u, np.full(batch, 0.9), histories)
    assert q.hist.ids.shape == (batch, 4)
    q = Queries(q.u, cand, q.hist)
    if use_gumbel:
        window = rng.gumbel(size=(batch, 4, k)) * q.hist.mask[:, :, None]
        g = np.concatenate([rng.gumbel(size=(batch, 1, k)), window], axis=1)
        q = Queries(q.u, q.cand, q.hist, g)
    full = forward(p, q.u, q.hist, q.cand, q.g)
    for r in np.flatnonzero(lens == 0):
        one = q.take([r])
        assert one.hist.ids.shape == (1, 0)
        alone = forward(p, one.u, one.hist, one.cand, one.g)
        assert np.array_equal(alone.pi_u[0], full.pi_u[r])


def test_read_out_aspect_weights_match_the_oracle_at_large_embeddings():
    """At embedding scale 5 the Gram-form slot-to-context distances subtract
    squared norms ~70 times those at scale 0.6; the read-out's (C == 0) pi of
    the source, and the pi of every slot with one candidate, still agree
    with the oracle to 1e-12, with attention on."""
    rng = np.random.default_rng(27)
    for trial in range(20):
        p = random_params(rng, scale=5.0, use_gumbel=trial % 2 == 0, k=2 + trial % 3)
        nodes = rng.integers(0, p.node_count, size=trial % 5).tolist()
        h = hist(*zip(nodes, np.sort(rng.uniform(0, 0.9, size=len(nodes))).tolist()))
        noise = None
        if p.hyper.use_gumbel:
            noise = {n: rng.gumbel(size=p.hyper.n_aspects) for n in [0] + nodes}
        ctx = query(h, v=0, noise=noise)
        fwd = forward(p, [0], ctx.hist, np.empty((1, 0), dtype=np.int64), ctx.g)
        one = forward(p, [0], ctx.hist, ctx.cand, ctx.g)
        _, _, ref_pis, _, _ = ref_all(p, 0, 0, 0.9, h, noise)
        assert fwd.attn is None
        assert np.allclose(fwd.pi_u[0], ref_pis[0], atol=1e-12, rtol=0)
        for slot, node in enumerate([0] + nodes):
            assert np.allclose(one.pi[0, slot], ref_pis[node], atol=1e-12, rtol=0)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("use_attention", [True, False])
@pytest.mark.parametrize("use_gumbel", [True, False])
def test_forward_on_every_node_matches_explicit_candidates(use_attention, use_gumbel, batch):
    """cand=None scores every node from views of the node table; it gives
    bitwise the pi, mu and lam of explicit np.arange(n) candidates, and a lam
    within 1e-12 of the oracle, on an empty, a ragged and a full history
    (history_len 4). Its lam_k matches theirs too."""
    rng = np.random.default_rng(28)
    p = random_params(rng, use_attention=use_attention, use_gumbel=use_gumbel)
    k, n = p.hyper.n_aspects, p.node_count
    u = [0, 6, 1][:batch]
    t = [0.9, 0.8, 0.95][:batch]
    events = [(), hist((2, 0.1), (3, 0.5)), hist((4, 0.1), (2, 0.2), (5, 0.6), (2, 0.7))]
    hists = batch_of(u, t, events[-batch:]).hist
    g = noise = None
    if use_gumbel:
        noise = rng.gumbel(size=(n, k))  # one draw per node, as the oracle takes it
        g = node_noise(noise, u, hists)
    every = forward(p, u, hists, None, g)
    explicit = forward(p, u, hists, np.tile(np.arange(n), (batch, 1)), g)
    for name in ("pi", "mu"):
        assert np.array_equal(getattr(every, name), getattr(explicit, name)), name
    assert every.lam.shape == (batch, n)
    assert np.array_equal(every.lam, explicit.lam)
    assert np.array_equal(every.lam_k, explicit.lam_k)
    for row, (src, when, events_row) in enumerate(zip(u, t, events[-batch:])):
        for v in range(n):
            ref_lam = ref_all(p, src, v, when, events_row, noise)[4]
            assert every.lam[row, v] == pytest.approx(ref_lam, abs=1e-12)


@pytest.mark.parametrize("use_attention", [True, False])
@pytest.mark.parametrize("use_gumbel", [True, False])
def test_every_node_intensities_match_the_oracle_at_large_embeddings(use_attention, use_gumbel):
    """cand=None expands each squared aspect distance inside the mixture,
    |a_n|^2 + |a_c|^2 - 2 a_n.a_c; at embedding scale 5 those terms are ~70
    times those at scale 0.6, so a cancellation would show. Every node's lam
    of three rows (an empty history, a ragged one holding the source, and a
    full one with a repeated node) agrees with the oracle to 1e-12 relative."""
    rng = np.random.default_rng(29)
    for _ in range(3):
        p = random_params(rng, scale=5.0, use_attention=use_attention, use_gumbel=use_gumbel)
        k, n = p.hyper.n_aspects, p.node_count
        u, t = [3, 0, 7], [0.9, 0.8, 0.95]
        events = [(), hist((0, 0.3), (5, 0.5)), hist((4, 0.1), (8, 0.2), (1, 0.6), (8, 0.7))]
        hists = batch_of(u, t, events).hist
        g = noise = None
        if use_gumbel:
            noise = rng.gumbel(size=(n, k))
            g = node_noise(noise, u, hists)
        lam = forward(p, u, hists, None, g).lam
        for row in range(3):
            for v in range(n):
                ref_lam = ref_all(p, u[row], v, t[row], events[row], noise)[4]
                assert lam[row, v] == pytest.approx(ref_lam, rel=1e-12, abs=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.01, 5.0),
    n_hist=st.integers(0, 4),
    use_attention=st.booleans(),
    use_gumbel=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_intensities_on_every_node_are_never_positive(
    seed, scale, n_hist, use_attention, use_gumbel
):
    """The sign cap holds for cand=None too: every node, the source and the
    history nodes among them, gets lam <= 0 (and lam_k <= 0 as an explicit
    candidate)."""
    rng = np.random.default_rng(seed)
    p = random_params(rng, scale=scale, use_attention=use_attention, use_gumbel=use_gumbel)
    nodes = rng.integers(0, p.node_count, size=n_hist)
    h = hist(*zip(nodes.tolist(), np.sort(rng.uniform(0, 0.9, size=n_hist)).tolist()))
    noise = None
    if use_gumbel:
        noise = {n: rng.gumbel(size=p.hyper.n_aspects) for n in [0] + nodes.tolist()}
    ctx = query(h, v=0, noise=noise)
    fwd = forward(p, [0], ctx.hist, None, ctx.g)
    explicit = forward(p, [0], ctx.hist, np.arange(p.node_count)[None], ctx.g)
    assert fwd.lam.shape == (1, p.node_count)
    assert np.all(explicit.lam_k <= 0.0)
    assert np.all(fwd.lam <= 0.0)


@pytest.mark.parametrize("use_attention", [True, False])
def test_a_read_only_model_scores_every_node_bitwise_as_its_writable_copy(use_attention):
    """cand=None on a read-only model reads the node terms it keeps; its lam
    and f_nc are bitwise those of a writable copy, which computes them
    afresh, on the first call and on a second that reuses them, for one row
    and for three. Nodes 6-8 are twins of node 5 and node 2 of node 0: f_nc
    is exactly 0 at each real slot's own node and at that node's twins, and
    every lam is <= 0."""
    rng = np.random.default_rng(30)
    p = random_params(rng, use_attention=use_attention, use_gumbel=False)
    p.table[[6, 7, 8]] = p.table[5]
    p.table[2] = p.table[0]
    frozen = read_only_copy(p)
    k = p.hyper.n_aspects
    u, t = [0, 5, 3], [0.9, 0.8, 0.95]
    events = [(), hist((5, 0.1), (2, 0.5)), hist((6, 0.1), (0, 0.2), (8, 0.6), (5, 0.7))]
    for rows in ([0], [1], [2], [0, 1, 2], [2]):
        hists = batch_of([u[r] for r in rows], [t[r] for r in rows], [events[r] for r in rows]).hist
        got = forward(frozen, [u[r] for r in rows], hists, None)
        want = forward(p, [u[r] for r in rows], hists, None)
        assert got.lam.tobytes() == want.lam.tobytes()
        assert got.f_nc.tobytes() == want.f_nc.tobytes()
        assert np.all(got.lam <= 0.0)
        slots = np.concatenate([np.array([u[r] for r in rows])[:, None], hists.ids], axis=1)
        real = np.concatenate([np.ones((len(rows), 1)), hists.mask], axis=1) > 0
        for b, n in zip(*np.nonzero(real)):
            twins = np.flatnonzero((p.table == p.table[slots[b, n]]).all(axis=1))
            assert np.all(got.f_nc[b, n, twins] == 0.0), (rows, b, n)
