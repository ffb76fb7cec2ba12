import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkmix import (
    NeighborEvent,
    build_context,
    candidate_scores,
    forward,
    mixed_intensity,
    pad_histories,
)
from hawkmix.intensity import gumbel_noise
from hawkmix.params import softplus_inv

from oracle import ref_all, softmax as ref_softmax
from util import random_params


def hist(*pairs):
    return [NeighborEvent(h, t) for h, t in pairs]


def run(p, history, targets=(1,), u=0, t=0.9, noise=None):
    """The forward pass for one query, assembled by build_context."""
    ctx = build_context(p, u, targets[0], t, history, noise=noise)
    return forward(p, [u], ctx.hist, np.asarray([targets]), ctx.g_u, ctx.g_h)


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
    padded = pad_histories(
        [0.9] * len(queries), [([n for n, _ in h], [t for _, t in h]) for _, h in queries]
    )
    stacked = forward(p, srcs, padded, np.ones((len(queries), 1), dtype=np.int64)).ctx
    assert stacked.shape == (len(queries), p.hyper.n_aspects, p.aspect.shape[2])
    for i, (u, h) in enumerate(queries):
        assert np.array_equal(stacked[i], run(p, h, u=u).ctx[0])
        _, ref_ctx, _, _, _ = ref_all(p, u, 1, 0.9, h, None)
        for k in range(p.hyper.n_aspects):
            assert np.allclose(stacked[i, k], ref_ctx[k], atol=1e-12)


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
    empty = pad_histories(np.full(draws, 0.5), [((), ())] * draws)
    g_u = gumbel_noise(rng, 4 * draws).reshape(draws, 4)
    fwd = forward(p, u, empty, np.empty((draws, 0)), g_u, np.zeros((draws, 0, 4)))
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
    lam_a = mixed_intensity(p, build_context(p, 0, 1, 0.9, h, noise=noise))
    h_perm = [h[2], h[0], h[1]]
    lam_b = mixed_intensity(p, build_context(p, 0, 1, 0.9, h_perm, noise=noise))
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
        ctx = build_context(p, 0, 1, 0.9, h, noise=noise)
        assert mixed_intensity(p, ctx) == pytest.approx(ref_lam, abs=1e-12)


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


def test_forward_without_candidates_gives_the_same_aspect_weights():
    """C == 0 (the aspect read-out) skips the candidate terms only."""
    rng = np.random.default_rng(25)
    p = random_params(rng)
    h = hist((2, 0.1), (3, 0.5), (2, 0.7))
    noise = {n: rng.gumbel(size=p.hyper.n_aspects) for n in (0, 2, 3)}
    ctx = build_context(p, 0, 1, 0.9, h, noise=noise)
    full = forward(p, [0], ctx.hist, np.array([[1, 4, 5]]), ctx.g_u, ctx.g_h)
    empty = forward(p, [0], ctx.hist, np.empty((1, 0), dtype=np.int64), ctx.g_u, ctx.g_h)
    assert np.array_equal(empty.pi, full.pi)
    assert np.array_equal(empty.ctx, full.ctx)
    assert empty.lam_k.shape == (1, 0, p.hyper.n_aspects)
    assert empty.lam.shape == empty.mu.shape == (1, 0)
