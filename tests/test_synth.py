import math
from itertools import permutations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.stats import kstest

from hawkmix import PlantedSpec, PlantedTruth, generate, recovery_score, thinning_times
from hawkmix.synth import _best_matching


def truth_of(labels):
    empty = np.empty(0, dtype=np.int64)
    return PlantedTruth(np.asarray(labels), empty, empty, np.empty(0), empty)


def brute_force(predicted, labels, k):
    return max(float(np.mean(np.asarray(perm)[predicted] == labels))
               for perm in permutations(range(k)))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
def test_recovery_score_matches_brute_force(k):
    rng = np.random.default_rng(k)
    for _ in range(5 if k <= 5 else 1):
        labels = rng.integers(0, k, size=40)
        labels[:k] = np.arange(k)  # every planted group present
        predicted = np.where(rng.random(40) < 0.6, rng.permutation(k)[labels],
                             rng.integers(0, k, size=40))
        score = recovery_score(predicted, truth_of(labels))
        assert score == pytest.approx(brute_force(predicted, labels, k), abs=1e-12)


def assert_best_matching(weights):
    cols = _best_matching(weights)
    k = len(weights)
    assert sorted(cols.tolist()) == list(range(k))
    rows, best = linear_sum_assignment(weights, maximize=True)
    assert weights[np.arange(k), cols].sum() == weights[rows, best].sum()


@pytest.mark.parametrize("k", range(1, 13))
def test_best_matching_reaches_linear_sum_assignments_optimum(k):
    rng = np.random.default_rng(100 + k)
    assert_best_matching(np.zeros((k, k), dtype=np.int64))
    assert_best_matching(np.full((k, k), 7, dtype=np.int64))
    for high in (2, 3, 10, 1000, 10**12):  # small ranges tie heavily
        for _ in range(4):
            assert_best_matching(rng.integers(0, high, size=(k, k)))


def test_best_matching_at_a_k_no_permutation_search_could_finish():
    rng = np.random.default_rng(30)
    assert_best_matching(rng.integers(0, 50, size=(30, 30)))
    labels = rng.integers(0, 30, size=3000)
    perm = rng.permutation(30)
    predicted = np.where(rng.random(3000) < 0.7, perm[labels], rng.integers(0, 30, size=3000))
    confusion = np.zeros((30, 30), dtype=np.int64)
    np.add.at(confusion, (predicted, labels), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    assert recovery_score(predicted, truth_of(labels)) == confusion[rows, cols].sum() / 3000


def test_recovery_score_relabeled_truth_is_perfect():
    labels = np.repeat(np.arange(8), 5)
    perm = np.random.default_rng(0).permutation(8)
    assert recovery_score(perm[labels], truth_of(labels)) == 1.0


def test_recovery_score_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="same node set"):
        recovery_score([0, 1], truth_of([0, 1, 1]))


def compensator_gaps(times, mu0, alpha0, delta0):
    """Increments of the compensator of mu0 + alpha0 * sum exp(-delta0 (t - t_j))
    between successive events (from t=0): Lambda(t_i) = mu0 t_i +
    alpha0 / delta0 * sum_{j<i} (1 - exp(-delta0 (t_i - t_j)))."""
    lam = np.empty(len(times))
    decayed, prev = 0.0, 0.0   # sum_{j<i} exp(-delta0 (t - t_j)) at t = prev
    for i, t in enumerate(times):
        decayed *= np.exp(-delta0 * (t - prev))
        lam[i] = mu0 * t + alpha0 / delta0 * (i - decayed)
        decayed, prev = decayed + 1.0, t
    return np.diff(lam, prepend=0.0)


STREAMS = [  # (mu0, alpha0, delta0, horizon): 1.6k-2.9k events each
    (1.0, 0.3, 1.0, 2000.0),
    (0.5, 0.8, 2.0, 2000.0),
    (2.0, 1.5, 3.0, 500.0),
]


@pytest.mark.parametrize("mu0, alpha0, delta0, horizon", STREAMS)
def test_thinning_passes_time_rescaling(mu0, alpha0, delta0, horizon):
    """Time-rescaling theorem (Brown et al. 2002): interarrivals mapped
    through the true compensator are Exp(1). A compensator with the wrong
    decay must fail the same KS test, or the test could not see a fault."""
    times = thinning_times(mu0, alpha0, delta0, horizon, np.random.default_rng(0))
    assert len(times) > 1000
    assert np.all(np.diff(times) > 0)
    assert kstest(compensator_gaps(times, mu0, alpha0, delta0), "expon").pvalue > 0.01
    for wrong in (0.5 * delta0, 2.0 * delta0):
        assert kstest(compensator_gaps(times, mu0, alpha0, wrong), "expon").pvalue < 0.01


@pytest.mark.parametrize("field", ["mu0", "alpha0", "delta0", "horizon"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_planted_spec_rejects_a_nonfinite_rate_or_horizon(field, value):
    """NaN passes every range check and an infinite horizon never ends the
    thinning loop, so the spec refuses both by name before ``generate``."""
    spec = dict(n_aspects=2, nodes_per_aspect=3, mu0=0.5, alpha0=0.3, delta0=1.0, horizon=5.0)
    generate(PlantedSpec(**spec), np.random.default_rng(0))
    spec[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite, not {value!r}$"):
        PlantedSpec(**spec)
