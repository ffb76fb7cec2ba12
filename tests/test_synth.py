from itertools import permutations

import numpy as np
import pytest

from hawkmix import PlantedTruth, recovery_score


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


def test_recovery_score_relabeled_truth_is_perfect():
    labels = np.repeat(np.arange(8), 5)
    perm = np.random.default_rng(0).permutation(8)
    assert recovery_score(perm[labels], truth_of(labels)) == 1.0


def test_recovery_score_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="same node set"):
        recovery_score([0, 1], truth_of([0, 1, 1]))
