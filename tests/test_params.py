import json
import struct

import numpy as np
import pytest

from hawkmix import (
    HyperParams,
    concat_embedding,
    init_params,
    load_params,
    save_params,
    softplus,
    softplus_inv,
)
from hawkmix.params import MODEL_MAGIC, ModelFileError, all_embeddings, export_embeddings


def hyper(m=4, k=2, **kw):
    return HyperParams(n_aspects=k, dim=m, **kw)


def test_init_shapes():
    p = init_params(hyper(m=4, k=2), 3, np.random.default_rng(0))
    assert p.identity.shape == (3, 4)
    assert p.aspect.shape == (3, 2, 4)
    assert p.rho.shape == (3,)
    assert p.theta.shape == (3,)
    assert p.attn_w.shape == (4, 4)
    assert p.attn_a.shape == (8,)


def test_init_decay_and_temperature_are_one():
    p = init_params(hyper(), 5, np.random.default_rng(1))
    assert np.all(p.decay == 1.0)
    assert np.all(p.temperature == 1.0)


def test_init_deterministic_in_seed():
    a = init_params(hyper(), 4, np.random.default_rng(9))
    b = init_params(hyper(), 4, np.random.default_rng(9))
    assert np.array_equal(a.identity, b.identity)
    assert np.array_equal(a.aspect, b.aspect)
    assert np.array_equal(a.attn_w, b.attn_w)
    assert np.array_equal(a.attn_a, b.attn_a)


def test_init_embedding_range_scales_with_dim():
    p = init_params(hyper(m=10, k=1), 50, np.random.default_rng(2))
    assert np.all(np.abs(p.identity) <= 0.05)
    assert np.all(np.abs(p.aspect) <= 0.05)


def test_init_attention_projection_near_identity():
    p = init_params(hyper(m=6), 2, np.random.default_rng(3))
    assert np.all(np.diag(p.attn_w) == 1.0)
    off = p.attn_w - np.eye(6)
    assert np.all(np.abs(off) <= 0.01)


def test_softplus_at_zero():
    assert softplus(0.0) == pytest.approx(np.log(2.0), abs=1e-15)


def test_softplus_roundtrip():
    assert softplus_inv(softplus(3.7)) == pytest.approx(3.7, abs=1e-10)


def test_softplus_no_underflow():
    assert softplus(-40.0) > 0.0


def test_softplus_large_input_no_overflow():
    assert softplus(1000.0) == 1000.0
    assert softplus_inv(1000.0) == 1000.0


def test_softplus_inv_rejects_nonpositive():
    with pytest.raises(ValueError):
        softplus_inv(0.0)
    with pytest.raises(ValueError):
        softplus_inv(-1.0)


def test_concat_embedding_order():
    p = init_params(hyper(m=2, k=2), 1, np.random.default_rng(0))
    p.identity[0] = [1.0, 2.0]
    p.aspect[0] = [[3.0, 4.0], [5.0, 6.0]]
    assert concat_embedding(p, 0).tolist() == [1, 2, 3, 4, 5, 6]


def test_concat_embedding_k1_length():
    p = init_params(hyper(m=3, k=1), 2, np.random.default_rng(0))
    assert len(concat_embedding(p, 1)) == 6


def test_concat_embedding_zero_params():
    p = init_params(hyper(m=2, k=2), 1, np.random.default_rng(0))
    p.identity[:] = 0
    p.aspect[:] = 0
    assert np.all(concat_embedding(p, 0) == 0)


def test_all_embeddings_matches_concat():
    p = init_params(hyper(m=3, k=2), 4, np.random.default_rng(5))
    emb = all_embeddings(p)
    for u in range(4):
        assert np.array_equal(emb[u], concat_embedding(p, u))


def test_save_load_roundtrip_bitwise(tmp_path):
    p = init_params(hyper(m=5, k=3, seed=11), 7, np.random.default_rng(11))
    p.rho[:] = np.random.default_rng(1).normal(size=7)
    path = tmp_path / "model.bin"
    save_params(p, path)
    q = load_params(path)
    assert q.hyper == p.hyper
    for name in ("identity", "aspect", "rho", "theta", "attn_w", "attn_a"):
        assert np.array_equal(getattr(p, name), getattr(q, name)), name


def test_load_truncated_file_errors(tmp_path):
    p = init_params(hyper(), 3, np.random.default_rng(0))
    path = tmp_path / "model.bin"
    save_params(p, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelFileError, match="truncated"):
        load_params(path)


def test_load_wrong_magic_errors(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOPE9" + b"\x00" * 64)
    with pytest.raises(ModelFileError):
        load_params(path)


def test_load_trailing_garbage_errors(tmp_path):
    p = init_params(hyper(), 3, np.random.default_rng(0))
    path = tmp_path / "model.bin"
    save_params(p, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ModelFileError, match="trailing"):
        load_params(path)


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("hyper"),
    lambda h: h.pop("node_count"),
    lambda h: h["hyper"].update(bogus=1),
    lambda h: h.update(node_count="3"),
], ids=["no-hyper", "no-node-count", "unknown-field", "text-node-count"])
def test_load_malformed_header_errors(tmp_path, edit):
    """A header without ``hyper`` or ``node_count``, with an unknown
    hyperparameter or with a node count that is not an integer, is a
    ModelFileError, not a KeyError or TypeError."""
    p = init_params(hyper(), 3, np.random.default_rng(0))
    path = tmp_path / "model.bin"
    save_params(p, path)
    blob = path.read_bytes()
    off = len(MODEL_MAGIC)
    (hlen,) = struct.unpack_from("<I", blob, off)
    header = json.loads(blob[off + 4 : off + 4 + hlen])
    edit(header)
    text = json.dumps(header).encode()
    path.write_bytes(MODEL_MAGIC + struct.pack("<I", len(text)) + text + blob[off + 4 + hlen :])
    with pytest.raises(ModelFileError, match="malformed header"):
        load_params(path)


def test_save_stores_raw_rho_exactly(tmp_path):
    # the unconstrained value round-trips, so decay is preserved to 0 ulp
    p = init_params(hyper(), 3, np.random.default_rng(0))
    p.rho[:] = [0.123456789123456789, -7.5, 3.25]
    path = tmp_path / "model.bin"
    save_params(p, path)
    q = load_params(path)
    assert np.array_equal(q.rho, p.rho)
    assert np.array_equal(q.decay, p.decay)


def test_export_embeddings_format(tmp_path):
    p = init_params(hyper(m=2, k=1), 2, np.random.default_rng(0))
    path = tmp_path / "emb.txt"
    export_embeddings(p, path, labels=["alpha", "beta"])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "2 2 1"
    first = lines[1].split()
    assert first[0] == "alpha"
    assert len(first) == 1 + 2 * 2
    vals = np.array([float(x) for x in first[1:]])
    assert np.array_equal(vals, concat_embedding(p, 0))


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(n_aspects=0)
    with pytest.raises(ValueError):
        HyperParams(history_len=0)
    with pytest.raises(ValueError):
        HyperParams(dim=0)
    with pytest.raises(ValueError):
        HyperParams(n_negatives=0)


def test_total_dim():
    assert HyperParams(n_aspects=4, dim=20).total_dim == 100
