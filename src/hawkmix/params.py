"""Trainable model state: embeddings, per-node decay/temperature, attention weights.

Every node carries one identity embedding and one embedding per aspect; the
per-node decay and temperature scalars are stored unconstrained and mapped
through a softplus so they stay strictly positive under gradient updates.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

MODEL_MAGIC = b"MHNE1"


class ModelFileError(ValueError):
    """Raised when a model file is unreadable, truncated, or the wrong version."""


def softplus(x):
    """log(1 + e^x), computed without overflow; output is strictly positive."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_inv(y):
    """Inverse of ``softplus``; defined for y > 0 only."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0.0):
        raise ValueError("softplus_inv requires strictly positive input")
    # log(e^y - 1) = y + log(1 - e^-y); -expm1 keeps the small-y branch exact.
    return y + np.log(-np.expm1(-y))


@dataclass(frozen=True)
class HyperParams:
    """Training configuration; ``dim`` is the size of each individual embedding."""

    n_aspects: int = 4
    history_len: int = 5
    dim: int = 20
    n_negatives: int = 5
    batch_size: int = 200
    epochs: int = 20
    lr: float = 0.003
    seed: int = 0
    use_attention: bool = True
    use_gumbel: bool = True

    def __post_init__(self):
        if self.n_aspects < 1:
            raise ValueError("n_aspects must be >= 1")
        if self.history_len < 1:
            raise ValueError("history_len must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.n_negatives < 1:
            raise ValueError("n_negatives must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")

    @property
    def total_dim(self) -> int:
        """Length of the concatenated per-node vector: identity + all aspects."""
        return self.dim * (self.n_aspects + 1)


@dataclass
class ModelParams:
    """All trainable arrays for one model.

    identity : (n, m) identity embeddings
    aspect   : (n, K, m) aspect embeddings
    rho      : (n,) unconstrained; per-node kernel decay = softplus(rho)
    theta    : (n,) unconstrained; per-node temperature = softplus(theta)
    attn_w   : (m, m) shared attention projection
    attn_a   : (2m,) attention scoring vector
    """

    hyper: HyperParams
    identity: np.ndarray
    aspect: np.ndarray
    rho: np.ndarray
    theta: np.ndarray
    attn_w: np.ndarray
    attn_a: np.ndarray

    @property
    def node_count(self) -> int:
        return self.identity.shape[0]

    @property
    def decay(self) -> np.ndarray:
        return softplus(self.rho)

    @property
    def temperature(self) -> np.ndarray:
        return softplus(self.theta)

    def copy(self) -> "ModelParams":
        return replace(
            self,
            identity=self.identity.copy(),
            aspect=self.aspect.copy(),
            rho=self.rho.copy(),
            theta=self.theta.copy(),
            attn_w=self.attn_w.copy(),
            attn_a=self.attn_a.copy(),
        )


def init_params(hyper: HyperParams, node_count: int, rng: np.random.Generator) -> ModelParams:
    """Fresh parameters: small uniform embeddings, decay and temperature both 1.

    Embedding entries are drawn from uniform(-0.5/m, 0.5/m) so initial
    intensities stay O(1); the attention projection starts at the identity
    map plus small off-diagonal noise.
    """
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    m, k = hyper.dim, hyper.n_aspects
    half = 0.5 / m
    identity = rng.uniform(-half, half, size=(node_count, m))
    aspect = rng.uniform(-half, half, size=(node_count, k, m))
    attn_w = np.eye(m)
    noise = rng.uniform(-0.01, 0.01, size=(m, m))
    np.fill_diagonal(noise, 0.0)
    attn_w += noise
    attn_a = rng.uniform(-0.01, 0.01, size=2 * m)
    raw_one = float(softplus_inv(1.0))
    rho = np.full(node_count, raw_one)
    theta = np.full(node_count, raw_one)
    return ModelParams(hyper, identity, aspect, rho, theta, attn_w, attn_a)


def concat_embedding(params: ModelParams, u: int) -> np.ndarray:
    """[identity_u, aspect_u^1, ..., aspect_u^K] as one flat vector."""
    return np.concatenate([params.identity[u], params.aspect[u].ravel()])


def all_embeddings(params: ModelParams) -> np.ndarray:
    """Concatenated embeddings for every node, shape (n, m*(K+1))."""
    n = params.node_count
    return np.hstack([params.identity, params.aspect.reshape(n, -1)])


_ARRAY_FIELDS = ("identity", "aspect", "rho", "theta", "attn_w", "attn_a")


def save_params(params: ModelParams, path) -> None:
    """Binary dump: magic, JSON header, then raw little-endian float64 arrays."""
    header = {"node_count": params.node_count, "hyper": asdict(params.hyper)}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in _ARRAY_FIELDS:
            arr = getattr(params, name)
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_params(path) -> ModelParams:
    """Read a file written by ``save_params``; raw arrays round-trip bitwise."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MODEL_MAGIC) or data[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFileError(f"{path}: not a {MODEL_MAGIC.decode()} model file")
    off = len(MODEL_MAGIC)
    if len(data) < off + 4:
        raise ModelFileError(f"{path}: truncated header")
    (hlen,) = struct.unpack_from("<I", data, off)
    off += 4
    if len(data) < off + hlen:
        raise ModelFileError(f"{path}: truncated header")
    header = json.loads(data[off : off + hlen].decode("utf-8"))
    off += hlen
    hyper = HyperParams(**header["hyper"])
    n, m, k = header["node_count"], hyper.dim, hyper.n_aspects
    shapes = {
        "identity": (n, m),
        "aspect": (n, k, m),
        "rho": (n,),
        "theta": (n,),
        "attn_w": (m, m),
        "attn_a": (2 * m,),
    }
    arrays = {}
    for name in _ARRAY_FIELDS:
        shape = shapes[name]
        nbytes = int(np.prod(shape)) * 8
        if len(data) < off + nbytes:
            raise ModelFileError(f"{path}: truncated while reading '{name}'")
        arrays[name] = (
            np.frombuffer(data[off : off + nbytes], dtype="<f8").reshape(shape).copy()
        )
        off += nbytes
    if off != len(data):
        raise ModelFileError(f"{path}: {len(data) - off} unexpected trailing bytes")
    return ModelParams(hyper=hyper, **arrays)


def export_embeddings(params: ModelParams, path, labels=None) -> None:
    """Text export: header `node_count m K`, then one `id v1 v2 ...` line per node."""
    n = params.node_count
    emb = all_embeddings(params)
    with open(path, "w") as fh:
        fh.write(f"{n} {params.hyper.dim} {params.hyper.n_aspects}\n")
        for u in range(n):
            label = labels[u] if labels is not None else u
            vals = " ".join(format(v, ".17g") for v in emb[u])
            fh.write(f"{label} {vals}\n")
