"""Contrastive objectives: InfoNCE against a key queue, the in-batch-negatives
variant, and the mixed-query soft-target loss with its logits/targets builders.

All losses return their value together with analytic gradients wrt the
query-side embeddings; key and queue entries are treated as constants. They
share one sparse-target soft cross-entropy kernel; the builders are references.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError, DomainError
from .numerics import Tensor, as_f64, as_matrix


@dataclass
class LossResult:
    """Loss value plus gradient wrt the query-side input."""

    value: float
    grad: Tensor
    degenerate: bool = False


@dataclass
class PairLossResult:
    """Loss value with gradients wrt both views' embeddings."""

    value: float
    grad_queries: Tensor
    grad_keys: Tensor


def mix_rows(x: Tensor, lambdas) -> Tensor:
    """Convex combination of row i with row i + B/2, weights lambdas[i]."""
    x = as_matrix(x)
    b = x.shape[0]
    if b < 2 or b % 2:
        raise ConfigurationError(f"batch size must be even and >= 2, got {b}")
    lam = as_f64(lambdas)
    half = b // 2
    if lam.shape != (half,):
        raise DimensionError(f"need {half} coefficients, got shape {lam.shape}")
    if (lam < 0.0).any() or (lam > 1.0).any():
        raise ContractError("mixing coefficients must lie in [0, 1]")
    lam = lam[:, None]
    return lam * x[:half] + (1.0 - lam) * x[half:]


def mixup_half_batch(x: Tensor, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """Mix the front half of the batch with the back half, lambda ~ Unif(0, 1).

    Returns (x_mix, lambdas): row i of x_mix is lambdas[i] * x[i] +
    (1 - lambdas[i]) * x[i + B/2]. One coefficient is drawn per mixed row;
    exact zeros are redrawn so every lambda lies in the open interval.
    """
    x = as_matrix(x)
    b = x.shape[0]
    if b < 2 or b % 2:
        raise ConfigurationError(f"batch size must be even and >= 2, got {b}")
    lam = rng.random(b // 2)
    while (lam == 0.0).any():
        zero = lam == 0.0
        lam[zero] = rng.random(int(zero.sum()))
    return mix_rows(x, lam), lam


def _soft_cross_entropy(logits: Tensor, targets) -> float:
    """Mean soft cross-entropy of `logits` rows; overwrites the buffer with
    softmax(logits) - targets. `targets` lists (columns, weights) pairs: row i
    gets weights[i] at column columns[i]; each row's weights sum to 1."""
    rows = np.arange(logits.shape[0])
    picked = sum(weights * logits[rows, columns] for columns, weights in targets)
    peak = logits.max(axis=1, keepdims=True)
    np.subtract(logits, peak, out=logits)
    np.exp(logits, out=logits)
    total = logits.sum(axis=1, keepdims=True)
    np.divide(logits, total, out=logits)
    for columns, weights in targets:
        logits[rows, columns] -= weights
    return float((peak[:, 0] + np.log(total[:, 0]) - picked).mean())


def _require_finite(loss: str, value: float, *grads: Tensor) -> None:
    """Any NaN or infinity in the logits reaches the value or the gradient."""
    if not (math.isfinite(value) and all(np.isfinite(g).all() for g in grads)):
        raise DomainError(f"non-finite {loss} loss")


def infonce_loss(queries: Tensor, keys: Tensor, queue: Tensor, temperature: float) -> LossResult:
    """Queue-negative InfoNCE: positive q_i . k_i at column 0, then K negatives.

    Mean over rows of -log softmax(logits / temperature)[0]. With an empty
    queue the softmax has a single entry, so the loss is identically 0 and
    the result is flagged degenerate.
    """
    if temperature <= 0.0:
        raise ConfigurationError(f"temperature must be positive, got {temperature}")
    queries = as_matrix(queries, "queries")
    keys = as_matrix(keys, "keys")
    queue = as_matrix(queue, "queue")
    if keys.shape != queries.shape:
        raise DimensionError(f"keys {keys.shape} do not match queries {queries.shape}")
    if queue.shape[1] != queries.shape[1]:
        raise DimensionError(f"queue width {queue.shape[1]} != embedding dim {queries.shape[1]}")
    b = queries.shape[0]
    if queue.shape[0] == 0:
        return LossResult(0.0, np.zeros_like(queries), degenerate=True)
    scaled = queries / temperature
    logits = np.empty((b, 1 + queue.shape[0]))
    np.sum(scaled * keys, axis=1, out=logits[:, 0])
    np.matmul(scaled, queue.T, out=logits[:, 1:])
    value = _soft_cross_entropy(logits, [(0, 1.0)])
    grad = (logits[:, :1] * keys + logits[:, 1:] @ queue) / (b * temperature)
    _require_finite("InfoNCE", value, grad)
    return LossResult(value, grad)


def simclr_contrastive_loss(queries: Tensor, keys: Tensor, temperature: float) -> PairLossResult:
    """In-batch negatives: row i's positive is k_i, negatives are k_j, j != i.

    Mean over rows of -log softmax(q K^T / temperature)[i]. Gradients flow to
    both views.
    """
    if temperature <= 0.0:
        raise ConfigurationError(f"temperature must be positive, got {temperature}")
    queries = as_matrix(queries, "queries")
    keys = as_matrix(keys, "keys")
    if keys.shape != queries.shape:
        raise DimensionError(f"keys {keys.shape} do not match queries {queries.shape}")
    b = queries.shape[0]
    if b < 2:
        raise ConfigurationError(f"need a batch of >= 2 for in-batch negatives, got {b}")
    logits = (queries / temperature) @ keys.T
    value = _soft_cross_entropy(logits, [(np.arange(b), 1.0)])
    grad_queries = logits @ keys / (b * temperature)
    grad_keys = logits.T @ queries / (b * temperature)
    _require_finite("SimCLR", value, grad_queries, grad_keys)
    return PairLossResult(value, grad_queries, grad_keys)


def _mixed_operands(mixed_queries, keys, queue, mix_temperature: float):
    if mix_temperature <= 0.0:
        raise ConfigurationError(f"mix temperature must be positive, got {mix_temperature}")
    mixed_queries = as_matrix(mixed_queries, "mixed queries")
    keys = as_matrix(keys, "keys")
    queue = as_matrix(queue, "queue")
    if keys.shape[1] != mixed_queries.shape[1] or queue.shape[1] != mixed_queries.shape[1]:
        raise DimensionError(
            f"embedding dims differ: mixed {mixed_queries.shape}, keys {keys.shape}, "
            f"queue {queue.shape}"
        )
    return mixed_queries, keys, queue


def _mixed_lambdas(lambdas, batch_size: int, queue_size: int) -> Tensor:
    lam = as_f64(lambdas)
    if batch_size < 2 or batch_size % 2:
        raise ConfigurationError(f"batch size must be even and >= 2, got {batch_size}")
    if queue_size < 0:
        raise ConfigurationError(f"queue size must be >= 0, got {queue_size}")
    if lam.shape != (batch_size // 2,):
        raise DimensionError(f"need {batch_size // 2} coefficients, got shape {lam.shape}")
    if (lam <= 0.0).any() or (lam >= 1.0).any():
        raise ContractError("mixing coefficients must lie strictly inside (0, 1)")
    return lam


def build_mixed_logits(
    mixed_queries: Tensor, keys: Tensor, queue: Tensor, mix_temperature: float
) -> Tensor:
    """Similarity logits of mixed queries against all batch keys then the queue.

    Columns 0..B-1 are mixed . keys^T, columns B.. are mixed . queue^T, all
    divided by mix_temperature. Rows are expected to be unit-norm.
    """
    mixed_queries, keys, queue = _mixed_operands(mixed_queries, keys, queue, mix_temperature)
    return (
        np.concatenate([mixed_queries @ keys.T, mixed_queries @ queue.T], axis=1)
        / mix_temperature
    )


def build_mixed_targets(lambdas, batch_size: int, queue_size: int) -> Tensor:
    """Soft-target matrix for mixed queries.

    Row i carries lambdas[i] at column i and 1 - lambdas[i] at column
    i + B/2; all other columns, including every queue column, are zero, so
    each row sums to exactly 1.
    """
    lam = _mixed_lambdas(lambdas, batch_size, queue_size)
    half = batch_size // 2
    targets = np.zeros((half, batch_size + queue_size))
    idx = np.arange(half)
    targets[idx, idx] = lam
    targets[idx, idx + half] = 1.0 - lam
    return targets


def mixed_query_loss(
    mixed_queries: Tensor,
    keys: Tensor,
    queue: Tensor,
    lambdas,
    mix_temperature: float,
) -> LossResult:
    """Soft-target cross-entropy of mixed queries against batch keys plus the
    queue. Keys and queue entries are constants; the gradient is wrt the
    mixed queries only.
    """
    mixed_queries, keys, queue = _mixed_operands(mixed_queries, keys, queue, mix_temperature)
    b = keys.shape[0]
    lam = _mixed_lambdas(lambdas, b, queue.shape[0])
    half = b // 2
    if mixed_queries.shape[0] != half:
        raise DimensionError(f"need {half} mixed queries, got {mixed_queries.shape[0]}")
    scaled = mixed_queries / mix_temperature
    logits = np.empty((half, b + queue.shape[0]))
    np.matmul(scaled, keys.T, out=logits[:, :b])
    np.matmul(scaled, queue.T, out=logits[:, b:])
    rows = np.arange(half)
    value = _soft_cross_entropy(logits, [(rows, lam), (rows + half, 1.0 - lam)])
    grad = (logits[:, :b] @ keys + logits[:, b:] @ queue) / (half * mix_temperature)
    _require_finite("mixed-query", value, grad)
    return LossResult(value, grad)


def total_loss(l_contrast: float, l_mixed: float, mix_weight: float) -> float:
    """Combined objective: contrastive term plus mix_weight times the mixed term."""
    if mix_weight < 0.0:
        raise ConfigurationError(f"mix weight must be >= 0, got {mix_weight}")
    return l_contrast + mix_weight * l_mixed
