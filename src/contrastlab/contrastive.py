"""Contrastive objectives: InfoNCE against a key queue, the in-batch-negatives
variant, and the mixed-query soft-target loss with its logits/targets builders.

All losses return their value together with analytic gradients wrt the
query-side embeddings; key and queue entries are treated as constants.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError
from .numerics import (
    Tensor,
    as_f64,
    as_matrix,
    log_softmax,
    soft_cross_entropy,
    softmax,
)


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
    positives = (queries * keys).sum(axis=1, keepdims=True)
    logits = np.concatenate([positives, queries @ queue.T], axis=1) / temperature
    value = float(-log_softmax(logits)[:, 0].mean())
    g = softmax(logits)
    g[:, 0] -= 1.0
    g /= b * temperature
    grad = g[:, :1] * keys + g[:, 1:] @ queue
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
    logits = (queries @ keys.T) / temperature
    value = float(-np.diagonal(log_softmax(logits)).mean())
    g = softmax(logits)
    g[np.arange(b), np.arange(b)] -= 1.0
    g /= b * temperature
    return PairLossResult(value, g @ keys, g.T @ queries)


def build_mixed_logits(
    mixed_queries: Tensor, keys: Tensor, queue: Tensor, mix_temperature: float
) -> Tensor:
    """Similarity logits of mixed queries against all batch keys then the queue.

    Columns 0..B-1 are mixed . keys^T, columns B.. are mixed . queue^T, all
    divided by mix_temperature. Rows are expected to be unit-norm.
    """
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
    lam = as_f64(lambdas)
    if batch_size < 2 or batch_size % 2:
        raise ConfigurationError(f"batch size must be even and >= 2, got {batch_size}")
    if queue_size < 0:
        raise ConfigurationError(f"queue size must be >= 0, got {queue_size}")
    half = batch_size // 2
    if lam.shape != (half,):
        raise DimensionError(f"need {half} coefficients, got shape {lam.shape}")
    if (lam <= 0.0).any() or (lam >= 1.0).any():
        raise ContractError("mixing coefficients must lie strictly inside (0, 1)")
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
    logits = build_mixed_logits(mixed_queries, keys, queue, mix_temperature)
    targets = build_mixed_targets(lambdas, keys.shape[0], queue.shape[0])
    value, grad_logits = soft_cross_entropy(logits, targets)
    negatives = np.concatenate([as_matrix(keys), as_matrix(queue)], axis=0)
    return LossResult(value, (grad_logits @ negatives) / mix_temperature)


def total_loss(l_contrast: float, l_mixed: float, mix_weight: float) -> float:
    """Combined objective: contrastive term plus mix_weight times the mixed term."""
    if mix_weight < 0.0:
        raise ConfigurationError(f"mix weight must be >= 0, got {mix_weight}")
    return l_contrast + mix_weight * l_mixed
