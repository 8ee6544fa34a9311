"""Contrastive objectives: InfoNCE against a key queue, the in-batch-negatives
(SimCLR) loss, and the mixed-query soft-target loss.

Every loss returns its value with analytic gradients, and all of them share
one sparse-target soft cross-entropy kernel. Against a queue (the moco modes)
the keys come from the EMA encoder and are constants: InfoNCE and the
mixed-query loss are both computed by `queue_losses`, with gradients wrt the
query-side rows only. In batch (the simclr modes) both views train: the
SimCLR loss and the mixed term against the batch keys share one kernel that
returns gradients to the queries and to the keys.
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
    queue the softmax has a single entry, so the loss and its gradient are
    exactly 0.
    """
    res = queue_losses(queries, keys, queue, temperature)
    return LossResult(res.infonce, res.grad)


def _infonce_operands(queries, keys: Tensor, temperature: float) -> Tensor:
    if temperature <= 0.0:
        raise ConfigurationError(f"temperature must be positive, got {temperature}")
    queries = as_matrix(queries, "queries")
    if keys.shape != queries.shape:
        raise DimensionError(f"keys {keys.shape} do not match queries {queries.shape}")
    return queries


def _mixed_operands(mixed_queries, keys: Tensor, lambdas, mix_temperature: float):
    """The mixed rows and their coefficients, checked against the B keys."""
    if mix_temperature <= 0.0:
        raise ConfigurationError(f"mix temperature must be positive, got {mix_temperature}")
    mixed_queries = as_matrix(mixed_queries, "mixed queries")
    (b, c), half = keys.shape, keys.shape[0] // 2
    if b < 2 or b % 2:
        raise ConfigurationError(f"batch size must be even and >= 2, got {b}")
    if mixed_queries.shape != (half, c):
        raise DimensionError(f"need {half} mixed queries of width {c}, got {mixed_queries.shape}")
    lam = as_f64(lambdas)
    if lam.shape != (half,):
        raise DimensionError(f"need {half} coefficients, got shape {lam.shape}")
    if (lam <= 0.0).any() or (lam >= 1.0).any():
        raise ContractError("mixing coefficients must lie strictly inside (0, 1)")
    return mixed_queries, lam


def _mixed_targets(lam: Tensor):
    """Mixed row i credits lambda_i to key i and 1 - lambda_i to key i + B/2."""
    cols = np.arange(lam.size)
    return [(cols, lam), (cols + lam.size, 1.0 - lam)]


def _in_batch_loss(queries: Tensor, keys: Tensor, temperature: float, targets,
                   term: str) -> PairLossResult:
    """Soft cross-entropy of the rows of queries . keys^T / temperature against
    sparse `targets`, with gradients wrt both the queries and the keys."""
    n = queries.shape[0]
    logits = (queries / temperature) @ keys.T
    value = _soft_cross_entropy(logits, targets)
    grad_queries = logits @ keys / (n * temperature)
    grad_keys = logits.T @ queries / (n * temperature)
    _require_finite(term, value, grad_queries, grad_keys)
    return PairLossResult(value, grad_queries, grad_keys)


def simclr_contrastive_loss(queries: Tensor, keys: Tensor, temperature: float) -> PairLossResult:
    """In-batch negatives: row i's positive is k_i, negatives are k_j, j != i.

    Mean over rows of -log softmax(q K^T / temperature)[i]. Gradients flow to
    both views.
    """
    keys = as_matrix(keys, "keys")
    queries = _infonce_operands(queries, keys, temperature)
    b = queries.shape[0]
    if b < 2:
        raise ConfigurationError(f"need a batch of >= 2 for in-batch negatives, got {b}")
    return _in_batch_loss(queries, keys, temperature, [(np.arange(b), 1.0)], "SimCLR")


def mixed_in_batch_loss(
    mixed_queries: Tensor, keys: Tensor, lambdas, mix_temperature: float
) -> PairLossResult:
    """The mixed-query loss against the B batch keys alone: the simclr modes'
    mixed term. There the keys come from the trainable encoder, so gradients
    flow to both the mixed queries and the keys.
    """
    keys = as_matrix(keys, "keys")
    mixed_queries, lam = _mixed_operands(mixed_queries, keys, lambdas, mix_temperature)
    return _in_batch_loss(mixed_queries, keys, mix_temperature, _mixed_targets(lam),
                          "mixed-query")


def mixed_query_loss(
    mixed_queries: Tensor,
    keys: Tensor,
    queue: Tensor,
    lambdas,
    mix_temperature: float,
) -> LossResult:
    """Soft-target cross-entropy of mixed queries against batch keys plus the
    queue. Keys and queue entries are constants (the moco contract: keys come
    from the EMA encoder); the gradient is wrt the mixed queries only.
    """
    res = queue_losses(None, keys, queue, None, mixed_queries, lambdas, mix_temperature)
    return LossResult(res.mixed, res.grad)


@dataclass
class QueueLossResult:
    """InfoNCE and mixed-query values and the gradient wrt the stacked
    [queries; mixed queries] rows."""

    infonce: float
    mixed: float
    grad: Tensor


def queue_losses(
    queries: Tensor | None,
    keys: Tensor,
    queue: Tensor,
    temperature: float | None,
    mixed_queries: Tensor | None = None,
    lambdas=None,
    mix_temperature: float | None = None,
) -> QueueLossResult:
    """InfoNCE of `queries` and the mixed-query loss of `mixed_queries`
    against the B batch keys and the K-entry queue, from one stacked logits
    buffer, so that one queue product each way serves both terms. Either
    term may be None (its value is then 0.0).

    The buffer holds the B query rows, then the B/2 mixed rows. A query row
    holds its positive q_i . k_i and then the queue, from column B - 1 (from
    column 0 without mixed rows); a mixed row holds the batch keys in columns
    0..B-1 (targets lambda_i at i, 1 - lambda_i at i + B/2), then the queue.
    """
    keys = as_matrix(keys, "keys")
    queue = as_matrix(queue, "queue")
    (b, c), k = keys.shape, queue.shape[0]
    if queue.shape[1] != c:
        raise DimensionError(f"queue width {queue.shape[1]} != embedding dim {c}")
    n_query = half = 0
    if queries is not None:
        queries = _infonce_operands(queries, keys, temperature)
        n_query = b
    if mixed_queries is not None:
        mixed_queries, lam = _mixed_operands(mixed_queries, keys, lambdas, mix_temperature)
        half = b // 2
    n = n_query + half
    first = b if half else 1  # first queue column; a query row's positive sits before it
    scaled = np.empty((n, c))
    if n_query:
        np.divide(queries, temperature, out=scaled[:n_query])
    if half:
        np.divide(mixed_queries, mix_temperature, out=scaled[n_query:])
    logits = np.empty((n, first + k))
    np.matmul(scaled, queue.T, out=logits[:, first:])

    infonce = mixed = 0.0
    if n_query:
        own = logits[:n_query, first - 1 :]
        np.sum(scaled[:n_query] * keys[:n_query], axis=1, out=own[:, 0])
        infonce = _soft_cross_entropy(own, [(0, 1.0)])
    if half:
        own = logits[n_query:]
        np.matmul(scaled[n_query:], keys.T, out=own[:, :b])
        mixed = _soft_cross_entropy(own, _mixed_targets(lam))
    grad = logits[:, first:] @ queue

    if n_query:
        own = grad[:n_query]
        own += logits[:n_query, first - 1 : first] * keys
        own /= n_query * temperature
        _require_finite("InfoNCE", infonce, own)
    if half:
        own = grad[n_query:]
        own += logits[n_query:, :b] @ keys
        own /= half * mix_temperature
        _require_finite("mixed-query", mixed, own)
    return QueueLossResult(infonce, mixed, grad)


def total_loss(l_contrast: float, l_mixed: float, mix_weight: float) -> float:
    """Combined objective: contrastive term plus mix_weight times the mixed term."""
    return l_contrast + mix_weight * l_mixed
