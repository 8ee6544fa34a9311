"""Contrastive objectives: InfoNCE against a key queue (MoCo), the
in-batch-negatives loss (SimCLR), and the mixed-query soft-target loss added
to either.

For a query row the two base methods differ only in their negatives: MoCo's
are the queue, SimCLR's are the other batch keys. One private kernel,
`_contrast`, computes every loss from one logits layout, rows [queries; mixed
queries] against columns [batch keys; queue]. With a queue, a query row's
other batch keys are masked out and the keys, which come from the EMA
encoder, are constants. Without one, the batch keys are the negatives, both
views train, and the kernel also returns the key gradient. The three public
losses (`infonce_loss`, `simclr_contrastive_loss`, `mixed_query_loss`) check
their operands, raising ConfigurationError, and call the kernel; the training
step calls it directly, on operands its config has checked, and alone
computes the simclr+mix term. A non-finite loss raises DivergedRunError.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergedRunError
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


def _half_batch(b: int) -> int:
    if b < 2 or b % 2:
        raise ConfigurationError(f"batch size must be even and >= 2, got {b}")
    return b // 2


def _mix(x: Tensor, lam: Tensor) -> Tensor:
    half = lam.size
    lam = lam[:, None]
    return lam * x[:half] + (1.0 - lam) * x[half:]


def mixup_half_batch(x: Tensor, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """Mix the front half of the batch with the back half, lambda ~ Unif(0, 1).

    Returns (x_mix, lambdas): row i of x_mix is lambdas[i] * x[i] +
    (1 - lambdas[i]) * x[i + B/2]. One coefficient is drawn per mixed row;
    exact zeros are redrawn so every lambda lies in the open interval. `x`
    must be a float64 matrix with an even number of rows; it is not checked
    (the training step calls this on every batch, and `RunConfig` has checked
    the batch size).
    """
    lam = rng.random(x.shape[0] // 2)
    while (lam == 0.0).any():
        zero = lam == 0.0
        lam[zero] = rng.random(int(zero.sum()))
    return _mix(x, lam), lam


def _check_temperature(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:  # NaN fails too
        raise ConfigurationError(f"{name} must be finite and positive, got {value}")


def _query_operands(queries, keys, temperature: float) -> tuple[Tensor, Tensor]:
    _check_temperature("temperature", temperature)
    queries, keys = as_matrix(queries, "queries"), as_matrix(keys, "keys")
    if keys.shape != queries.shape:
        raise ConfigurationError(f"keys {keys.shape} do not match queries {queries.shape}")
    return queries, keys


def _mixed_operands(mixed_queries, keys, lambdas, mix_temperature: float):
    """The mixed rows, the B keys and the coefficients, checked together."""
    _check_temperature("mix temperature", mix_temperature)
    mixed_queries, keys = as_matrix(mixed_queries, "mixed queries"), as_matrix(keys, "keys")
    half, c = _half_batch(keys.shape[0]), keys.shape[1]
    if mixed_queries.shape != (half, c):
        raise ConfigurationError(f"need {half} mixed queries of width {c}, got {mixed_queries.shape}")
    lam = as_f64(lambdas)
    if lam.shape != (half,):
        raise ConfigurationError(f"need {half} coefficients, got shape {lam.shape}")
    if (lam <= 0.0).any() or (lam >= 1.0).any():
        raise ConfigurationError("mixing coefficients must lie strictly inside (0, 1)")
    return mixed_queries, keys, lam


def _queue_operand(queue, keys: Tensor) -> Tensor:
    queue = as_matrix(queue, "queue")
    if queue.shape[1] != keys.shape[1]:
        raise ConfigurationError(f"queue width {queue.shape[1]} != embedding dim {keys.shape[1]}")
    return queue


def _require_finite(loss: str, value: float, *grads: Tensor) -> None:
    """Any NaN or infinity in the logits reaches the value or the gradient."""
    if not (math.isfinite(value) and all(np.isfinite(g).all() for g in grads)):
        raise DivergedRunError(f"non-finite {loss} loss")


@dataclass
class _Contrast:
    """Both terms' values (0.0 for an empty row block), the gradient wrt the
    stacked [queries; mixed] rows, and without a queue the key gradient."""

    contrast: float
    mixed: float
    grad: Tensor
    grad_keys: Tensor | None


@functools.lru_cache(maxsize=16)
def _index_plan(nq: int, half: int) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """`_contrast`'s read-only index arrays for nq query rows and half mixed
    rows: all rows, the query rows, and each row's first and second target
    column (a query row's are both its own key)."""
    rows = np.arange(nq + half)
    own = rows[:nq]
    first = np.concatenate([own, rows[:half]])
    second = np.concatenate([own, rows[:half] + half])
    for index in (rows, own, first, second):
        index.flags.writeable = False
    return rows, own, first, second


def _contrast(queries: Tensor, keys: Tensor, queue: Tensor | None, temperature: float,
              mixed: Tensor, lambdas: Tensor, mix_temperature: float,
              mix_weight: float = 1.0) -> _Contrast:
    """The contrastive term of `queries` and the mixed-query term of `mixed`
    from one logits buffer: rows [queries; mixed], each divided by its
    term's temperature, against columns [keys; queue] (the keys alone when
    `queue` is None). Either row block may be empty.

    Query row i targets key i. With a queue its other batch keys are set to
    -inf, so only k_i and the queue enter its softmax (InfoNCE); without one
    they are its negatives (SimCLR). Mixed row m targets key m with weight
    lambdas[m] and key m + B/2 with 1 - lambdas[m], against every column.
    The mixed rows' gradient, and their share of the key gradient, are
    scaled by mix_weight.

    Operands are not checked here, so the training step pays for no checks:
    the public losses check theirs, and `RunConfig` the step's. A non-finite
    value or gradient raises DivergedRunError naming its term.
    """
    (b, c), nq, half = keys.shape, queries.shape[0], mixed.shape[0]
    rows, own, first, second = _index_plan(nq, half)
    scaled = np.empty((rows.size, c))
    np.divide(queries, temperature, out=scaled[:nq])
    np.divide(mixed, mix_temperature, out=scaled[nq:])
    logits = np.empty((rows.size, b + (0 if queue is None else queue.shape[0])))
    np.matmul(scaled, keys.T, out=logits[:, :b])
    if queue is not None:
        np.matmul(scaled, queue.T, out=logits[:, b:])
        positives = logits[own, own]
        logits[:nq, :b] = -np.inf
        logits[own, own] = positives
    # row r credits weight[r] to column first[r] and rest[r] to second[r]
    weight = np.empty(rows.size)
    weight[:nq] = 1.0
    weight[nq:] = lambdas
    rest = 1.0 - weight
    picked = weight * logits[rows, first] + rest * logits[rows, second]
    peak = logits.max(axis=1, keepdims=True)
    np.subtract(logits, peak, out=logits)
    np.exp(logits, out=logits)
    total = logits.sum(axis=1)
    losses = peak[:, 0] + np.log(total) - picked
    # softmax - targets, each row times d(term mean)/d(logit); max(., 1)
    # keeps an empty block's unused factor finite
    scale = np.full(rows.size, 1.0 / (max(nq, 1) * temperature))
    scale[nq:] = mix_weight / (max(half, 1) * mix_temperature)
    np.multiply(logits, (scale / total)[:, None], out=logits)
    logits[rows, first] -= weight * scale
    logits[rows, second] -= rest * scale

    grad = logits[:, :b] @ keys
    grad_keys = None
    if queue is None:
        grad_keys = logits[:nq].T @ queries + logits[nq:].T @ mixed
    else:
        grad += logits[:, b:] @ queue
    # sum / n: the bits of `mean`, without its overhead
    contrast = float(losses[:nq].sum() / nq) if nq else 0.0
    mixed_value = float(losses[nq:].sum() / half) if half else 0.0
    term = "InfoNCE" if queue is not None else "SimCLR"
    _require_finite(term, contrast, grad[:nq])
    _require_finite("mixed-query", mixed_value, grad[nq:])
    if grad_keys is not None:
        _require_finite("mixed-query" if half else term, 0.0, grad_keys)
    return _Contrast(contrast, mixed_value, grad, grad_keys)


def infonce_loss(queries: Tensor, keys: Tensor, queue: Tensor, temperature: float) -> LossResult:
    """Queue-negative InfoNCE: row i's positive is q_i . k_i, its negatives
    the K queue entries.

    Mean over rows of -log softmax(logits / temperature) at the positive.
    With an empty queue the softmax has a single entry, so the loss and its
    gradient are exactly 0.
    """
    queries, keys = _query_operands(queries, keys, temperature)
    queue = _queue_operand(queue, keys)
    res = _contrast(queries, keys, queue, temperature, keys[:0], np.empty(0), 1.0)
    return LossResult(res.contrast, res.grad)


def simclr_contrastive_loss(queries: Tensor, keys: Tensor, temperature: float) -> PairLossResult:
    """In-batch negatives: row i's positive is k_i, negatives are k_j, j != i.

    Mean over rows of -log softmax(q K^T / temperature)[i]. Gradients flow to
    both views.
    """
    queries, keys = _query_operands(queries, keys, temperature)
    if queries.shape[0] < 2:
        raise ConfigurationError(
            f"need a batch of >= 2 for in-batch negatives, got {queries.shape[0]}")
    res = _contrast(queries, keys, None, temperature, keys[:0], np.empty(0), 1.0)
    return PairLossResult(res.contrast, res.grad, res.grad_keys)


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
    mixed_queries, keys, lam = _mixed_operands(mixed_queries, keys, lambdas, mix_temperature)
    queue = _queue_operand(queue, keys)
    res = _contrast(keys[:0], keys, queue, 1.0, mixed_queries, lam, mix_temperature)
    return LossResult(res.mixed, res.grad)


def total_loss(l_contrast: float, l_mixed: float, mix_weight: float) -> float:
    """Combined objective: contrastive term plus mix_weight times the mixed term."""
    return l_contrast + mix_weight * l_mixed
