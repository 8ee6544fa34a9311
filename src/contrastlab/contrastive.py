"""Contrastive objectives: InfoNCE against a key queue (MoCo), the
in-batch-negatives loss (SimCLR), and the mixed-query soft-target loss added
to either.

For a query row the two base methods differ only in their negatives: MoCo's
are the queue, SimCLR's are the other batch keys. One function, `contrast`,
computes every loss from one logits layout, rows [queries; mixed queries]
against columns [batch keys; queue]. With a queue, a query row's other batch
keys are masked out and the keys, which come from the EMA encoder, are
constants. Without one, the batch keys are the negatives, both views train,
and it also returns the key gradient. `contrast` checks no operand; the
training step calls it on operands its config has checked. `infonce_loss`
and `mixed_query_loss` check theirs, raising ConfigurationError, and call
it. A non-finite loss raises DivergedRunError.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergedRunError
from .numerics import Tensor, as_f64, as_matrix


def _mix(x: Tensor, lam: Tensor) -> Tensor:
    half = lam.size
    lam = lam[:, None]
    return lam * x[:half] + (1.0 - lam) * x[half:]


def mixup_half_batch(x: Tensor, rng: "np.random.Generator") -> tuple[Tensor, Tensor]:
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
class Contrast:
    """Both terms' values (0.0 for an empty row block), the gradient wrt the
    stacked [queries; mixed] rows, and without a queue the key gradient."""

    contrast: float
    mixed: float
    grad: Tensor
    grad_keys: Tensor | None


def contrast(queries: Tensor, keys: Tensor, queue: Tensor | None, temperature: float,
             mixed: Tensor, lambdas: Tensor, mix_temperature: float,
             mix_weight: float = 1.0, helper=None) -> Contrast:
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

    Between the batch-key products, which see every row, each row's work is
    its own: the queue product, the mask and positive restore, the softmax
    passes, the scale, the targets and the queue's gradient product. One
    inner function does it for a row range, on every row at once, unless a
    `helper` is given: a callable helper(here, there) that runs `there` on a
    second thread while this one runs `here`, and raises what either raised. Then the rows split at rows // 2 into two halves that
    write disjoint rows of every buffer. `training.pretrain` passes one only
    where the halves' products give the bits of the whole ones.

    Nothing is checked, so the training step, whose operands `RunConfig`
    has checked, pays for no checks. The caller ensures that every operand
    is a float64 array (none is written to); `keys` is (B, C); `queries` is
    (nq, C) with nq <= B; `queue` is (K, C) or None; `mixed` is (B/2, C) with
    B even, or has no rows; `lambdas` holds one coefficient per mixed row,
    strictly inside (0, 1); both temperatures are finite and positive, and
    mix_weight finite and >= 0. `infonce_loss` and `mixed_query_loss` check
    their operands and call this. A non-finite value or gradient raises
    DivergedRunError naming its term.
    """
    (b, c), nq, half = keys.shape, queries.shape[0], mixed.shape[0]
    rows, width = nq + half, b + (0 if queue is None else queue.shape[0])
    scaled = np.empty((rows, c))
    np.divide(queries, temperature, out=scaled[:nq])
    np.divide(mixed, mix_temperature, out=scaled[nq:])
    flat = np.empty(rows * width)
    logits = flat.reshape(rows, width)
    # writable strided views of the targets: query row i at column i, mixed
    # row m at columns m and m + B/2
    own = flat[: nq * (width + 1) : width + 1]
    first = flat[nq * width :: width + 1][:half]
    second = flat[nq * width + half :: width + 1][:half]
    np.matmul(scaled, keys.T, out=logits[:, :b])
    rest = 1.0 - lambdas
    picked = np.concatenate([own, lambdas * first + rest * second])
    # softmax - targets, each row times d(term mean)/d(logit); max(., 1)
    # keeps an empty block's unused factor finite
    scale = np.full(rows, 1.0 / (max(nq, 1) * temperature))
    scale[nq:] = mix_weight / (max(half, 1) * mix_temperature)
    losses, grad = np.empty(rows), np.empty((rows, c))

    def row_range(lo, hi):
        block, q_hi = logits[lo:hi], max(min(hi, nq), lo)
        mixed_rows = slice(max(lo, nq) - nq, max(hi, nq) - nq)
        if queue is not None:
            np.matmul(scaled[lo:hi], queue.T, out=block[:, b:])
            block[: q_hi - lo, :b] = -np.inf
            own[lo:q_hi] = picked[lo:q_hi]
        peak = block.max(axis=1, keepdims=True)
        np.subtract(block, peak, out=block)
        np.exp(block, out=block)
        total = block.sum(axis=1)
        losses[lo:hi] = peak[:, 0] + np.log(total) - picked[lo:hi]
        np.multiply(block, (scale[lo:hi] / total)[:, None], out=block)
        own[lo:q_hi] -= scale[lo:q_hi]
        mixed_scale = scale[nq:][mixed_rows]
        first[mixed_rows] -= lambdas[mixed_rows] * mixed_scale
        second[mixed_rows] -= rest[mixed_rows] * mixed_scale
        if queue is not None:
            np.matmul(block[:, b:], queue, out=grad[lo:hi])

    if helper is None:
        row_range(0, rows)
    else:
        cut = rows // 2
        helper(lambda: row_range(0, cut), lambda: row_range(cut, rows))
    grad_keys = None
    if queue is None:
        np.matmul(logits, keys, out=grad)
        grad_keys = logits[:nq].T @ queries + logits[nq:].T @ mixed
    else:
        # whole, not per half: a (rows x B) @ (B x C) product is small enough
        # for OpenBLAS's small-matrix kernel, whose sums can depend on the
        # row count; added second, it gives the bits of the sum in either order
        grad += logits[:, :b] @ keys
    # sum / n: the bits of `mean`, without its overhead
    contrast_value = float(losses[:nq].sum() / nq) if nq else 0.0
    mixed_value = float(losses[nq:].sum() / half) if half else 0.0
    term = "InfoNCE" if queue is not None else "SimCLR"
    _require_finite(term, contrast_value, grad[:nq])
    _require_finite("mixed-query", mixed_value, grad[nq:])
    if grad_keys is not None:
        _require_finite("mixed-query" if half else term, 0.0, grad_keys)
    return Contrast(contrast_value, mixed_value, grad, grad_keys)


def infonce_loss(queries: Tensor, keys: Tensor, queue: Tensor, temperature: float) -> Contrast:
    """`contrast` of the queries alone against a queue, operands checked:
    queue-negative InfoNCE, where row i's positive is q_i . k_i and its
    negatives are the K queue entries.

    Mean over rows of -log softmax(logits / temperature) at the positive,
    in `.contrast`, with its query gradient in `.grad`. With an empty queue
    the softmax has a single entry, so the loss and its gradient are
    exactly 0.
    """
    _check_temperature("temperature", temperature)
    queries, keys = as_matrix(queries, "queries"), as_matrix(keys, "keys")
    if keys.shape != queries.shape:
        raise ConfigurationError(f"keys {keys.shape} do not match queries {queries.shape}")
    queue = _queue_operand(queue, keys)
    return contrast(queries, keys, queue, temperature, keys[:0], np.empty(0), 1.0)


def mixed_query_loss(
    mixed_queries: Tensor,
    keys: Tensor,
    queue: Tensor,
    lambdas,
    mix_temperature: float,
) -> Contrast:
    """`contrast` of the mixed queries alone against batch keys plus the
    queue, operands checked: the soft-target cross-entropy in `.mixed`, its
    gradient wrt the mixed queries in `.grad`. Keys and queue entries are
    constants (the moco contract: keys come from the EMA encoder).
    """
    _check_temperature("mix temperature", mix_temperature)
    mixed_queries, keys = as_matrix(mixed_queries, "mixed queries"), as_matrix(keys, "keys")
    b, c = keys.shape
    if b < 2 or b % 2:
        raise ConfigurationError(f"batch size must be even and >= 2, got {b}")
    half = b // 2
    if mixed_queries.shape != (half, c):
        raise ConfigurationError(f"need {half} mixed queries of width {c}, got {mixed_queries.shape}")
    lam = as_f64(lambdas)
    if lam.shape != (half,):
        raise ConfigurationError(f"need {half} coefficients, got shape {lam.shape}")
    if (lam <= 0.0).any() or (lam >= 1.0).any():
        raise ConfigurationError("mixing coefficients must lie strictly inside (0, 1)")
    queue = _queue_operand(queue, keys)
    return contrast(keys[:0], keys, queue, 1.0, mixed_queries, lam, mix_temperature)
