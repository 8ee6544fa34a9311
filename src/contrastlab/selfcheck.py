"""Built-in gradient-verification suite.

Runs central finite differences against the analytic gradients of every loss
and of the training step itself, on a fixed set of seeded random instances.
A step case differentiates `training._loss_and_grads`, the function
`pretrain` calls, wrt the query encoder's parameter vector, in each of the
four modes. Used by `contrastlab gradcheck` and by the acceptance tests.
"""

import numpy as np

from .contrastive import infonce_loss, mixed_query_loss, mixup_half_batch, simclr_contrastive_loss
from .encoder import EncoderParams, encode, init_encoder
from .errors import ConfigurationError
from .moco import init_moco
from .numerics import (
    GradCheckReport,
    finite_difference_check,
    l2_normalize_rows,
    seeded_rng,
    spawn_rngs,
)
from .training import RunConfig, _loss_and_grads, total_loss


def _unit_rows(rng, rows, cols):
    return l2_normalize_rows(rng.normal(size=(rows, cols)))


def _contrastive_case(seed: int, b: int, k: int, c: int, tau: float):
    rng = seeded_rng(seed)
    queries = _unit_rows(rng, b, c)
    keys = _unit_rows(rng, b, c)
    queue = _unit_rows(rng, k, c) if k else np.zeros((0, c))

    def f(v):
        res = infonce_loss(v.reshape(b, c), keys, queue, tau)
        return res.value, res.grad.ravel()

    return f, queries.ravel()


def _simclr_case(seed: int, b: int, c: int, tau: float):
    rng = seeded_rng(seed)
    queries = _unit_rows(rng, b, c)
    keys = _unit_rows(rng, b, c)

    def f(v):
        res = simclr_contrastive_loss(v.reshape(b, c), keys, tau)
        return res.value, res.grad_queries.ravel()

    return f, queries.ravel()


def _mixed_case(seed: int, b: int, k: int, c: int, tau_mix: float):
    rng = seeded_rng(seed)
    mixed = _unit_rows(rng, b // 2, c)
    keys = _unit_rows(rng, b, c)
    queue = _unit_rows(rng, k, c) if k else np.zeros((0, c))
    lam = rng.uniform(0.05, 0.95, b // 2)

    def f(v):
        res = mixed_query_loss(v.reshape(b // 2, c), keys, queue, lam, tau_mix)
        return res.value, res.grad.ravel()

    return f, mixed.ravel()


def _step_case(mode: str, seed: int, b: int, k: int, mix_weight: float):
    """`training._loss_and_grads`'s total loss as a function of a [5, 6, 4]
    query encoder's parameter vector, the mixing stream re-seeded on every
    call. A start point where an encoded row has zero norm, at which row
    normalisation is not differentiable, raises ConfigurationError."""
    config = RunConfig(mode=mode, batch_size=b, queue_size=k, input_dim=5, hidden_dims=(6,),
                       embed_dim=4, mix_weight=mix_weight, seed=seed)
    rng, _ = spawn_rngs(seed, 2)

    def mix_stream():  # the same coefficients on every call
        return spawn_rngs(seed, 2)[1]

    state = None
    if config.uses_queue:
        state = init_moco(config.layer_sizes, k, config.ema_momentum, rng)
        params0 = state.query
    else:
        params0 = init_encoder(config.layer_sizes, rng)
    x_query, x_key = rng.normal(size=(2, b, config.input_dim))
    rows = [x_query, x_key]
    if config.mixes:
        rows.append(mixup_half_batch(x_query, mix_stream())[0])
    if encode(params0, np.concatenate(rows))[1].degenerate_rows.any():
        raise ConfigurationError(f"step case {mode} seed {seed}: an encoded row has zero norm")

    def f(vector):
        params = EncoderParams(config.layer_sizes, vector)
        l_contrast, l_mix, grads, _ = _loss_and_grads(config, params, state, x_query, x_key,
                                                      mix_stream())
        return total_loss(l_contrast, l_mix, mix_weight), grads

    return f, params0.vector


# (mode, seed, B, K, mix weight). Seed 409 replaces 401, where one row's output
# does not depend on a hidden unit's weights (exact gradient 0, roundoff 1e-16
# reads 1.4e-4); 415 replaces 407, where an encoded row has zero norm.
STEP_CASES = [
    ("moco", 400, 4, 4, 1.0), ("moco", 409, 4, 8, 1.0),
    ("moco+mix", 402, 4, 8, 1.0), ("moco+mix", 403, 6, 6, 0.5),
    ("simclr", 404, 4, 0, 1.0), ("simclr", 405, 6, 0, 1.0),
    ("simclr+mix", 406, 4, 0, 1.0), ("simclr+mix", 415, 6, 0, 0.5),
]


def gradient_suite(step: float = 1e-5) -> list[tuple[str, GradCheckReport]]:
    """Run every configured check; returns (name, report) pairs."""
    cases = []
    for i, (b, k, c) in enumerate([(2, 2, 2), (4, 4, 3), (4, 8, 8), (8, 4, 5), (6, 6, 4), (8, 8, 2), (8, 512, 8)]):
        cases.append((f"contrastive b{b} k{k} c{c}", *_contrastive_case(100 + i, b, k, c, 0.2)))
    for i, (b, c) in enumerate([(2, 2), (4, 4), (5, 3), (8, 8), (6, 5)]):
        cases.append((f"simclr b{b} c{c}", *_simclr_case(200 + i, b, c, 0.2)))
    for i, (b, k, c) in enumerate([(2, 2, 2), (4, 2, 4), (4, 8, 3), (8, 8, 8), (6, 4, 6), (8, 0, 4), (8, 512, 8)]):
        cases.append((f"mixed b{b} k{k} c{c}", *_mixed_case(300 + i, b, k, c, 0.05)))
    for mode, seed, b, k, mix_weight in STEP_CASES:
        cases.append((f"step {mode} b{b} k{k} w{mix_weight:g}",
                      *_step_case(mode, seed, b, k, mix_weight)))
    return [(name, finite_difference_check(f, point, step)) for name, f, point in cases]


def worst_relative_error(results: list[tuple[str, GradCheckReport]]) -> float:
    return max(report.max_relative_error for _, report in results)
