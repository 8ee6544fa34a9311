"""Built-in gradient-verification suite.

Runs central finite differences against the analytic gradients of every loss
and of the training step itself, on a fixed set of seeded random instances.
A step case differentiates `training._loss_and_grads`, the function
`pretrain` calls, wrt the query encoder's parameter vector, in each of the
four modes. Used by `contrastlab gradcheck` and by the acceptance tests.
"""

import numpy as np

from .contrastive import contrast, mixup_half_batch
from .encoder import EncoderParams, encode, init_encoder
from .errors import ConfigurationError
from .moco import init_moco
from .numerics import (
    DEFAULT_NORM_EPS,
    GradCheckReport,
    finite_difference_check,
    l2_normalize_rows,
    seeded_rng,
    spawn_rngs,
)
from .training import RunConfig, _loss_and_grads


def _unit_rows(rng, rows, cols):
    return l2_normalize_rows(rng.normal(size=(rows, cols)))


def _loss_case(seed: int, b: int, k: int | None, c: int, mix: bool):
    """`contrastive.contrast` as a function of its B query rows (InfoNCE
    against a queue of k rows, or SimCLR when k is None) or, with `mix`, of
    its B/2 mixed rows alone, at temperature 0.2 and mix temperature 0.05."""
    rng = seeded_rng(seed)
    point = _unit_rows(rng, b // 2 if mix else b, c)
    keys = _unit_rows(rng, b, c)
    queue = None if k is None else _unit_rows(rng, k, c)
    lam = rng.uniform(0.05, 0.95, b // 2) if mix else np.empty(0)

    def f(v):
        rows = v.reshape(point.shape)
        queries, mixed = (keys[:0], rows) if mix else (rows, keys[:0])
        res = contrast(queries, keys, queue, 0.2, mixed, lam, 0.05)
        return res.mixed if mix else res.contrast, res.grad.ravel()

    return f, point.ravel()


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
    _, trace = encode(params0, np.concatenate(rows))
    if (trace.guarded_norms <= DEFAULT_NORM_EPS).any():
        raise ConfigurationError(f"step case {mode} seed {seed}: an encoded row has zero norm")

    def f(vector):
        params = EncoderParams(config.layer_sizes, vector)
        l_contrast, l_mix, grads, _ = _loss_and_grads(config, params, state, x_query, x_key,
                                                      mix_stream())
        return l_contrast + mix_weight * l_mix, grads

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


def gradient_suite() -> list[tuple[str, GradCheckReport]]:
    """Run every configured check at finite-difference step 1e-5; returns
    (name, report) pairs."""
    cases = []
    for i, (b, k, c) in enumerate([(2, 2, 2), (4, 4, 3), (4, 8, 8), (8, 4, 5), (6, 6, 4), (8, 8, 2), (8, 512, 8)]):
        cases.append((f"contrastive b{b} k{k} c{c}", *_loss_case(100 + i, b, k, c, False)))
    for i, (b, c) in enumerate([(2, 2), (4, 4), (5, 3), (8, 8), (6, 5)]):
        cases.append((f"simclr b{b} c{c}", *_loss_case(200 + i, b, None, c, False)))
    for i, (b, k, c) in enumerate([(2, 2, 2), (4, 2, 4), (4, 8, 3), (8, 8, 8), (6, 4, 6), (8, 0, 4), (8, 512, 8)]):
        cases.append((f"mixed b{b} k{k} c{c}", *_loss_case(300 + i, b, k, c, True)))
    for mode, seed, b, k, mix_weight in STEP_CASES:
        cases.append((f"step {mode} b{b} k{k} w{mix_weight:g}",
                      *_step_case(mode, seed, b, k, mix_weight)))
    return [(name, finite_difference_check(f, point, 1e-5)) for name, f, point in cases]


def worst_relative_error(results: list[tuple[str, GradCheckReport]]) -> float:
    return max(report.max_relative_error for _, report in results)
