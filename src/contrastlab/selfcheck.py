"""Built-in gradient-verification suite.

Runs central finite differences against the analytic gradients of every loss,
including the full composite objective backpropagated through an encoder, on
a fixed set of seeded random instances. Used by `contrastlab gradcheck` and
by the acceptance tests.
"""

import numpy as np

from .contrastive import infonce_loss, mixed_query_loss, simclr_contrastive_loss
from .encoder import (
    EncoderParams,
    add_scaled,
    encode,
    encoder_backward,
    init_encoder,
)
from .numerics import GradCheckReport, finite_difference_check, l2_normalize_rows, seeded_rng


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


def _composite_case(seed: int, b: int, k: int, tau: float, tau_mix: float, mix_weight: float):
    """Total objective as a function of the encoder's parameter vector."""
    rng = seeded_rng(seed)
    layer_sizes = [5, 6, 4]
    params0 = init_encoder(layer_sizes, rng)
    x_query = rng.normal(size=(b, layer_sizes[0]))
    x_key = rng.normal(size=(b, layer_sizes[0]))
    queue = _unit_rows(rng, k, layer_sizes[-1])
    lam = rng.uniform(0.05, 0.95, b // 2)
    x_mixed = lam[:, None] * x_query[: b // 2] + (1.0 - lam)[:, None] * x_query[b // 2 :]
    keys = encode(params0, x_key)[0]  # fixed key embeddings: no grad flows to them

    def f(vec):
        params = EncoderParams(layer_sizes, vec)
        v_query, trace_query = encode(params, x_query)
        v_mixed, trace_mixed = encode(params, x_mixed)
        contrast = infonce_loss(v_query, keys, queue, tau)
        mix = mixed_query_loss(v_mixed, keys, queue, lam, tau_mix)
        grads, _ = encoder_backward(params, trace_query, contrast.grad)
        mix_grads, _ = encoder_backward(params, trace_mixed, mix.grad)
        grads = add_scaled(grads, mix_grads, mix_weight)
        return contrast.value + mix_weight * mix.value, grads

    return f, params0.vector


def gradient_suite(step: float = 1e-5) -> list[tuple[str, GradCheckReport]]:
    """Run every configured check; returns (name, report) pairs."""
    cases = []
    for i, (b, k, c) in enumerate([(2, 2, 2), (4, 4, 3), (4, 8, 8), (8, 4, 5), (6, 6, 4), (8, 8, 2), (8, 512, 8)]):
        cases.append((f"contrastive b{b} k{k} c{c}", *_contrastive_case(100 + i, b, k, c, 0.2)))
    for i, (b, c) in enumerate([(2, 2), (4, 4), (5, 3), (8, 8), (6, 5)]):
        cases.append((f"simclr b{b} c{c}", *_simclr_case(200 + i, b, c, 0.2)))
    for i, (b, k, c) in enumerate([(2, 2, 2), (4, 2, 4), (4, 8, 3), (8, 8, 8), (6, 4, 6), (8, 0, 4), (8, 512, 8)]):
        cases.append((f"mixed b{b} k{k} c{c}", *_mixed_case(300 + i, b, k, c, 0.05)))
    for i, (b, k) in enumerate([(4, 4), (4, 8), (6, 6), (8, 4)]):
        cases.append((f"composite b{b} k{k}", *_composite_case(400 + i, b, k, 0.2, 0.05, 1.0)))
    return [(name, finite_difference_check(f, point, step)) for name, f, point in cases]


def worst_relative_error(results: list[tuple[str, GradCheckReport]]) -> float:
    return max(report.max_relative_error for _, report in results)
