"""MLP encoder with a projection-style output layer and unit-norm embeddings.

Forward and backward passes are handwritten. `encode` keeps per-layer
intermediates in a ForwardTrace so `encoder_backward` can return exact
gradients of the normalized output, normalization Jacobian included.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    DivergedRunError,
    FormatError,
)
from .fileio import LineReader, atomic_write, float_line
from .numerics import (
    DEFAULT_NORM_EPS,
    Tensor,
    as_f64,
    as_matrix,
    l2_normalize_rows_vjp,
)

ENCODER_MAGIC = "contrastlab-encoder 1"


def _checked_sizes(layer_sizes) -> list[int]:
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ConfigurationError(f"layer sizes must be >= 2 entries of >= 1, got {sizes}")
    return sizes


def _block_views(sizes: list[int], vector: Tensor) -> tuple[list[Tensor], list[Tensor]]:
    """(out x in) weight and bias views into a flat W0, b0, W1, b1, ... vector."""
    count = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes, sizes[1:]))
    if vector.shape != (count,):
        raise DimensionError(f"vector shape {vector.shape} does not match layer sizes {sizes}")
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(vector[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        biases.append(vector[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


@dataclass
class EncoderParams:
    """All weights (out x in) and biases in one flat float64 vector, laid out
    W0, b0, W1, b1, ...; `weights[l]` and `biases[l]` are views into it.

    Gradients and SGD velocity are plain vectors in the same layout.
    """

    layer_sizes: list[int]
    vector: Tensor
    weights: list[Tensor] = field(init=False, repr=False)
    biases: list[Tensor] = field(init=False, repr=False)

    def __post_init__(self):
        sizes = self.layer_sizes = _checked_sizes(self.layer_sizes)
        self.vector = as_f64(self.vector)
        self.weights, self.biases = _block_views(sizes, self.vector)
        if not np.isfinite(self.vector).all():
            raise ContractError("encoder parameters are not finite")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class ForwardTrace:
    """Intermediates retained by `encode` for the backward pass."""

    inputs: list[Tensor] = field(default_factory=list)  # activation feeding each layer
    pre_activations: list[Tensor] = field(default_factory=list)
    pre_norm: Tensor | None = None  # last affine output, before row normalization
    degenerate_rows: Tensor | None = None  # rows whose pre-norm norm <= eps


def init_encoder(layer_sizes, rng: np.random.Generator) -> EncoderParams:
    """Weights drawn N(0, 1/fan_in), biases zero."""
    sizes = _checked_sizes(layer_sizes)
    blocks = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        blocks += [rng.normal(0.0, fan_in**-0.5, size=fan_out * fan_in), np.zeros(fan_out)]
    return EncoderParams(sizes, np.concatenate(blocks))


def encode(params: EncoderParams, x: Tensor) -> tuple[Tensor, ForwardTrace]:
    """Affine layers with ReLU between them; output rows L2-normalized.

    Deterministic given (params, x). Rows whose final affine output has norm
    <= eps are divided by eps instead (zero rows stay zero) and flagged in
    the trace.
    """
    x = as_matrix(x)
    if x.shape[1] != params.input_dim:
        raise DimensionError(f"input width {x.shape[1]} != encoder input dim {params.input_dim}")
    trace = ForwardTrace()
    a = x
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        trace.inputs.append(a)
        z = a @ w.T + b
        trace.pre_activations.append(z)
        a = np.maximum(z, 0.0) if l < last else z
    norms = np.sqrt((a * a).sum(axis=1, keepdims=True))
    v = a / np.maximum(norms, DEFAULT_NORM_EPS)
    trace.pre_norm = a
    trace.degenerate_rows = (norms <= DEFAULT_NORM_EPS).ravel()
    return v, trace


def encoder_backward(
    params: EncoderParams, trace: ForwardTrace, grad_v: Tensor
) -> tuple[Tensor, Tensor]:
    """Exact gradients of the normalized output wrt all parameters (one flat
    vector in the parameter layout) and wrt the input.

    `trace` must come from an `encode` call with the same params.
    """
    n_layers = len(params.weights)
    if len(trace.inputs) != n_layers or trace.pre_norm is None:
        raise ContractError("trace does not match encoder parameters")
    for l in range(n_layers):
        if (
            trace.inputs[l].shape[1] != params.layer_sizes[l]
            or trace.pre_activations[l].shape[1] != params.layer_sizes[l + 1]
        ):
            raise ContractError(f"trace layer {l} widths do not match encoder parameters")
    grad_v = as_matrix(grad_v, "grad_v")
    if grad_v.shape != trace.pre_norm.shape:
        raise ContractError(
            f"grad shape {grad_v.shape} does not match encoder output {trace.pre_norm.shape}"
        )
    grads = np.empty_like(params.vector)
    grad_w, grad_b = _block_views(params.layer_sizes, grads)
    upstream = None
    for l in reversed(range(n_layers)):
        if l == n_layers - 1:
            gz = l2_normalize_rows_vjp(trace.pre_norm, grad_v)
        else:
            gz = upstream * (trace.pre_activations[l] > 0.0)
        np.matmul(gz.T, trace.inputs[l], out=grad_w[l])
        gz.sum(axis=0, out=grad_b[l])
        upstream = gz @ params.weights[l]
    return grads, upstream


def add_scaled(into: Tensor, other: Tensor, scale: float) -> Tensor:
    """into + scale * other, as a new vector."""
    return into + scale * other


def apply_sgd_step(
    params: EncoderParams,
    grads: Tensor,
    lr: float,
    momentum_coeff: float,
    weight_decay: float,
    velocity: Tensor,
) -> tuple[EncoderParams, Tensor]:
    """One momentum-SGD step; weight decay enters through the velocity.

    velocity <- momentum_coeff * velocity + grad + weight_decay * param
    param    <- param - lr * velocity

    A non-finite gradient raises DivergedRunError naming the first parameter
    block (W<l> or b<l>, in layout order) that holds one.
    """
    if lr < 0.0:
        raise ConfigurationError(f"lr must be >= 0, got {lr}")
    if not 0.0 <= momentum_coeff < 1.0:
        raise ConfigurationError(f"momentum must be in [0, 1), got {momentum_coeff}")
    if not np.isfinite(grads).all():
        grad_w, grad_b = _block_views(params.layer_sizes, grads)
        for l, (gw, gb) in enumerate(zip(grad_w, grad_b)):
            for name, block in ((f"W{l}", gw), (f"b{l}", gb)):
                if not np.isfinite(block).all():
                    raise DivergedRunError(f"non-finite gradient in {name}")
    velocity = momentum_coeff * velocity + grads + weight_decay * params.vector
    return EncoderParams(params.layer_sizes, params.vector - lr * velocity), velocity


def write_params_block(fh, params: EncoderParams) -> None:
    fh.write("layers " + " ".join(str(s) for s in params.layer_sizes) + "\n")
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        fh.write(f"W{l} {w.shape[0]} {w.shape[1]}\n")
        for row in w:
            fh.write(float_line(row) + "\n")
        fh.write(f"b{l} {b.shape[0]}\n")
        fh.write(float_line(b) + "\n")


def read_params_block(reader: LineReader) -> EncoderParams:
    parts = reader.fields("layer sizes")
    try:
        sizes = [int(p) for p in parts[1:]]
        if len(sizes) < 2 or parts[0] != "layers" or min(sizes) < 1:
            raise ValueError
    except ValueError:
        raise FormatError("malformed layer sizes header", reader.offset) from None
    blocks = []
    for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        head = reader.fields(f"W{l} header", 3)
        if head != [f"W{l}", str(fan_out), str(fan_in)]:
            raise FormatError(f"malformed W{l} header", reader.offset)
        blocks.append(reader.matrix(fan_out, fan_in, f"W{l}").ravel())
        head = reader.fields(f"b{l} header", 2)
        if head != [f"b{l}", str(fan_out)]:
            raise FormatError(f"malformed b{l} header", reader.offset)
        blocks.append(reader.floats(fan_out, f"b{l}"))
    vector = np.concatenate(blocks)
    reader.require_finite(vector, "encoder parameters")
    return EncoderParams(sizes, vector)


def save_encoder(params: EncoderParams, path, seed: int = 0) -> None:
    """Write a bit-exact text checkpoint: magic, seed header, then parameters."""
    with atomic_write(path) as fh:
        fh.write(ENCODER_MAGIC + "\n")
        fh.write(f"seed {int(seed)}\n")
        write_params_block(fh, params)
        fh.write("end\n")


def load_encoder(path) -> tuple[EncoderParams, int]:
    reader = LineReader(path)
    reader.expect(ENCODER_MAGIC, "magic line")
    seed = reader.int_after("seed", "seed line")
    params = read_params_block(reader)
    reader.expect("end", "trailer")
    reader.expect_eof()
    return params, seed
