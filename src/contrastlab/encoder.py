"""MLP encoder with a projection-style output layer and unit-norm embeddings.

Forward and backward passes are handwritten. `encode`, the one forward pass,
keeps what the backward reads in a ForwardTrace, so `encoder_backward` can
return exact gradients of the normalized output, normalization Jacobian
included; callers that never differentiate call `embed`, which runs `encode`
on blocks of rows and drops each trace. None of them, nor `init_encoder` or
`EncoderParams`, checks its operands: `RunConfig` checks the sizes a run
uses, and the file loaders and the CLI check what comes from outside.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedRunError, FormatError
from .fileio import LineReader, atomic_write, float_line
from .numerics import DEFAULT_NORM_EPS, Tensor, as_f64, guarded_row_norms

ENCODER_MAGIC = "contrastlab-encoder 1"


def _block_views(sizes: list[int], vector: Tensor) -> tuple[list[Tensor], list[Tensor]]:
    """(out x in) weight and bias views into a flat W0, b0, W1, b1, ... vector."""
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

    Gradients and SGD velocity use the same layout. Sizes and vector are unchecked.
    """

    layer_sizes: list[int]
    vector: Tensor
    weights: list[Tensor] = field(init=False, repr=False)
    biases: list[Tensor] = field(init=False, repr=False)

    def __post_init__(self):
        self.layer_sizes = [int(s) for s in self.layer_sizes]
        self.vector = as_f64(self.vector)
        self.weights, self.biases = _block_views(self.layer_sizes, self.vector)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class ForwardTrace:
    """Intermediates retained by `encode` for the backward pass."""

    # activation feeding each layer; past the first, > 0 exactly where the
    # pre-activation it came from is, which is all the ReLU backward reads
    inputs: list[Tensor] = field(default_factory=list)
    output: Tensor | None = None  # the normalized rows `encode` returned
    guarded_norms: Tensor | None = None  # (N, 1): max(eps, row norm of that output)


def init_encoder(layer_sizes, rng: "np.random.Generator") -> EncoderParams:
    """Weights drawn N(0, 1/fan_in), biases zero; the sizes are not checked."""
    sizes = [int(s) for s in layer_sizes]
    blocks = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        blocks += [rng.normal(0.0, fan_in**-0.5, size=fan_out * fan_in), np.zeros(fan_out)]
    return EncoderParams(sizes, np.concatenate(blocks))


def encode(params: EncoderParams, x: Tensor) -> tuple[Tensor, ForwardTrace]:
    """Affine layers with ReLU between them; output rows L2-normalized.

    `x` must be a float64 (N, input_dim) matrix; it is not checked, and it is
    not written to. Deterministic given (params, x). Rows whose final affine
    output has norm <= eps are divided by eps instead (zero rows stay zero),
    so their guarded norm is eps. The trace holds the returned array as `output`.

    Bias, ReLU and normalization run in place. With one hidden layer, a
    caller that discards the trace holds at most two N x width arrays at
    once; each further hidden layer keeps one more alive until this returns.
    """
    trace = ForwardTrace()
    a = x
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        trace.inputs.append(a)
        a = a @ w.T
        a += b
        if l < last:
            np.maximum(a, 0.0, out=a)
    guarded = trace.guarded_norms = guarded_row_norms(a)
    a /= guarded
    trace.output = a
    return a, trace


# `embed` passes `encode` at least this many rows per call: the last bits of
# a product can depend on how many rows share the BLAS call. On OpenBLAS
# 0.3.31, over five layer shapes, three seeds and 1 and 2 threads, blocks of
# 16, 18, 19 and 32 rows changed them and blocks of 64 to 512 rows did not
EMBED_BLOCK_ROWS = 256


def embed(params: EncoderParams, x: Tensor) -> Tensor:
    """`encode(params, x)[0]`, bit for bit, without holding the trace of all
    N rows at once.

    The rows go through `encode` in blocks of EMBED_BLOCK_ROWS, the remainder
    joining the last block, and each block's output is copied into one (N, C)
    array; so no block is smaller than EMBED_BLOCK_ROWS, and the peak is that
    array plus one block's trace. Under 2 * EMBED_BLOCK_ROWS rows this is one
    `encode` call whose output is returned as it is. `x` is not checked.
    """
    n = x.shape[0]
    if n < 2 * EMBED_BLOCK_ROWS:
        return encode(params, x)[0]
    out = np.empty((n, params.output_dim))
    edges = [*range(0, n - n % EMBED_BLOCK_ROWS, EMBED_BLOCK_ROWS), n]
    for lo, hi in zip(edges, edges[1:]):
        out[lo:hi] = encode(params, x[lo:hi])[0]  # a bound trace would live through the next block
    return out


def _normalization_pullback(trace: ForwardTrace, grad_v: Tensor) -> Tensor:
    """`grad_v` pulled back through the row normalization from the rows and
    norms `encode` kept: bit for bit `l2_normalize_rows_vjp(z, grad_v)` at
    the last layer's affine output `z`, without recomputing them or
    evaluating both branches."""
    y, guarded = trace.output, trace.guarded_norms
    gz = grad_v * y
    inner = gz.sum(axis=1, keepdims=True)
    np.multiply(inner, y, out=gz)
    np.subtract(grad_v, gz, out=gz)
    gz /= guarded
    degenerate = (guarded <= DEFAULT_NORM_EPS).ravel()
    if degenerate.any():  # rows divided by eps alone are linear
        gz[degenerate] = grad_v[degenerate] / guarded[degenerate]
    return gz


def encoder_backward(params: EncoderParams, trace: ForwardTrace, grad_v: Tensor) -> Tensor:
    """Exact gradient of the normalized output wrt all parameters, as one
    flat vector in the parameter layout. `trace` must come from an `encode`
    call with the same params, and `grad_v` have its output's shape; neither
    is checked."""
    grads = np.empty_like(params.vector)
    grad_w, grad_b = _block_views(params.layer_sizes, grads)
    gz = _normalization_pullback(trace, grad_v)
    for l in reversed(range(len(params.weights))):
        np.matmul(gz.T, trace.inputs[l], out=grad_w[l])
        gz.sum(axis=0, out=grad_b[l])
        if l:
            gz = gz @ params.weights[l]
            gz *= trace.inputs[l] > 0.0
    return grads


def add_scaled(into: Tensor, other: Tensor, scale: float) -> Tensor:
    """into + scale * other, as a new vector."""
    return into + scale * other


def _first_non_finite_block(layer_sizes: list[int], vector: Tensor) -> str | None:
    """Name (W<l> or b<l>) of the first block, in layout order, of a vector
    in the parameter layout that holds a non-finite value."""
    weights, biases = _block_views(layer_sizes, vector)
    for l, (w, b) in enumerate(zip(weights, biases)):
        for name, block in ((f"W{l}", w), (f"b{l}", b)):
            if not np.isfinite(block).all():
                return name


def apply_sgd_step(
    params: EncoderParams,
    grads: Tensor,
    lr: float,
    momentum_coeff: float,
    weight_decay: float,
    velocity: Tensor,
) -> tuple[EncoderParams, Tensor]:
    """One momentum-SGD step, in place: updates `params.vector` and
    `velocity` and returns those same two objects. Weight decay enters
    through the velocity.

    velocity <- momentum_coeff * velocity + grad + weight_decay * param
    param    <- param - lr * velocity

    `lr` must be finite and >= 0 and `momentum_coeff` in [0, 1), the ranges
    `RunConfig` enforces; neither is checked. A non-finite gradient raises
    DivergedRunError naming the first parameter block (W<l> or b<l>, in
    layout order) that holds one, and leaves both arrays untouched. An
    update that leaves a parameter non-finite raises DivergedRunError naming
    its first block, without a numpy warning. `velocity` must not share
    memory with `grads` or the parameters.
    """
    if not np.isfinite(grads).all():
        block = _first_non_finite_block(params.layer_sizes, grads)
        raise DivergedRunError(f"non-finite gradient in {block}")
    vector = params.vector
    # the operation order of the formula above, so the bits match it
    with np.errstate(over="ignore", invalid="ignore"):
        velocity *= momentum_coeff
        velocity += grads
        scratch = np.multiply(vector, weight_decay)
        velocity += scratch
        np.multiply(velocity, lr, out=scratch)
        vector -= scratch
    if not np.isfinite(vector).all():
        block = _first_non_finite_block(params.layer_sizes, vector)
        raise DivergedRunError(f"non-finite parameter in {block}")
    return params, velocity


def write_params_block(fh, params: EncoderParams) -> None:
    fh.write("layers " + " ".join(str(s) for s in params.layer_sizes) + "\n")
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        fh.write(f"W{l} {w.shape[0]} {w.shape[1]}\n")
        for row in w:
            fh.write(float_line(row) + "\n")
        fh.write(f"b{l} {b.shape[0]}\n")
        fh.write(float_line(b) + "\n")


def read_params_block(reader: LineReader) -> EncoderParams:
    at = reader.offset  # each header's error names the start of its line
    parts = reader.fields("layer sizes")
    try:
        sizes = [int(p) for p in parts[1:]]
        if len(sizes) < 2 or parts[0] != "layers" or min(sizes) < 1:
            raise ValueError
    except ValueError:
        raise FormatError("malformed layer sizes header", at) from None
    blocks = []
    for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        at = reader.offset
        if reader.fields(f"W{l} header", 3) != [f"W{l}", str(fan_out), str(fan_in)]:
            raise FormatError(f"malformed W{l} header", at)
        blocks.append(reader.matrix(fan_out, fan_in, f"W{l}").ravel())
        at = reader.offset
        if reader.fields(f"b{l} header", 2) != [f"b{l}", str(fan_out)]:
            raise FormatError(f"malformed b{l} header", at)
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
    with LineReader(path) as reader:
        reader.expect(ENCODER_MAGIC, "magic line")
        seed = reader.value_after("seed", "seed line", int)
        params = read_params_block(reader)
        reader.expect("end", "trailer")
        reader.expect_eof()
    return params, seed
