"""Independent reference implementations used as test oracles.

The `*_direct` functions are written with plain Python loops and math.*
calls so they share no code path with the vectorized library under test. The
dense mixed-query logits and targets builders are numpy references for the
sparse-target kernel: they materialise every column, queue included.
`save_dataset_v1` writes the decimal dataset layout that version 2 replaced,
as other tools still write it. `export_direct` is the embedding export one
row at a time, the reference for the parts `training.export_embeddings`
formats at once. `hex_line` and `read_hex_rows` are the hex
block codec one row at a time, the reference for the chunked
`fileio.write_hex_rows` and `LineReader.hex_matrix`. `encode_direct` and
`encoder_backward_reference` are the encoder's forward and backward as first
written, one fresh array per operation and the pre-activations kept: the
bitwise references for the in-place `encoder.encode` and for the ReLU mask
`encoder.encoder_backward` reads off the layer inputs.
"""

import binascii
import math

import numpy as np

from contrastlab.encoder import ForwardTrace
from contrastlab.errors import ConfigurationError, FormatError
from contrastlab.numerics import DEFAULT_NORM_EPS, l2_normalize_rows_vjp


def infonce_direct(queries, keys, queue, tau):
    """Queue-negative contrastive loss, one softmax term at a time."""
    b = len(queries)
    total = 0.0
    for i in range(b):
        pos = math.exp(_dot(queries[i], keys[i]) / tau)
        denom = pos
        for row in queue:
            denom += math.exp(_dot(queries[i], row) / tau)
        total += -math.log(pos / denom)
    return total / b


def simclr_direct(queries, keys, tau):
    """In-batch negatives: positive on the diagonal, all other keys negative."""
    b = len(queries)
    total = 0.0
    for i in range(b):
        pos = math.exp(_dot(queries[i], keys[i]) / tau)
        denom = 0.0
        for j in range(b):
            denom += math.exp(_dot(queries[i], keys[j]) / tau)
        total += -math.log(pos / denom)
    return total / b


def mixed_direct(mixed, keys, queue, lambdas, tau):
    """Two-term mixed-query loss: each mixed row scores against both of its
    sources, with the denominator running over every key and queue entry."""
    n = len(mixed)
    half = len(keys) // 2
    total = 0.0
    for i in range(n):
        denom = 0.0
        for row in list(keys) + list(queue):
            denom += math.exp(_dot(mixed[i], row) / tau)
        sim_first = math.exp(_dot(mixed[i], keys[i]) / tau) / denom
        sim_second = math.exp(_dot(mixed[i], keys[i + half]) / tau) / denom
        total += lambdas[i] * math.log(sim_first) + (1.0 - lambdas[i]) * math.log(sim_second)
    return -total / n


def build_mixed_logits(mixed_queries, keys, queue, mix_temperature):
    """Similarity logits of mixed queries against all batch keys then the queue.

    Columns 0..B-1 are mixed . keys^T, columns B.. are mixed . queue^T, all
    divided by mix_temperature. Rows are expected to be unit-norm.
    """
    if mix_temperature <= 0.0:
        raise ConfigurationError(f"mix temperature must be positive, got {mix_temperature}")
    mixed_queries, keys, queue = (np.asarray(m, dtype=np.float64)
                                  for m in (mixed_queries, keys, queue))
    return (
        np.concatenate([mixed_queries @ keys.T, mixed_queries @ queue.T], axis=1)
        / mix_temperature
    )


def build_mixed_targets(lambdas, batch_size, queue_size):
    """Soft-target matrix for mixed queries.

    Row i carries lambdas[i] at column i and 1 - lambdas[i] at column
    i + B/2; all other columns, including every queue column, are zero, so
    each row sums to exactly 1.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    if (lam <= 0.0).any() or (lam >= 1.0).any():
        raise ConfigurationError("mixing coefficients must lie strictly inside (0, 1)")
    half = batch_size // 2
    targets = np.zeros((half, batch_size + queue_size))
    idx = np.arange(half)
    targets[idx, idx] = lam
    targets[idx, idx + half] = 1.0 - lam
    return targets


def soft_cross_entropy_direct(logits, targets):
    n = len(logits)
    total = 0.0
    for i in range(n):
        denom = 0.0
        for z in logits[i]:
            denom += math.exp(z)
        for j, t in enumerate(targets[i]):
            if t:
                total += t * math.log(math.exp(logits[i][j]) / denom)
    return -total / n


def kl_direct(logits, targets):
    """Mean over rows of KL(targets || softmax(logits)), 0 log 0 = 0, with its
    gradient wrt the logits, (softmax - targets) / n for rows summing to 1."""
    n = len(logits)
    total = 0.0
    grad = []
    for i in range(n):
        denom = 0.0
        for z in logits[i]:
            denom += math.exp(z)
        row = []
        for j, t in enumerate(targets[i]):
            p = math.exp(logits[i][j]) / denom
            if t > 0.0:
                total += t * math.log(t / p)
            row.append((p - t) / n)
        grad.append(row)
    return total / n, grad


def entropy_direct(row):
    h = 0.0
    for t in row:
        if t > 0.0:
            h -= t * math.log(t)
    return h


def davies_bouldin_direct(points, labels):
    classes = sorted(set(int(l) for l in labels))
    centroids = {}
    scatters = {}
    for c in classes:
        members = [p for p, l in zip(points, labels) if l == c]
        centroid = [sum(col) / len(members) for col in zip(*members)]
        centroids[c] = centroid
        scatters[c] = sum(_dist(p, centroid) for p in members) / len(members)
    worst = []
    for ci in classes:
        best = -math.inf
        for cj in classes:
            if ci == cj:
                continue
            ratio = (scatters[ci] + scatters[cj]) / _dist(centroids[ci], centroids[cj])
            best = max(best, ratio)
        worst.append(best)
    return sum(worst) / len(worst)


def calinski_harabasz_direct(points, labels):
    classes = sorted(set(int(l) for l in labels))
    n = len(points)
    k = len(classes)
    mean = [sum(col) / n for col in zip(*points)]
    between = 0.0
    within = 0.0
    for c in classes:
        members = [p for p, l in zip(points, labels) if l == c]
        centroid = [sum(col) / len(members) for col in zip(*members)]
        between += len(members) * _dist(centroid, mean) ** 2
        for p in members:
            within += _dist(p, centroid) ** 2
    return (between / (k - 1)) / (within / (n - k))


def save_dataset_v1(dataset, path):
    """Write `dataset` in the v1 layout: magic, size line, then one
    `label f1 .. fD` row of `repr` decimals per sample."""
    lines = ["contrastlab-dataset 1",
             f"samples {dataset.sample_count} dim {dataset.dim} classes {dataset.class_count}"]
    for label, row in zip(dataset.labels, dataset.features):
        lines.append(" ".join([str(int(label)), *(repr(float(v)) for v in row)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export_direct(embeddings, labels):
    """The embedding export's bytes, one row at a time: the header, then each
    label and the `repr` of each coordinate of its (N, C) `embeddings` row."""
    lines = ["label " + " ".join(f"v{j}" for j in range(embeddings.shape[1]))]
    for label, row in zip(labels, embeddings):
        lines.append(" ".join([str(int(label)), *(repr(float(v)) for v in row)]))
    return "".join(line + "\n" for line in lines).encode()


def hex_line(values):
    """`values` as float64 little-endian bytes, 16 lowercase hex digits each."""
    return np.asarray(values, dtype="<f8").tobytes().hex()


def read_hex_rows(raw, start, rows, cols, what):
    """Read the `rows` x `cols` hex block at byte `start` of `raw` one row at a
    time, with the checks and messages of `LineReader.hex_matrix`: every row's
    digits and newline first, then every value's finiteness. Returns the array
    and the offset just past the block."""
    width, size = 16 * cols, 8 * cols
    if rows < 0 or cols < 0 or rows * (width + 1) > len(raw) - start:
        raise FormatError(f"{what} size {rows} x {cols} does not fit the file", start)
    out = np.empty((rows, cols), dtype="<f8")
    dest = memoryview(out.reshape(-1).view(np.uint8))
    for r in range(rows):
        pos = start + r * (width + 1)
        digits = raw[pos : pos + width]
        if raw[pos + width] != 0x0A or digits.translate(None, b"0123456789abcdef"):
            raise FormatError(
                f"bad {what} row {r}: expected {width} lowercase hex digits and a newline", pos)
        dest[r * size : (r + 1) * size] = binascii.a2b_hex(digits)
    for r in range(rows):
        if not np.isfinite(out[r]).all():
            raise FormatError(f"non-finite value in {what} row {r}", start + r * (width + 1))
    return out, start + rows * (width + 1)


def central_difference(f, x, h=1e-5):
    """Gradient of scalar f at 1-D point x by central differences."""
    grad = []
    for i in range(len(x)):
        plus = list(x)
        minus = list(x)
        plus[i] += h
        minus[i] -= h
        grad.append((f(plus) - f(minus)) / (2.0 * h))
    return grad


def _dot(a, b):
    return sum(float(x) * float(y) for x, y in zip(a, b))


def _dist(a, b):
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def train_linear_probe_reference(embeddings, labels, class_count, epochs, lr0, batch_size, rng,
                                 sgd_momentum=0.9):
    """The linear-probe loop as first written, one fresh array per
    intermediate: the bitwise reference for `training.train_linear_probe`.
    Returns (weight, bias)."""
    n, dim = embeddings.shape
    weight = np.zeros((class_count, dim))
    bias = np.zeros(class_count)
    vel_w = np.zeros_like(weight)
    vel_b = np.zeros_like(bias)
    base_lr = lr0 * batch_size / 256.0
    onehot = np.zeros((n, class_count))
    onehot[np.arange(n), labels] = 1.0
    for epoch in range(epochs):
        lr_now = base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / epochs))
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            take = perm[start : start + batch_size]
            x = embeddings[take]
            logits = x @ weight.T + bias
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            g = (e / e.sum(axis=1, keepdims=True) - onehot[take]) / take.size
            vel_w = sgd_momentum * vel_w + g.T @ x
            vel_b = sgd_momentum * vel_b + g.sum(axis=0)
            weight = weight - lr_now * vel_w
            bias = bias - lr_now * vel_b
    return weight, bias


def encode_direct(params, x):
    """The encoder forward with a new array for every bias add, ReLU and
    division, and the row norms in one pass. Returns (output, trace, pre_activations): the trace as
    `encoder.encode` fills it, and each layer's affine output."""
    inputs, pre_activations = [], []
    a = x
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(a)
        z = a @ w.T
        z = z + b
        pre_activations.append(z)
        a = np.maximum(z, 0.0) if l < last else z
    guarded = np.maximum(np.sqrt((a * a).sum(axis=1, keepdims=True)), DEFAULT_NORM_EPS)
    output = a / guarded
    trace = ForwardTrace(inputs, output, guarded, (guarded <= DEFAULT_NORM_EPS).ravel())
    return output, trace, pre_activations


def encoder_backward_reference(params, trace, pre_activations, grad_v):
    """The parameter gradient with each ReLU masked by its pre-activation
    `> 0.0`, and the normalization pulled back by `l2_normalize_rows_vjp`
    at the last affine output, as one flat vector in the parameter layout."""
    grad_w, grad_b = [], []
    gz = l2_normalize_rows_vjp(pre_activations[-1], grad_v)
    for l in reversed(range(len(params.weights))):
        grad_w.append((gz.T @ trace.inputs[l]).ravel())
        grad_b.append(gz.sum(axis=0))
        if l:
            gz = gz @ params.weights[l]
            gz = gz * (pre_activations[l - 1] > 0.0)
    blocks = [block for pair in zip(reversed(grad_w), reversed(grad_b)) for block in pair]
    return np.concatenate(blocks)
