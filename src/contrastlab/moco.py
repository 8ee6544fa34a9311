"""Momentum-contrast state: query/key encoder pair plus the FIFO key queue.

The key encoder is an exponential moving average of the query encoder and is
never backpropagated through; the queue is a ring buffer of past key
embeddings used as negatives.
"""

from dataclasses import dataclass

import numpy as np

from .encoder import (
    ENCODER_MAGIC,
    EncoderParams,
    embed,
    init_encoder,
    load_encoder,
    read_params_block,
    write_params_block,
)
from .errors import FormatError
from .fileio import LineReader, atomic_write, write_hex_rows
from .numerics import Tensor, guarded_row_norms

MOCO_MAGIC = "contrastlab-moco 2"
# The first layout, still read: the same lines with the queue rows as `repr`
# text, which took longer to parse than the rest of an eval pass at K=4096.
MOCO_V1_MAGIC = "contrastlab-moco 1"


@dataclass
class MoCoState:
    """Query encoder, EMA key encoder, and the key queue with its write pointer."""

    query: EncoderParams
    key: EncoderParams
    queue: Tensor  # (K, C), unit-norm rows once warm
    queue_ptr: int
    ema_momentum: float

    @property
    def queue_size(self) -> int:
        return self.queue.shape[0]


def init_moco(layer_sizes, queue_size: int, ema_momentum: float, rng: "np.random.Generator") -> MoCoState:
    """Fresh state, from arguments `RunConfig` has checked: key params copied
    bit-identically from the query params, queue of random unit vectors, pointer 0."""
    query = init_encoder(layer_sizes, rng)
    embed_dim = query.output_dim
    # drawn and normalized in place; at K = 0 the empty draw leaves `rng` as it was
    queue = rng.standard_normal((queue_size, embed_dim))
    queue += 0.0  # a drawn -0.0 becomes +0.0, as in `rng.normal`'s 0.0 + 1.0 * z
    queue /= guarded_row_norms(queue)
    key = EncoderParams(query.layer_sizes, query.vector.copy())
    return MoCoState(query, key, queue, 0, ema_momentum)


def momentum_update(state: MoCoState) -> None:
    """key <- m * key + (1 - m) * query, elementwise, in place.

    Computed as key + (1 - m) * (query - key), which is the same quantity in
    exact arithmetic but keeps every updated value inside the closed interval
    between the old key value and the query value, and leaves the key params
    bit-identical when they already equal the query params. The endpoints
    m = 0 (copy) and m = 1 (frozen) are exact.
    """
    m = state.ema_momentum
    key, query = state.key.vector, state.query.vector
    if m == 0.0:
        key[...] = query
    elif m != 1.0:
        key += (1.0 - m) * (query - key)


def enqueue_dequeue(state: MoCoState, keys: Tensor) -> None:
    """Overwrite the oldest queue rows with `keys` and advance the pointer.

    Unchecked: `RunConfig` makes the queue size a positive multiple of the
    batch size, so a write never wraps.
    """
    ptr, b = state.queue_ptr, keys.shape[0]
    state.queue[ptr : ptr + b] = keys
    state.queue_ptr = (ptr + b) % state.queue_size


def key_forward_no_grad(state: MoCoState, x: Tensor) -> Tensor:
    """Embed with the key encoder (`encoder.embed`, no trace kept): nothing
    ever backpropagates into the key params."""
    return embed(state.key, x)


def save_moco(state: MoCoState, path, seed: int = 0) -> None:
    """Checkpoint the full state: both encoders, queue contents, and pointer.

    The queue rows are hex lines written in 256-row chunks
    (`fileio.write_hex_rows`); the encoder blocks are `repr` text like an
    encoder checkpoint's.
    """
    with atomic_write(path) as fh:
        fh.write(MOCO_MAGIC + "\n")
        fh.write(f"seed {int(seed)}\n")
        fh.write(f"ema_momentum {state.ema_momentum!r}\n")
        fh.write(f"queue_ptr {state.queue_ptr}\n")
        fh.write(f"queue {state.queue.shape[0]} {state.queue.shape[1]}\n")
        write_hex_rows(fh, state.queue)
        fh.write("query\n")
        write_params_block(fh, state.query)
        fh.write("key\n")
        write_params_block(fh, state.key)
        fh.write("end\n")


def load_moco(path) -> tuple[MoCoState, int]:
    """Read a checkpoint written by `save_moco`, or one in the v1 layout. The
    state must be one training could leave: EMA momentum in [0, 1], pointer in
    [0, K) (0 when K = 0), queue width and key layer sizes the query's."""
    with LineReader(path) as reader:
        magic = reader.next_line("magic line")
        if magic not in (MOCO_MAGIC, MOCO_V1_MAGIC):
            raise FormatError(f"bad magic line: expected {MOCO_MAGIC!r}, got {magic!r}", 0)
        seed = reader.value_after("seed", "seed line", int)
        at = reader.offset
        ema = reader.value_after("ema_momentum", "ema line", float)
        if not 0.0 <= ema <= 1.0:  # NaN fails too
            raise FormatError(f"ema_momentum {ema!r} is not in [0, 1]", at)
        ptr_at = reader.offset
        ptr = reader.value_after("queue_ptr", "pointer line", int)
        queue_at = reader.offset
        head = reader.fields("queue header", 3)
        try:
            if head[0] != "queue":
                raise ValueError
            rows, cols = int(head[1]), int(head[2])
        except ValueError:
            raise FormatError("malformed queue header", queue_at) from None
        if magic == MOCO_MAGIC:
            queue = reader.hex_matrix(rows, cols, "queue")
        else:
            queue = reader.matrix(rows, cols, "queue")
            reader.require_finite(queue, "queue")
        if not 0 <= ptr < max(rows, 1):
            raise FormatError(f"queue_ptr {ptr} is outside the queue of {rows} rows", ptr_at)
        reader.expect("query", "query marker")
        query = read_params_block(reader)
        if cols != query.output_dim:
            raise FormatError(f"queue width {cols} != encoder output {query.output_dim}", queue_at)
        reader.expect("key", "key marker")
        at = reader.offset
        key = read_params_block(reader)
        if key.layer_sizes != query.layer_sizes:
            raise FormatError(f"key layers {key.layer_sizes} != query's {query.layer_sizes}", at)
        reader.expect("end", "trailer")
        reader.expect_eof()
    return MoCoState(query, key, queue, ptr, ema), seed


def load_query_encoder(path) -> tuple[EncoderParams, int]:
    """Query encoder and seed of a moco (either layout) or encoder checkpoint."""
    with open(path, "rb") as fh:
        magic = fh.readline(64).strip()
    if magic in (MOCO_MAGIC.encode(), MOCO_V1_MAGIC.encode()):
        state, seed = load_moco(path)
        return state.query, seed
    if magic == ENCODER_MAGIC.encode():
        return load_encoder(path)
    raise FormatError(f"unrecognized checkpoint magic {magic!r}", 0)
