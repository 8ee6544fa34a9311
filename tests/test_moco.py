import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastlab.cli import main
from contrastlab.data import generate_spoke_clusters, load_dataset, save_dataset
from contrastlab.encoder import encode, init_encoder, load_encoder, save_encoder
from contrastlab.errors import FormatError
from contrastlab.moco import (
    enqueue_dequeue,
    init_moco,
    key_forward_no_grad,
    load_moco,
    momentum_update,
    save_moco,
)
from contrastlab.numerics import l2_normalize_rows, seeded_rng
from oracles import moco_queue_direct, save_dataset_v1


def all_params(encoder_params):
    return encoder_params.weights + encoder_params.biases


class TestInit:
    def test_key_params_bit_identical_to_query(self):
        state = init_moco([4, 6, 3], 8, 0.99, seeded_rng(0))
        for q, k in zip(all_params(state.query), all_params(state.key)):
            assert np.array_equal(q, k)
        assert not np.shares_memory(state.query.vector, state.key.vector)

    def test_queue_rows_unit_norm(self):
        state = init_moco([4, 6, 3], 16, 0.99, seeded_rng(1))
        assert np.abs(np.linalg.norm(state.queue, axis=1) - 1.0).max() < 1e-12
        assert state.queue_ptr == 0

    def test_deterministic(self):
        a = init_moco([4, 6, 3], 8, 0.99, seeded_rng(2))
        b = init_moco([4, 6, 3], 8, 0.99, seeded_rng(2))
        assert np.array_equal(a.queue, b.queue)
        for qa, qb in zip(all_params(a.query), all_params(b.query)):
            assert np.array_equal(qa, qb)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sizes, queue_size", [
        ([20, 64, 64], 512), ([4, 6, 3], 8), ([3, 1], 5), ([4, 6, 3], 0)])
    def test_state_has_the_bits_of_the_first_draws(self, seed, sizes, queue_size):
        rng, direct_rng = seeded_rng(seed), seeded_rng(seed)
        state = init_moco(sizes, queue_size, 0.99, rng)
        query = init_encoder(sizes, direct_rng)
        queue = moco_queue_direct(queue_size, sizes[-1], direct_rng)
        assert state.query.vector.tobytes() == query.vector.tobytes()
        assert state.queue.shape == queue.shape
        assert state.queue.tobytes() == queue.tobytes()
        assert rng.bit_generator.state == direct_rng.bit_generator.state

    def test_a_drawn_negative_zero_enters_the_queue_as_positive_zero(self):
        class NegativeZeroDraws:
            """A Generator whose every standard normal block starts with -0.0;
            `normal` is loc + scale * z over it, as numpy's is."""

            def __init__(self):
                self.rng = seeded_rng(8)

            def standard_normal(self, size):
                z = self.rng.standard_normal(size)
                z.flat[0] = -0.0
                return z

            def normal(self, loc=0.0, scale=1.0, size=None):
                return loc + scale * self.standard_normal(size)

        state = init_moco([4, 6, 3], 8, 0.99, NegativeZeroDraws())
        direct_rng = NegativeZeroDraws()
        init_encoder([4, 6, 3], direct_rng)
        queue = moco_queue_direct(8, 3, direct_rng)
        assert state.queue[0, 0] == 0.0 and not np.signbit(state.queue[0, 0])
        assert state.queue.tobytes() == queue.tobytes()


class TestMomentumUpdate:
    def _perturbed_state(self, m, seed=3):
        state = init_moco([3, 4, 2], 4, m, seeded_rng(seed))
        rng = seeded_rng(seed + 100)
        for q in all_params(state.query):
            q += 0.1 * rng.normal(size=q.shape)
        return state

    def test_frozen_at_m_one(self):
        state = self._perturbed_state(1.0)
        before = [k.copy() for k in all_params(state.key)]
        momentum_update(state)
        for old, new in zip(before, all_params(state.key)):
            assert np.array_equal(old, new)

    def test_copy_at_m_zero(self):
        state = self._perturbed_state(0.0)
        momentum_update(state)
        for q, k in zip(all_params(state.query), all_params(state.key)):
            assert np.array_equal(q, k)

    def test_scalar_arithmetic(self):
        state = init_moco([1, 1], 2, 0.999, seeded_rng(4))
        state.key.weights[0][...] = 0.0
        state.query.weights[0][...] = 1.0
        momentum_update(state)
        assert state.key.weights[0][0, 0] == pytest.approx(0.001, rel=1e-12)

    def test_query_untouched(self):
        state = self._perturbed_state(0.9)
        before = [q.copy() for q in all_params(state.query)]
        momentum_update(state)
        for old, new in zip(before, all_params(state.query)):
            assert np.array_equal(old, new)

    @pytest.mark.parametrize("m", [0.0, 0.1, 0.5, 0.9, 0.999, 1.0])
    def test_ema_convexity(self, m):
        state = self._perturbed_state(m, seed=int(m * 1000) + 5)
        before = [k.copy() for k in all_params(state.key)]
        momentum_update(state)
        for old, new, q in zip(before, all_params(state.key), all_params(state.query)):
            lo = np.minimum(old, q)
            hi = np.maximum(old, q)
            assert ((new >= lo) & (new <= hi)).all()

    def test_exact_when_key_equals_query(self):
        state = init_moco([3, 4, 2], 4, 0.999, seeded_rng(6))
        before = [k.copy() for k in all_params(state.key)]
        momentum_update(state)
        for old, new in zip(before, all_params(state.key)):
            assert np.array_equal(old, new)


class TestQueue:
    def test_wraparound(self):
        state = init_moco([3, 4, 2], 4, 0.9, seeded_rng(7))
        first = l2_normalize_rows(seeded_rng(8).normal(size=(2, 2)))
        second = l2_normalize_rows(seeded_rng(9).normal(size=(2, 2)))
        enqueue_dequeue(state, first)
        assert state.queue_ptr == 2
        enqueue_dequeue(state, second)
        assert state.queue_ptr == 0
        assert np.array_equal(state.queue[:2], first)
        assert np.array_equal(state.queue[2:], second)

    def test_full_replacement_after_k_over_b_enqueues(self):
        state = init_moco([3, 4, 2], 8, 0.9, seeded_rng(10))
        initial = state.queue.copy()
        rng = seeded_rng(11)
        for _ in range(4):
            enqueue_dequeue(state, l2_normalize_rows(rng.normal(size=(2, 2))))
        assert not np.isclose(state.queue, initial).any(axis=1).any()

    def test_write_read_identity(self):
        state = init_moco([3, 4, 2], 8, 0.9, seeded_rng(12))
        keys = l2_normalize_rows(seeded_rng(13).normal(size=(4, 2)))
        ptr_before = state.queue_ptr
        enqueue_dequeue(state, keys)
        assert np.array_equal(state.queue[ptr_before : ptr_before + 4], keys)

    def test_fifo_tagged_probe_order(self):
        # identifiable rows recover exact insertion order across 3 full wraps
        k, b, c = 8, 2, 4
        state = init_moco([3, 4, c], k, 0.9, seeded_rng(14))
        history = []
        for tag in range(3 * (k // b)):
            rows = np.zeros((b, c))
            rows[:, 0] = 1.0
            rows[:, 1] = tag / 100.0  # tag smuggled in a non-normalized coord for test
            history.append(rows)
            enqueue_dequeue(state, rows)
        # queue must now hold the last k//b batches, oldest first from ptr
        expected = np.concatenate(history[-(k // b):])
        rolled = np.roll(state.queue, -state.queue_ptr, axis=0)
        # ptr points at the oldest surviving batch
        assert np.array_equal(rolled, expected)


class TestKeyForward:
    def test_matches_encode_with_key_params(self):
        state = init_moco([4, 5, 3], 4, 0.9, seeded_rng(17))
        x = seeded_rng(18).normal(size=(6, 4))
        keys = key_forward_no_grad(state, x)
        expected, _ = encode(state.key, x)
        assert np.array_equal(keys, expected)

    def test_unit_norm_rows(self):
        state = init_moco([4, 5, 3], 4, 0.9, seeded_rng(19))
        keys = key_forward_no_grad(state, seeded_rng(20).normal(size=(5, 4)))
        assert np.abs(np.linalg.norm(keys, axis=1) - 1.0).max() < 1e-12

    def test_copy_endpoint_equals_query_forward(self):
        state = init_moco([4, 5, 3], 4, 0.0, seeded_rng(21))
        rng = seeded_rng(22)
        for q in all_params(state.query):
            q += 0.05 * rng.normal(size=q.shape)
        momentum_update(state)  # m=0 copies query into key
        x = rng.normal(size=(3, 4))
        assert np.array_equal(key_forward_no_grad(state, x), encode(state.query, x)[0])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        state = init_moco([4, 6, 3], 8, 0.999, seeded_rng(23))
        rng = seeded_rng(24)
        for q in all_params(state.query):
            q += rng.normal(size=q.shape) / 3.0
        momentum_update(state)
        enqueue_dequeue(state, l2_normalize_rows(rng.normal(size=(4, 3))))
        path = tmp_path / "moco.txt"
        save_moco(state, path, seed=5)
        loaded, seed = load_moco(path)
        assert seed == 5
        assert loaded.queue_ptr == state.queue_ptr
        assert loaded.ema_momentum == state.ema_momentum
        assert np.array_equal(loaded.queue, state.queue)
        for a, b in zip(all_params(state.query), all_params(loaded.query)):
            assert np.array_equal(a, b)
        for a, b in zip(all_params(state.key), all_params(loaded.key)):
            assert np.array_equal(a, b)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("contrastlab-encoder 1\nseed 0\n")
        with pytest.raises(FormatError):
            load_moco(path)

    def test_queue_rows_are_little_endian_float64_hex(self, tmp_path):
        state = init_moco([4, 6, 3], 8, 0.999, seeded_rng(25))
        path = tmp_path / "moco.txt"
        save_moco(state, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "contrastlab-moco 2"
        assert lines[4] == "queue 8 3"
        assert lines[5:13] == [row.astype("<f8").tobytes().hex() for row in state.queue]
        assert lines[13] == "query"

    def test_malformed_queue_header_names_the_offset_of_its_line(self, tmp_path):
        path = tmp_path / "moco.txt"
        save_moco(init_moco([4, 6, 3], 8, 0.999, seeded_rng(25)), path)
        text = path.read_text()
        path.write_text(text.replace("\nqueue 8 3\n", "\nqueue 8 x\n"))
        with pytest.raises(FormatError, match="malformed queue header") as info:
            load_moco(path)
        assert info.value.offset == text.index("\nqueue 8 3\n") + 1

    BAD_ROW = "expected 48 lowercase hex digits and a newline"

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row[1:], BAD_ROW),
        (lambda row: row + b"0", BAD_ROW),
        (lambda row: row[:7] + b"g" + row[8:], BAD_ROW),
        (lambda row: row[:16] + b" " + row[17:], BAD_ROW),
        (lambda row: row.upper(), BAD_ROW),
        (lambda row: row + b"\r", BAD_ROW),
        (lambda row: row[:16] + b"000000000000f87f" + row[32:], "non-finite value"),
        (lambda row: b"000000000000f0ff" + row[16:], "non-finite value"),
    ], ids=["short", "long", "non-hex", "space", "uppercase", "cr", "nan", "minus-inf"])
    def test_bad_queue_row_names_the_row_and_offset(self, tmp_path, edit, message):
        state = init_moco([4, 6, 3], 8, 0.999, seeded_rng(26))
        path = tmp_path / "moco.txt"
        save_moco(state, path)
        text = path.read_bytes()
        start = text.index(b"queue 8 3\n") + len(b"queue 8 3\n") + 2 * 49  # row 2
        path.write_bytes(text[:start] + edit(text[start:start + 48]) + text[start + 48:])
        with pytest.raises(FormatError, match=message) as info:
            load_moco(path)
        assert "queue row 2" in str(info.value)
        assert info.value.offset == start


def save_moco_v1(state, path, seed):
    """Write `state` in the v1 layout: the v2 lines, but every float, the
    queue rows included, as `repr` text."""
    def text(values):
        return " ".join(repr(float(v)) for v in values)

    lines = ["contrastlab-moco 1", f"seed {seed}", f"ema_momentum {state.ema_momentum!r}",
             f"queue_ptr {state.queue_ptr}", "queue {} {}".format(*state.queue.shape)]
    lines += [text(row) for row in state.queue]
    for name, params in (("query", state.query), ("key", state.key)):
        lines += [name, "layers " + " ".join(map(str, params.layer_sizes))]
        for l, (w, b) in enumerate(zip(params.weights, params.biases)):
            lines += [f"W{l} {w.shape[0]} {w.shape[1]}", *map(text, w), f"b{l} {b.size}", text(b)]
    path.write_text("\n".join(lines + ["end"]) + "\n")


def trained_like_state(seed):
    state = init_moco([4, 6, 3], 8, 0.99, seeded_rng(seed))
    rng = seeded_rng(seed + 1)
    for q in all_params(state.query):
        q += rng.normal(size=q.shape) / 3.0
    momentum_update(state)
    enqueue_dequeue(state, l2_normalize_rows(rng.normal(size=(4, 3))))
    return state


def assert_same_state(a, b):
    assert (a.queue_ptr, a.ema_momentum) == (b.queue_ptr, b.ema_momentum)
    for x, y in ((a.queue, b.queue), (a.query.vector, b.query.vector), (a.key.vector, b.key.vector)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


class TestCheckpointV1:
    def test_loads_bit_identically(self, tmp_path):
        state = trained_like_state(27)
        save_moco_v1(state, tmp_path / "v1.txt", seed=4)
        loaded, seed = load_moco(tmp_path / "v1.txt")
        assert seed == 4
        assert_same_state(loaded, state)

    def test_resaving_writes_v2_with_the_same_arrays(self, tmp_path):
        state = trained_like_state(28)
        save_moco_v1(state, tmp_path / "v1.txt", seed=4)
        save_moco(load_moco(tmp_path / "v1.txt")[0], tmp_path / "v2.txt", seed=4)
        assert (tmp_path / "v2.txt").read_text().startswith("contrastlab-moco 2\n")
        assert_same_state(load_moco(tmp_path / "v2.txt")[0], state)

    def test_eval_commands_read_it_as_they_read_v2(self, tmp_path, capsys):
        state = trained_like_state(29)
        save_moco_v1(state, tmp_path / "v1.txt", seed=0)
        save_moco(state, tmp_path / "v2.txt", seed=0)
        data = tmp_path / "data.txt"
        save_dataset(generate_spoke_clusters(3, 2, 10, 4, 8.0, 1.3, 0.5, seeded_rng(30)), data)
        export = tmp_path / "emb.txt"
        results = {}
        for version in ("v1", "v2"):
            checkpoint = str(tmp_path / f"{version}.txt")
            codes = [
                main(["linear-eval", "--checkpoint", checkpoint, "--data", str(data),
                      "--set", "probe_epochs=5"]),
                main(["metrics", "--checkpoint", checkpoint, "--data", str(data)]),
                main(["export-embeddings", "--checkpoint", checkpoint, "--data", str(data),
                      "--out", str(export)]),
            ]
            results[version] = codes, capsys.readouterr().out, export.read_bytes()
        assert results["v1"][0] == [0, 0, 0]
        assert results["v1"] == results["v2"]


def _saved_moco(path):
    save_moco(trained_like_state(31), path, seed=2)
    return lambda loaded: (loaded[0].queue, loaded[0].query.vector, loaded[0].key.vector)


def _saved_encoder(path):
    save_encoder(trained_like_state(32).query, path, seed=3)
    return lambda loaded: (loaded[0].vector,)


def _saved_dataset(path, save=save_dataset):
    save(generate_spoke_clusters(3, 2, 2, 4, 8.0, 1.3, 0.5, seeded_rng(33)), path)
    return lambda loaded: (loaded.features,)


# each file kind: (loader, writer returning the loaded arrays to check);
# "dataset" is the version 2 layout save_dataset writes
FILE_KINDS = {"moco": (load_moco, _saved_moco), "encoder": (load_encoder, _saved_encoder),
              "dataset": (load_dataset, _saved_dataset),
              "dataset-v1": (load_dataset, lambda path: _saved_dataset(path, save_dataset_v1))}


@pytest.fixture(scope="module", params=sorted(FILE_KINDS))
def saved_file(request, tmp_path_factory):
    path = tmp_path_factory.mktemp(request.param) / "file.txt"
    load, save = FILE_KINDS[request.param]
    arrays = save(path)
    return path, path.read_bytes(), load, arrays


class TestFileCorruption:
    """Every loader (moco and encoder checkpoints, datasets of both versions)
    under damage."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_truncation_is_a_format_error(self, saved_file, data):
        path, text, load, _ = saved_file
        cut = data.draw(st.integers(0, len(text) - 1))
        damaged = path.with_name("damaged.txt")
        damaged.write_bytes(text[:cut])
        with pytest.raises(FormatError):
            load(damaged)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_byte_substitution_is_rejected_or_loads_finite(self, saved_file, data):
        path, text, load, arrays = saved_file
        at = data.draw(st.integers(0, len(text) - 1))
        byte = data.draw(st.integers(0, 255))
        damaged = path.with_name("damaged.txt")
        damaged.write_bytes(text[:at] + bytes([byte]) + text[at + 1:])
        try:
            loaded = load(damaged)
        except FormatError:
            return
        for values in arrays(loaded):
            assert np.isfinite(values).all()
