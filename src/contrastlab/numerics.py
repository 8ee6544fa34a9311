"""Dense float64 arithmetic, stable softmax-family ops, gradient checking, and
the BLAS thread pin the training loop runs under.

All values are carried in C-contiguous numpy float64 arrays; every reduction
uses a fixed deterministic kernel, so identical inputs give bitwise-identical
outputs across runs. Random streams come from `seeded_rng` (numpy's PCG64).
"""

import contextlib
import ctypes
import glob
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DivergedRunError

Tensor = np.ndarray

# Rows whose Euclidean norm falls at or below this are left unnormalized
# (divided by it instead); guards zero rows.
DEFAULT_NORM_EPS = 1e-12


def as_f64(x) -> Tensor:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(x, dtype=np.float64)


def as_matrix(x, name: str = "input") -> Tensor:
    out = as_f64(x)
    if out.ndim != 2:
        raise ConfigurationError(f"{name} must be 2-D, got shape {out.shape}")
    return out


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic random stream: numpy Generator over the PCG64 bit stream.

    Same seed, same sequence of uniforms/normals/permutations, on every
    platform and run.
    """
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Independent child streams derived from one master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


# (get, set) thread-count symbol pairs, the names perfbench/run.py probes:
# scipy-openblas wheels and plain builds, 64-bit-integer interfaces first
_OPENBLAS_THREAD_SYMBOLS = [
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
]


def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS bundled with numpy,
    or None when numpy ships no such library or it exports neither."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with OpenBLAS on one thread and restore the previous
    count on exit. `pretrain` runs its whole loop under it: at desk-scale
    GEMMs a second thread mostly spins, and at K=4096 it buys back less wall
    time than the CPU time it burns. Results do not depend on the count.
    Does nothing when numpy's OpenBLAS cannot be found."""
    controls = _openblas_threads()
    if controls is None:
        yield
        return
    get, set_ = controls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax via max-subtraction; each output row sums to 1."""
    logits = as_matrix(logits, "logits")
    if not np.isfinite(logits).all():
        raise ConfigurationError("softmax input must be finite")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-softmax via max-subtraction."""
    logits = as_matrix(logits, "logits")
    if not np.isfinite(logits).all():
        raise ConfigurationError("log_softmax input must be finite")
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _check_target_rows(targets: Tensor) -> None:
    if (targets < 0.0).any():
        raise ConfigurationError("target rows must be nonnegative")
    sums = targets.sum(axis=1)
    worst = np.abs(sums - 1.0).max() if sums.size else 0.0
    if worst > 1e-9:
        raise ConfigurationError(f"target rows must sum to 1 (worst deviation {worst:.3e})")


def soft_cross_entropy(logits: Tensor, targets: Tensor) -> tuple[float, Tensor]:
    """Mean soft-target cross-entropy and its gradient wrt the logits.

    Returns -(1/n) * sum_ij targets[i,j] * log_softmax(logits)[i,j] together
    with (softmax(logits) - targets) / n.
    """
    logits = as_matrix(logits, "logits")
    targets = as_matrix(targets, "targets")
    if logits.shape != targets.shape:
        raise ConfigurationError(f"logits {logits.shape} and targets {targets.shape} must match")
    _check_target_rows(targets)
    n = logits.shape[0]
    value = float(-(targets * log_softmax(logits)).sum() / n)
    grad = (softmax(logits) - targets) / n
    return value, grad


def guarded_row_norms(x: Tensor) -> Tensor:
    """max(DEFAULT_NORM_EPS, Euclidean norm) of each row of the float64
    matrix `x`, as an (N, 1) column. `x` is not checked. The squares are
    formed 256 rows at a time (a desk step's encode is one chunk), so
    `encode`, which keeps its layer inputs alive, needs no third N-row array;
    for a C-contiguous or row-strided `x` the bits are those of one pass.

    A finite row whose sum of squares overflows (entries near 1e154 and up)
    is measured again as max|x| * norm(x / max|x|), so it still normalizes
    to a unit row; every other row keeps the bits of the plain sum."""
    norms = np.empty((x.shape[0], 1))
    with np.errstate(over="ignore"):
        for start in range(0, x.shape[0], 256):
            rows = x[start : start + 256]
            (rows * rows).sum(axis=1, keepdims=True, out=norms[start : start + 256])
    np.sqrt(norms, out=norms)
    if np.isinf(norms).any():
        _rescale_overflowed(x, norms)
    return np.maximum(norms, DEFAULT_NORM_EPS, out=norms)


def _rescale_overflowed(x: Tensor, norms: Tensor) -> None:
    """Replace, in `norms`, each infinite norm of a finite row of `x` by
    max|x| * norm(x / max|x|); rows holding an inf keep norm inf."""
    rows = np.flatnonzero(np.isinf(norms[:, 0]))
    scale = np.abs(x[rows]).max(axis=1, keepdims=True)
    finite = np.isfinite(scale[:, 0])
    rows, scale = rows[finite], scale[finite]
    unit = x[rows] / scale
    with np.errstate(over="ignore"):
        norms[rows] = scale * np.sqrt((unit * unit).sum(axis=1, keepdims=True))


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Divide each row by max(DEFAULT_NORM_EPS, its Euclidean norm)."""
    x = as_matrix(x)
    return x / guarded_row_norms(x)


def l2_normalize_rows_vjp(x: Tensor, grad_out: Tensor) -> Tensor:
    """Pull `grad_out` back through l2_normalize_rows at the point `x`."""
    x = as_matrix(x)
    grad_out = as_matrix(grad_out, "grad_out")
    if grad_out.shape != x.shape:
        raise ConfigurationError(f"grad {grad_out.shape} does not match point {x.shape}")
    guarded = guarded_row_norms(x)
    y = x / guarded
    inner = (grad_out * y).sum(axis=1, keepdims=True)
    # active rows see the full normalization Jacobian; guarded rows are linear
    active = guarded > DEFAULT_NORM_EPS  # max(n, eps) > eps exactly when n > eps
    return np.where(active, (grad_out - inner * y) / guarded, grad_out / guarded)


@dataclass
class GradCheckReport:
    """Worst-case comparison of an analytic gradient against central differences."""

    max_relative_error: float
    worst_coordinate: tuple
    analytic_value: float
    numeric_value: float


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1e-12, abs(analytic) + abs(numeric))


def finite_difference_check(
    f: Callable[[Tensor], tuple[float, Tensor]],
    point: Tensor,
    step: float = 1e-5,
) -> GradCheckReport:
    """Check f's analytic gradient against central differences at `point`.

    `f` maps an array to (scalar value, gradient array of the same shape).
    Every coordinate is probed with (f(x+h*e_i) - f(x-h*e_i)) / 2h. A
    non-finite analytic gradient or probe value raises DivergedRunError: a
    NaN's relative error is NaN, which no gate would catch.
    """
    if step <= 0.0:
        raise ConfigurationError(f"step must be positive, got {step}")
    point = as_f64(point)
    _, analytic = f(point)
    analytic = as_f64(analytic)
    if analytic.shape != point.shape:
        raise ConfigurationError(
            f"analytic gradient shape {analytic.shape} does not match point {point.shape}"
        )
    if not np.isfinite(analytic).all():
        first = tuple(int(i) for i in np.argwhere(~np.isfinite(analytic))[0])
        raise DivergedRunError(f"non-finite analytic gradient at {first}")
    report = GradCheckReport(-1.0, (), 0.0, 0.0)
    for idx in np.ndindex(point.shape):
        plus = point.copy()
        plus[idx] += step
        minus = point.copy()
        minus[idx] -= step
        f_plus, _ = f(plus)
        f_minus, _ = f(minus)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise DivergedRunError(f"non-finite value at probe {idx}")
        numeric = (f_plus - f_minus) / (2.0 * step)
        rel = relative_error(float(analytic[idx]), numeric)
        if rel > report.max_relative_error:
            report = GradCheckReport(rel, idx, float(analytic[idx]), numeric)
    return report
