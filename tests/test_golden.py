"""Golden digests: a change that only moves code around must leave every
mode's checkpoint, its metrics rows (without the `seconds` column) and the
`gradcheck` stdout bit-identical.

The last bits of a run depend on numpy and on the BLAS build, so the digests
are keyed by numpy's version and the configuration string of the OpenBLAS
bundled with numpy. On a platform with no recorded digests the test skips
and names its key; `python tests/test_golden.py` prints the key and the
digests of the current tree, to record them from a commit known to be good.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import os

import numpy as np
import pytest

from contrastlab import cli
from contrastlab.training import MODES

_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "openblas_get_config64_",
                   "scipy_openblas_get_config", "openblas_get_config")

DATA_SETS = ["--set", "classes=4", "--set", "spokes=2", "--set", "per_mode=16",
             "--set", "dim=8", "--set", "seed=3"]
RUN_SETS = ["--set", "input_dim=8", "--set", "hidden_dims=16", "--set", "embed_dim=8",
            "--set", "batch_size=16", "--set", "epochs=3", "--set", "seed=11"]

# platform key -> name -> sha256; names are "<mode> checkpoint", "<mode>
# metrics" and "gradcheck"
DIGESTS = {
    "numpy 2.4.6 | OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64": {
        "moco checkpoint": "f915a5e35916fac6ac148a8cabf0dbe21bbe4e26d94e9ba6217ce8f304168669",
        "moco metrics": "d56b7ffc41c8825cc84b44624589de528ff2d0341e5472ba771e0f03cb7e519a",
        "moco+mix checkpoint": "df6ab09bdf697e9667d94fac6c37f1c12828f42ab0e217219e0cc6a9056ffbba",
        "moco+mix metrics": "06f2c8ae00de38e66d97c64bbbfb2acc5c6d07aada967eed546b9c4c0fb75e69",
        "simclr checkpoint": "714c5e34cf72f0f4f4d80e0428ca424ce9fc7804d5a3373e83518e2939adfcb4",
        "simclr metrics": "92c436469e301f4f2f60d4133ee76135b0fde1a87d1dd7a9409406a945f26acb",
        "simclr+mix checkpoint": "79f0b4ceecd98c6a70c2ff9e5300dc51fcd1155bcabd4265a4f7239401ae9c1b",
        "simclr+mix metrics": "e8b8af6a0afe85e96e06ddb07a6899db5a0c508b9567f48163d64b5b72a58c76",
        "gradcheck": "a8aba5f2024b5aeaf74d67dcf7899edabcbe5f3635e2904d6a25bb9fa610da6b",
    },
}


def platform_key() -> str:
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    blas = "no bundled OpenBLAS"
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in _CONFIG_SYMBOLS:
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                blas = get().decode()
                break
    return f"numpy {np.__version__} | {blas}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def digests(work) -> dict[str, str]:
    """Digests of a pretrain in each mode on one small dataset, and of the
    `gradcheck` stdout; `work` is an empty directory."""
    data = os.path.join(work, "data.txt")
    _main("gen-data", "--out", data, *DATA_SETS)
    found = {}
    for i, mode in enumerate(MODES):
        out = os.path.join(work, f"run{i}")
        queue = 48 if mode.startswith("moco") else 0
        _main("pretrain", "--data", data, "--out", out, "--set", f"mode={mode}",
              "--set", f"queue_size={queue}", *RUN_SETS)
        with open(os.path.join(out, "checkpoint.txt"), "rb") as fh:
            found[f"{mode} checkpoint"] = _sha(fh.read())
        with open(os.path.join(out, "metrics.csv")) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh]
        drop = rows[0].index("seconds")
        kept = "".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows)
        found[f"{mode} metrics"] = _sha(kept.encode())
    found["gradcheck"] = _sha(_main("gradcheck").encode())
    return found


def test_runs_and_gradcheck_match_the_recorded_digests(tmp_path):
    key = platform_key()
    if key not in DIGESTS:
        pytest.skip(f"no golden digests recorded for {key!r}")
    assert digests(tmp_path) == DIGESTS[key]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        print(f"{platform_key()!r}: {digests(work)!r},")
