"""Workload definitions shared by run.py and worker.py."""

import os
import sys

# Scale-band spokes dataset: 10 classes x 10 spokes x 50 points, dim 20.
DATASET_SHAPE = (10, 10, 50, 20, 8.0, 1.3, 0.5)
DESK = ["batch_size=64", "input_dim=20", "lr=0.03", "noise_sigma=0.5", "mask_fraction=0.0",
        "scale_min=1.0", "scale_max=1.0"]
WORKLOADS = {
    # The run users make (the acceptance config at 20 epochs); InfoNCE plus the
    # mixed-query loss take most of a step.
    "desk-moco-mix": {
        "set": DESK + ["mode=moco+mix", "queue_size=512", "hidden_dims=64", "embed_dim=64",
                       "epochs=20"],
        "desk_checks": True,
    },
    # The desk config with an 8x queue: the 64 x 4097 float64 logits exceed
    # the 2 MiB L2, and page faults and sys time grow with K.
    "moco-bigqueue": {
        "set": DESK + ["mode=moco+mix", "queue_size=4096", "hidden_dims=64", "embed_dim=64",
                       "epochs=2"],
    },
}


def config_overrides(workload, seed):
    return WORKLOADS[workload]["set"] + [f"seed={seed}"]


def import_program(root):
    """Import contrastlab from `root/src`, never from an installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "contrastlab", "__init__.py")):
        raise SystemExit(f"error: no contrastlab sources under {src}")
    sys.path.insert(0, src)
    import contrastlab
    from contrastlab import cli

    if not os.path.abspath(contrastlab.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"error: contrastlab imported from {contrastlab.__file__}, not {src}")
    return contrastlab, cli
