"""Which contrastlab functions the traced run wraps, what each per-layer
metric is called, and which end-to-end metric each layer should move.

Per-layer metric names are `<module>.<function>.<stat>`:
  - step functions (called inside the pretrain loop): `self_us_per_step`,
    `calls_per_step`, `minflt_per_step`, over the traced pretrain repeats;
  - eval functions (one pass = linear-eval, metrics, export-embeddings
    through `cli.main`): `self_ms_per_pass`;
  - setup functions: `self_ms_per_setup`.
Self time is a span's duration minus that of its child spans.
"""

STEP_FUNCTIONS = [
    ("contrastive", "infonce_loss"),
    ("contrastive", "mixed_query_loss"),
    ("contrastive", "mixup_half_batch"),
    ("numerics", "softmax"),
    ("numerics", "log_softmax"),
    ("numerics", "soft_cross_entropy"),
    ("numerics", "l2_normalize_rows_vjp"),
    ("encoder", "encode"),
    ("encoder", "encoder_backward"),
    ("encoder", "apply_sgd_step"),
    ("encoder", "add_scaled"),
    ("moco", "key_forward_no_grad"),
    ("moco", "momentum_update"),
    ("moco", "enqueue_dequeue"),
    ("data", "two_views"),
    ("data", "epoch_batches"),
    ("training", "pretrain"),
]

# `cli.<command>` spans come from wrapping `cli.main`; their self time is
# argparse, config, manifest, lock and result formatting.
EVAL_FUNCTIONS = [
    ("encoder", "encode"),
    ("moco", "load_moco"),
    ("data", "load_dataset"),
    ("training", "linear_eval"),
    ("training", "davies_bouldin"),
    ("training", "calinski_harabasz"),
    ("training", "export_embeddings"),
    ("cli", "linear-eval"),
    ("cli", "metrics"),
    ("cli", "export-embeddings"),
]

SETUP_FUNCTIONS = [
    ("data", "generate_spoke_clusters"),
    ("data", "save_dataset"),
    ("data", "load_dataset"),
    ("moco", "init_moco"),
    ("encoder", "init_encoder"),
]

SOFTMAX_FAMILY = ["numerics.softmax", "numerics.log_softmax"]
LOSS_FUNCTIONS = ["contrastive.infonce_loss", "contrastive.mixed_query_loss"]


def traced_targets():
    """(module, function) pairs to wrap; `cli.*` spans come from `cli.main`."""
    seen = []
    for module, fn in STEP_FUNCTIONS + EVAL_FUNCTIONS + SETUP_FUNCTIONS:
        if module != "cli" and (module, fn) not in seen:
            seen.append((module, fn))
    return seen


def per_layer_metrics():
    """[(name, unit, better)] in the order the benchmark prints them."""
    out = []
    for module, fn in STEP_FUNCTIONS:
        out += [(f"{module}.{fn}.self_us_per_step", "us/step", "lower"),
                (f"{module}.{fn}.calls_per_step", "calls/step", "lower"),
                (f"{module}.{fn}.minflt_per_step", "faults/step", "lower")]
    out += [(f"{module}.{fn}.self_ms_per_pass", "ms/pass", "lower")
            for module, fn in EVAL_FUNCTIONS]
    out += [(f"{module}.{fn}.self_ms_per_setup", "ms/setup", "lower")
            for module, fn in SETUP_FUNCTIONS]
    out += [
        ("numerics.softmax_passes_per_loss", "ratio", "lower"),
        ("process.minflt_per_step", "faults/step", "lower"),
        ("process.sys_frac", "fraction", "lower"),
        ("trace.pretrain_accounted_frac", "fraction", "higher"),
        ("trace.train_overhead_frac", "fraction", "lower"),
        ("trace.eval_overhead_frac", "fraction", "lower"),
    ]
    return out


# Layer -> the end-to-end metrics it should move and the workloads it should
# move them on. A layer that does not run on a workload predicts no change.
LAYER_MAP = {
    "contrastive": {
        "functions": ["infonce_loss", "mixed_query_loss", "mixup_half_batch"],
        "moves": ["train_samples_per_s", "cpu_s_per_ksample"],
        "on": ["desk-moco-mix", "moco-bigqueue"],
        "no_move_on": ["setup_s, eval_s (set-up and eval passes never call the losses)"],
    },
    "numerics": {
        "functions": ["softmax", "log_softmax", "soft_cross_entropy", "l2_normalize_rows_vjp",
                      "softmax_passes_per_loss (softmax-family calls / loss calls)"],
        "moves": ["train_samples_per_s"],
        "on": ["desk-moco-mix", "moco-bigqueue"],
    },
    "encoder": {
        "functions": ["encode", "encoder_backward", "apply_sgd_step", "add_scaled"],
        "moves": ["train_samples_per_s", "eval_s (encode)"],
        "on": ["desk-moco-mix (about 15% of a step)", "all (eval passes)"],
    },
    "moco": {
        "functions": ["key_forward_no_grad (self, excluding encode)", "momentum_update",
                      "enqueue_dequeue", "load_moco"],
        "moves": ["train_samples_per_s", "eval_s (load_moco)"],
        "on": ["desk-moco-mix", "moco-bigqueue"],
    },
    "data": {
        "functions": ["two_views", "epoch_batches", "load_dataset", "save_dataset",
                      "generate_spoke_clusters"],
        "moves": ["train_samples_per_s", "setup_s (parsers, writer)", "eval_s (load_dataset)"],
        "on": ["all"],
    },
    "training": {
        "functions": ["pretrain (self: loop residual)", "linear_eval", "davies_bouldin",
                      "calinski_harabasz", "export_embeddings"],
        "moves": ["train_samples_per_s", "eval_s", "probe_top1"],
        "on": ["all"],
    },
    "cli": {
        "functions": ["linear-eval", "metrics", "export-embeddings (self: argparse, config, "
                      "manifest, lock)"],
        "moves": ["eval_s"],
        "on": ["all (eval phase)"],
    },
    "process": {
        "functions": ["minflt_per_step", "sys_frac"],
        "moves": ["cpu_s_per_ksample"],
        "on": ["moco-bigqueue (most)"],
    },
}
