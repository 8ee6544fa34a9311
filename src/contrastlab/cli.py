"""Command-line entry point.

Subcommands: gen-data, pretrain, linear-eval, metrics, export-embeddings,
gradcheck. Configuration comes from a flat `key = value` text file with
repeatable `--set key=value` overrides applied on top; the effective config
is echoed to a manifest file (same format, so manifests are valid configs):
before the run by `pretrain` and `linear-eval`, after the dataset by `gen-data`.

Exit codes: 0 success, 1 usage or bad config (an eval dataset whose width
differs from the checkpoint's input, and an array too large to allocate,
included), 2 diverged run or failed self-check, 3 file-format or I/O problems.
"""

import argparse
import contextlib
import fcntl
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .data import (
    generate_gaussian_clusters,
    generate_spoke_clusters,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .encoder import embed, save_encoder
from .errors import ConfigurationError, ContrastLabError, DivergedRunError, FormatError
from .fileio import atomic_write
from .moco import load_query_encoder, save_moco
from .numerics import fits_one_array, seeded_rng
from .selfcheck import gradient_suite, worst_relative_error
from .training import (
    RunConfig,
    _check_rules,
    calinski_harabasz,
    davies_bouldin,
    export_embeddings,
    linear_eval,
    pretrain,
    write_metrics,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3

GRADCHECK_GATE = 1e-5


@dataclass
class DataGenConfig:
    """Knobs for the synthetic generators.

    kind=spokes builds the scale-banded desk dataset (classes differ only in
    input scale); kind=gaussian builds plain isotropic blobs with centers in
    a hypercube. Every knob the selected kind uses is checked here, so the
    generators trust their arguments.
    """

    kind: str = "spokes"
    classes: int = 10
    dim: int = 20
    seed: int = 7
    # gaussian knobs
    per_class: int = 500
    center_spread: float = 10.0
    center_offset: float = 0.0
    # spoke knobs
    spokes: int = 10
    per_mode: int = 50
    base_radius: float = 8.0
    radius_growth: float = 1.3
    # shared
    within_sigma: float = 0.5

    def __post_init__(self):
        is_spokes = self.kind == "spokes"
        # written so that NaN, which fails every comparison, fails each check
        _check_rules(self, (
            ("kind", is_spokes or self.kind == "gaussian", "spokes or gaussian"),
            ("classes", self.classes >= 2, ">= 2"),
            ("dim", self.dim >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("within_sigma", 0.0 < self.within_sigma < math.inf, "finite and > 0"),
            ("spokes", not is_spokes or self.spokes >= 1, ">= 1"),
            ("per_mode", not is_spokes or self.per_mode >= 1, ">= 1"),
            ("base_radius", not is_spokes or 0.0 < self.base_radius < math.inf, "finite and > 0"),
            ("radius_growth", not is_spokes or 1.0 < self.radius_growth < math.inf, "finite and > 1"),
            ("per_class", is_spokes or self.per_class >= 1, ">= 1"),
            ("center_spread", is_spokes or 0.0 < self.center_spread < math.inf, "finite and > 0"),
            ("center_offset", is_spokes or -math.inf < self.center_offset < math.inf, "finite"),
        ))
        samples = self.classes * (self.spokes * self.per_mode if is_spokes else self.per_class)
        if not fits_one_array(samples * self.dim):
            raise ConfigurationError(
                f"{samples} samples of dim {self.dim} are more values than one array can hold")


@dataclass
class EvalConfig:
    """Linear-probe protocol: 100 epochs from base rate 3.0 by default."""

    probe_epochs: int = 100
    probe_lr: float = 3.0
    probe_batch_size: int = 64
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        # a probe that never steps prints chance accuracy as if it were a result
        _check_rules(self, (
            ("probe_epochs", self.probe_epochs >= 1, ">= 1"),
            ("probe_lr", 0.0 < self.probe_lr < math.inf, "finite and > 0"),
            ("probe_batch_size", self.probe_batch_size >= 1, ">= 1"),
            ("train_fraction", 0.0 < self.train_fraction < 1.0, "in (0, 1)"),
            ("seed", self.seed >= 0, ">= 0"),
        ))


def build_config(config_cls, path, overrides):
    """Instantiate a config dataclass from an optional file plus --set items.

    Both are `key = value` lines, where `#` starts a comment; a file may also
    hold blank and comment-only lines, and each --set item is one line. A
    later line overrides an earlier one. A value converts with its field's
    type; a tuple field takes comma-separated ints (hidden_dims = 64,64),
    and an empty value is the empty tuple (`hidden_dims =`: no hidden layer).
    """
    lines = []
    if path:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        lines = [(f"{path}:{n}", raw) for n, raw in enumerate(text.split("\n"), 1)
                 if raw.split("#", 1)[0].strip()]
    types = {f.name: f.type for f in fields(config_cls)}
    kwargs = {}
    for where, raw in lines + [("--set", item) for item in overrides or []]:
        key, eq, value = (part.strip() for part in raw.split("#", 1)[0].partition("="))
        if not eq:
            raise ConfigurationError(f"{where}: expected key = value, got {raw!r}")
        if key not in types:
            raise ConfigurationError(
                f"{where}: unknown config key {key!r} for {config_cls.__name__}")
        try:
            if types[key] == tuple[int, ...]:
                # an empty value is the empty tuple; an empty entry is a slip
                parts = value.split(",") if value else []
                if not all(part.strip() for part in parts):
                    raise ConfigurationError(
                        f"{key} must be comma-separated ints with no empty entry, got {value!r}")
                kwargs[key] = tuple(int(part) for part in parts)
            else:
                kwargs[key] = types[key](value)
        except ValueError as exc:
            raise ConfigurationError(
                f"{where}: config key {key!r}: cannot parse {value!r}") from exc
    return config_cls(**kwargs)


def config_text(config) -> str:
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def write_manifest(config, path) -> None:
    with atomic_write(path) as fh:
        fh.write(config_text(config))


class OutputDirLock:
    """One run at a time per output directory: an exclusive `flock` on the
    directory itself, held for the `with` block. The kernel releases it when
    the descriptor closes, so a run that is killed leaves nothing to reclaim."""

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def __enter__(self):
        self.fd = os.open(self.out_dir, os.O_RDONLY)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self.fd)
            raise OSError(f"output directory is locked by another run: {self.out_dir}") from None
        return self

    def __exit__(self, *exc_info):
        os.close(self.fd)


def _load_eval_inputs(args):
    """An eval command's encoder and dataset, checked to agree in width."""
    encoder, _ = load_query_encoder(args.checkpoint)
    dataset = load_dataset(args.data)
    if dataset.dim != encoder.input_dim:
        raise ConfigurationError(
            f"dataset dim {dataset.dim} != checkpoint input dim {encoder.input_dim}")
    return encoder, dataset


def _cmd_gen_data(args) -> int:
    cfg = build_config(DataGenConfig, args.config, args.set)
    if cfg.kind == "spokes":
        dataset = generate_spoke_clusters(
            cfg.classes, cfg.spokes, cfg.per_mode, cfg.dim, cfg.base_radius,
            cfg.radius_growth, cfg.within_sigma, seeded_rng(cfg.seed),
        )
    else:
        dataset = generate_gaussian_clusters(
            cfg.classes, cfg.per_class, cfg.dim, cfg.center_spread, cfg.within_sigma,
            seeded_rng(cfg.seed), center_offset=cfg.center_offset,
        )
    save_dataset(dataset, args.out)  # first: a failed write leaves no manifest of it
    write_manifest(cfg, args.out + ".manifest")
    print(f"wrote {dataset.sample_count} samples of dim {dataset.dim} to {args.out}")
    return EXIT_OK


def _cmd_pretrain(args) -> int:
    config = build_config(RunConfig, args.config, args.set)
    dataset = load_dataset(args.data)
    config.require_fits(dataset)  # before the run directory exists
    made, path = [], os.path.abspath(args.out)  # the directories this run makes, deepest first
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(args.out, exist_ok=True)
    manifest = os.path.join(args.out, "manifest.cfg")
    with OutputDirLock(args.out):
        previous = Path(manifest).read_bytes() if os.path.exists(manifest) else None
        write_manifest(config, manifest)
        try:
            result = pretrain(config, dataset)
        except MemoryError:
            # exit 1 (an encoder too large to allocate, say): undo the manifest
            # and the directories, and report this error, not a failed undo
            with contextlib.suppress(OSError):
                if previous is None:
                    os.unlink(manifest)
                else:
                    with atomic_write(manifest) as fh:
                        fh.buffer.write(previous)
                for path in made:
                    os.rmdir(path)
            raise
        checkpoint = os.path.join(args.out, "checkpoint.txt")
        if result.moco_state is not None:
            save_moco(result.moco_state, checkpoint, seed=config.seed)
        else:
            save_encoder(result.encoder, checkpoint, seed=config.seed)
        write_metrics(result.metrics, os.path.join(args.out, "metrics.csv"))
    last = result.metrics[-1]
    print(
        f"pretrained {config.epochs} epochs: final l_total {last.l_total:.6f} "
        f"(contrast {last.l_contrast:.6f}, mixed {last.l_mixed:.6f})"
    )
    print(f"checkpoint: {checkpoint}")
    return EXIT_OK


def _cmd_linear_eval(args) -> int:
    cfg = build_config(EvalConfig, args.config, args.set)
    encoder, dataset = _load_eval_inputs(args)
    train, test = split_dataset(dataset, cfg.train_fraction, seeded_rng(cfg.seed))
    # like pretrain's run directory: after the inputs and the split are checked,
    # before the probe
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_manifest(cfg, os.path.join(args.out, "eval-manifest.cfg"))
    accuracy = linear_eval(
        encoder, train, test,
        epochs=cfg.probe_epochs, lr0=cfg.probe_lr, batch_size=cfg.probe_batch_size,
        rng=seeded_rng(cfg.seed + 1),
    )
    if args.out:
        with open(os.path.join(args.out, "results.txt"), "a") as fh:
            fh.write(f"{args.checkpoint} top1_accuracy {accuracy!r}\n")
    # last, so a failed write leaves stdout empty
    print(f"top1_accuracy {accuracy:.4f}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    encoder, dataset = _load_eval_inputs(args)
    embeddings = embed(encoder, dataset.features)
    # both before printing either: a failing index must leave stdout empty
    db = davies_bouldin(embeddings, dataset.labels)
    ch = calinski_harabasz(embeddings, dataset.labels)
    print(f"davies_bouldin {db!r}\ncalinski_harabasz {ch!r}")
    return EXIT_OK


def _cmd_export(args) -> int:
    encoder, dataset = _load_eval_inputs(args)
    export_embeddings(encoder, dataset, args.out)
    print(f"wrote {dataset.sample_count} embeddings to {args.out}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = gradient_suite()
    for name, report in results:
        print(f"{name}: max relative error {report.max_relative_error:.3e}")
    worst = worst_relative_error(results)
    print(f"worst relative error {worst:.3e} over {len(results)} checks")
    if worst >= GRADCHECK_GATE:
        print(f"FAIL: gradient check exceeded {GRADCHECK_GATE}", file=sys.stderr)
        return EXIT_DIVERGED
    print("OK")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contrastlab",
        description="Desk-scale contrastive representation learning with soft-target mixed queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    p = sub.add_parser("gen-data", help="generate a synthetic clustered dataset")
    add_common(p)
    p.add_argument("--out", required=True, help="dataset file to write")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("pretrain", help="run self-supervised pretraining")
    add_common(p)
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("linear-eval", help="linear-probe a frozen checkpoint")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="directory for the appended results file")
    p.set_defaults(func=_cmd_linear_eval)

    p = sub.add_parser("metrics", help="print cluster-validity indices of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("export-embeddings", help="write embeddings as labeled text rows")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the config/usage code
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except DivergedRunError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (FormatError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ContrastLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
