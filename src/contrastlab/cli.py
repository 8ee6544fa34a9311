"""Command-line entry point.

Subcommands: gen-data, pretrain, linear-eval, metrics, export-embeddings,
gradcheck. Configuration comes from a flat `key = value` text file with
repeatable `--set key=value` overrides applied on top; the effective config
is echoed to a manifest file (same format, so manifests are valid configs)
before any work starts.

Exit codes: 0 success, 1 usage or bad config (an eval dataset whose width
differs from the checkpoint's input included), 2 diverged run or failed
self-check, 3 file-format or I/O problems.
"""

import argparse
import fcntl
import math
import os
import sys
from dataclasses import dataclass, fields

from .data import (
    generate_gaussian_clusters,
    generate_spoke_clusters,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .encoder import ENCODER_MAGIC, embed, load_encoder, save_encoder
from .errors import ConfigurationError, ContrastLabError, DivergedRunError, FormatError
from .fileio import atomic_write
from .moco import MOCO_MAGIC, MOCO_V1_MAGIC, load_moco, save_moco
from .numerics import seeded_rng
from .selfcheck import gradient_suite, worst_relative_error
from .training import (
    RunConfig,
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
    a hypercube.
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
        # the generators check the other knobs
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


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
        for key, ok, rule in (
            ("probe_epochs", self.probe_epochs >= 1, ">= 1"),
            ("probe_lr", 0.0 < self.probe_lr < math.inf, "finite and > 0"),
            ("probe_batch_size", self.probe_batch_size >= 1, ">= 1"),
            ("train_fraction", 0.0 < self.train_fraction < 1.0, "in (0, 1)"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not ok:
                raise ConfigurationError(f"{key} must be {rule}, got {getattr(self, key)!r}")


def _parse_value(text: str, target_type):
    if target_type is int:
        return int(text)
    if target_type is float:
        return float(text)
    if target_type is str:
        return text
    # tuple of ints, e.g. hidden_dims = 64,64
    return tuple(int(part) for part in text.split(",") if part.strip())


def read_config_file(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path) as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigurationError(f"{path}:{line_no}: expected key = value, got {raw!r}")
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return entries


def build_config(config_cls, path, overrides):
    """Instantiate a config dataclass from an optional file plus --set pairs."""
    entries: dict[str, str] = {}
    if path:
        entries.update(read_config_file(path))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        entries[key.strip()] = value.strip()
    by_name = {f.name: f for f in fields(config_cls)}
    kwargs = {}
    for key, value in entries.items():
        if key not in by_name:
            raise ConfigurationError(f"unknown config key {key!r} for {config_cls.__name__}")
        spec = by_name[key]
        base = spec.type if isinstance(spec.type, type) else type(spec.default)
        try:
            kwargs[key] = _parse_value(value, base)
        except ValueError as exc:
            raise ConfigurationError(f"config key {key!r}: cannot parse {value!r}") from exc
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
    """One run at a time per output directory.

    `.lock` holds the owner's pid and appears in one step (`atomic_write`).
    Lockers judge and take it under an flock on the directory, so of two that
    find one stale lock, only the first takes it. A lock whose pid no longer
    exists was left by a killed run and is taken over; a lock without a
    readable pid is treated as held.
    """

    def __init__(self, out_dir):
        self.path = os.path.join(out_dir, ".lock")
        self.held = False

    def __enter__(self):
        dir_fd = os.open(os.path.dirname(self.path), os.O_RDONLY)
        try:
            fcntl.flock(dir_fd, fcntl.LOCK_EX)  # released when dir_fd closes
            if self._taken():
                raise OSError(f"output directory is locked by another run: {self.path}")
            with atomic_write(self.path) as fh:
                fh.write(f"{os.getpid()}\n")
            self.held = True
        finally:
            os.close(dir_fd)
        return self

    def _taken(self) -> bool:
        """False when there is no lock or its pid names no process."""
        try:
            with open(self.path) as fh:
                pid = int(fh.read())
        except FileNotFoundError:
            return False
        except ValueError:
            return True
        if pid <= 0:
            return True
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            print(f"note: removing the stale lock of exited pid {pid}", file=sys.stderr)
            return False
        except PermissionError:  # alive, owned by another user
            return True
        return True

    def __exit__(self, *exc_info):
        if self.held:
            os.unlink(self.path)
        return False


def load_any_encoder(path):
    """Read the query encoder out of either checkpoint flavor."""
    with open(path, "rb") as fh:
        magic = fh.readline(64).strip()
    if magic in (MOCO_MAGIC.encode(), MOCO_V1_MAGIC.encode()):
        state, seed = load_moco(path)
        return state.query, seed
    if magic == ENCODER_MAGIC.encode():
        return load_encoder(path)
    raise FormatError(f"unrecognized checkpoint magic {magic!r}", 0)


def _load_eval_inputs(args):
    """An eval command's encoder and dataset, checked to agree in width."""
    encoder, _ = load_any_encoder(args.checkpoint)
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
    elif cfg.kind == "gaussian":
        dataset = generate_gaussian_clusters(
            cfg.classes, cfg.per_class, cfg.dim, cfg.center_spread, cfg.within_sigma,
            seeded_rng(cfg.seed), center_offset=cfg.center_offset,
        )
    else:
        raise ConfigurationError(f"kind must be spokes or gaussian, got {cfg.kind!r}")
    write_manifest(cfg, args.out + ".manifest")
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.sample_count} samples of dim {dataset.dim} to {args.out}")
    return EXIT_OK


def _cmd_pretrain(args) -> int:
    config = build_config(RunConfig, args.config, args.set)
    dataset = load_dataset(args.data)
    config.require_fits(dataset)  # before the run directory exists
    os.makedirs(args.out, exist_ok=True)
    with OutputDirLock(args.out):
        write_manifest(config, os.path.join(args.out, "manifest.cfg"))
        result = pretrain(config, dataset)
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
    accuracy = linear_eval(
        encoder, train, test,
        epochs=cfg.probe_epochs, lr0=cfg.probe_lr, batch_size=cfg.probe_batch_size,
        rng=seeded_rng(cfg.seed + 1),
    )
    print(f"top1_accuracy {accuracy:.4f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_manifest(cfg, os.path.join(args.out, "eval-manifest.cfg"))
        with open(os.path.join(args.out, "results.txt"), "a") as fh:
            fh.write(f"{args.checkpoint} top1_accuracy {accuracy!r}\n")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    encoder, dataset = _load_eval_inputs(args)
    embeddings = embed(encoder, dataset.features)
    print(f"davies_bouldin {davies_bouldin(embeddings, dataset.labels)!r}")
    print(f"calinski_harabasz {calinski_harabasz(embeddings, dataset.labels)!r}")
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

    def add_common(p, config=True):
        if config:
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


if __name__ == "__main__":
    sys.exit(main())
