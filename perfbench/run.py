"""contrastlab benchmark: run one workload for one seed and print its metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk-moco-mix --seed 0 --seconds 60 --trace 0

Each run of every workload times three operations, interleaved over the
window so that each samples the whole of it (machine speed drifts over
seconds to minutes on a shared VM):
  - set-up, before every other operation: generate the spokes dataset from
    the seed, write it and read it back, build the run config, initialise the
    encoder/queue;
  - pretrain: one `training.pretrain` run in a fresh worker process
    (worker.py), which writes the checkpoint; at least MIN_REPEATS, and
    TRAIN_SHARE of the time the window spends in operations;
  - eval: one pass of `linear-eval`, `metrics` and `export-embeddings` through
    `cli.main` on that checkpoint, in a fresh worker process; at least
    MIN_PASSES.
Set-up and eval times are normalised for machine speed (see calibration.py),
throughput is sampled per epoch; each metric is the median over its samples,
and raw medians are printed too. Outputs are checked along the way; each
pretrain run, CLI command and output check is one attempted operation. The last stdout line is the JSON result. With `--trace 1`, every
other operation of each kind runs under the span tracer, and the result holds
the per-layer metrics instead of the end-to-end ones.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibration import Calibration, speed_factor
from layers import (EVAL_FUNCTIONS, LOSS_FUNCTIONS, SETUP_FUNCTIONS, SOFTMAX_FAMILY,
                    STEP_FUNCTIONS, per_layer_metrics, traced_targets)
from spans import Tracer, read_spans, self_totals
from workloads import DATASET_SHAPE, WORKLOADS, config_overrides, import_program

MIN_REPEATS = 2
MIN_PASSES = 3
TRAIN_SHARE = 0.6
WORKER_TIMEOUT_S = 150
LOSS_IDENTITY_TOL = 1e-10
PROBE_GAP = 0.10  # acceptance (b): trained probe beats a random encoder by 10 points

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "cpu_s_per_ksample": "s/ksample",
    "peak_rss_mb": "MB",
    "probe_top1": "fraction",
    "eval_s": "s",
}
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas_version = None
    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_start": list(os.getloadavg()),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def file_sha(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


class Bench:
    def __init__(self, args, root, workdir, spans_dir, package, cli):
        from contrastlab import data, encoder, moco, numerics, training

        self.args, self.root, self.workdir, self.spans_dir = args, root, workdir, spans_dir
        self.package, self.cli = package, cli
        self.data, self.encoder, self.moco = data, encoder, moco
        self.numerics, self.training = numerics, training
        self.spec = WORKLOADS[args.workload]
        self.tracer = Tracer()
        self.calibration = Calibration()
        self.attempted = 0
        self.failed = 0
        self.dataset_path = os.path.join(workdir, "dataset.txt")
        self.checkpoint_path = os.path.join(workdir, "checkpoint.txt")

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {what} {detail}".rstrip(), file=sys.stderr)
        return ok

    @contextlib.contextmanager
    def traced(self, on, root):
        """Install the tracer and open a root span when `on`."""
        if not on:
            yield
            return
        with self.tracer.installed(self.package, traced_targets()), self.tracer.span(root):
            yield

    # -- set-up ------------------------------------------------------------

    def setup_once(self):
        generated = self.data.generate_spoke_clusters(
            *DATASET_SHAPE, self.numerics.seeded_rng(self.args.seed))
        self.data.save_dataset(generated, self.dataset_path)
        dataset = self.data.load_dataset(self.dataset_path)
        config = self.cli.build_config(self.training.RunConfig, None,
                                       config_overrides(self.args.workload, self.args.seed))
        init_rng = self.numerics.seeded_rng(self.args.seed)
        if config.uses_queue:
            self.moco.init_moco(config.layer_sizes, config.queue_size,
                                        config.ema_momentum, init_rng)
        else:
            self.encoder.init_encoder(config.layer_sizes, init_rng)
        return generated, dataset, config

    def setup(self, traced):
        before = self.calibration.measure()
        with self.traced(traced, "bench.setup"):
            started = time.perf_counter()
            generated, dataset, config = self.setup_once()
            wall = time.perf_counter() - started
        speed = speed_factor(before, self.calibration.measure())
        self.check("dataset round trip",
                   generated.features.tobytes() == dataset.features.tobytes()
                   and generated.labels.tobytes() == dataset.labels.tobytes())
        self.dataset, self.config = dataset, config
        return {"wall": wall, "normalised": wall * speed, "traced": traced}

    # -- timed operations, each in a fresh worker process -----------------

    def spawn(self, operation, traced, index):
        command = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), operation,
                   "--workload", self.args.workload, "--seed", str(self.args.seed),
                   "--data", self.dataset_path, "--checkpoint", self.checkpoint_path,
                   "--workdir", self.workdir]
        spans_path = os.path.join(self.spans_dir, f"{operation}-{index}.jsonl") if traced else None
        if spans_path:
            command += ["--spans", spans_path]
        done = subprocess.run(command, cwd=self.root, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            self.check(f"{operation} worker", False, done.stderr[-2000:])
            raise SystemExit(f"error: {operation} worker exited {done.returncode}")
        sample = json.loads(done.stdout.splitlines()[-1])
        sample["traced"] = traced
        sample["spans"] = spans_path
        return sample

    def pretrain_once(self, traced, index):
        sample = self.spawn("pretrain", traced, index)
        self.attempted += 1  # the pretrain run itself
        rows = sample["rows"]
        self.check("loss terms finite",
                   all(math.isfinite(v) for row in rows for v in row[1:4]))
        worst = max(abs(l_total - (l_contrast + sample["mix_weight"] * l_mixed))
                    for _, l_contrast, l_mixed, l_total, _ in rows)
        self.check("l_total identity", worst <= LOSS_IDENTITY_TOL, f"worst {worst!r}")
        if self.spec.get("desk_checks"):
            self.check("loss falls", rows[-1][3] < rows[0][3], f"{rows[0][3]!r} -> {rows[-1][3]!r}")
        covered = sum(sample["epoch_seconds"]) / sample["wall"]
        self.check("epoch seconds cover the pretrain wall", 0.9 <= covered <= 1.0 + 1e-6,
                   f"{covered!r}")
        rows_text = "\n".join(",".join(repr(v) for v in row) for row in rows)
        sample["digest"] = (hashlib.sha256(rows_text.encode()).hexdigest(),
                            file_sha(self.checkpoint_path))
        return sample

    def eval_once(self, traced, index):
        sample = self.spawn("eval", traced, index)
        for command, code in zip(sample["commands"], sample["codes"]):
            self.check(f"{command} exit code", code == 0, f"got {code}")
        printed = "".join(sample["outputs"][:2])
        values = {}
        for line in printed.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in ("top1_accuracy", "davies_bouldin",
                                                 "calinski_harabasz"):
                values[parts[0]] = float(parts[1])
        self.check("probe accuracy printed", "top1_accuracy" in values)
        self.check("cluster indices finite",
                   all(math.isfinite(values.get(k, math.nan))
                       for k in ("davies_bouldin", "calinski_harabasz")), str(values))
        export_path = os.path.join(self.workdir, "embeddings.txt")
        if index == 0:
            rows = self.export_rows(export_path)
            self.check("export re-parses", rows == self.dataset.sample_count, f"{rows} rows")
        sample["values"] = values
        sample["digest"] = (hashlib.sha256(printed.encode()).hexdigest(), file_sha(export_path))
        return sample

    def export_rows(self, path):
        """Data rows of an embedding export, or -1 if any row is malformed."""
        width = self.config.embed_dim
        rows = 0
        with open(path) as fh:
            if len(fh.readline().split()) != width + 1:
                return -1
            for line in fh:
                parts = line.split()
                try:
                    int(parts[0])
                    values = [float(p) for p in parts[1:]]
                except (ValueError, IndexError):
                    return -1
                if len(values) != width or not all(map(math.isfinite, values)):
                    return -1
                rows += 1
        return rows

    # -- schedule ----------------------------------------------------------

    def determinism(self, what, samples):
        for sample in samples[1:]:
            self.check(f"{what} deterministic", sample["digest"] == samples[0]["digest"])

    def run(self):
        trace = bool(self.args.trace)
        self.setups = [self.setup(trace)]
        self.repeats, self.passes = [], []
        window_start = time.perf_counter()
        spent = {"pretrain": 0.0, "eval": 0.0}
        durations = {"pretrain": [], "eval": []}
        while True:
            short_of = [k for k, done, least in (("pretrain", self.repeats, MIN_REPEATS),
                                                 ("eval", self.passes, MIN_PASSES))
                        if len(done) < least]
            if not self.repeats or spent["pretrain"] <= TRAIN_SHARE * sum(spent.values()):
                kind = "pretrain"
            else:
                kind = "eval"
            if short_of and kind not in short_of:
                kind = short_of[0]
            if not short_of:
                expected = statistics.median(durations[kind])
                if time.perf_counter() - window_start + expected > self.args.seconds:
                    break
            started = time.perf_counter()
            if len(self.setups) <= len(self.repeats) + len(self.passes):
                self.setups.append(self.setup(trace and len(self.setups) % 2 == 1))
            done = self.repeats if kind == "pretrain" else self.passes
            step = self.pretrain_once if kind == "pretrain" else self.eval_once
            done.append(step(trace and len(done) % 2 == 1, len(done)))
            durations[kind].append(time.perf_counter() - started)
            spent[kind] += durations[kind][-1]
        self.determinism("pretrain", self.repeats)
        self.determinism("eval pass", self.passes)
        self.probe_top1 = self.passes[0]["values"].get("top1_accuracy", math.nan)
        if self.spec.get("desk_checks"):
            self.check_probe_gap()

    def check_probe_gap(self):
        """The trained encoder's probe beats a seeded random encoder's under
        the split and probe seed `linear-eval --set seed=<seed>` uses."""
        seed = self.args.seed
        train, test = self.data.split_dataset(self.dataset, 0.8, self.numerics.seeded_rng(seed))
        random_encoder = self.encoder.init_encoder(self.config.layer_sizes,
                                                   self.numerics.seeded_rng(seed + 1000))
        random_top1 = self.training.linear_eval(
            random_encoder, train, test, epochs=100, lr0=3.0, batch_size=64,
            rng=self.numerics.seeded_rng(seed + 1))
        self.check("probe beats random encoder", self.probe_top1 - random_top1 >= PROBE_GAP,
                   f"{self.probe_top1!r} vs {random_top1!r}")

    # -- results -----------------------------------------------------------

    def end_to_end(self, normalised=True):
        """Samples per metric. Throughput samples are single epochs, timed by
        `pretrain` itself and checked against the worker's wall time; with
        `normalised`, set-up and eval times are scaled to the reference
        machine speed (calibration.py)."""
        key = "normalised" if normalised else "wall"
        plain = [s for s in self.repeats if not s["traced"]]
        peak_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                      + [s["maxrss_kb"] for s in self.repeats + self.passes])
        return {
            "setup_s": [s[key] for s in self.setups if not s["traced"]],
            "train_samples_per_s": [s["samples"] / s["epochs"] / seconds
                                    for s in plain for seconds in s["epoch_seconds"]],
            "cpu_s_per_ksample": [(s["user"] + s["sys"]) / (s["samples"] / 1000.0)
                                  for s in plain],
            "peak_rss_mb": [peak_kb / 1024.0],
            "probe_top1": [self.probe_top1],
            "eval_s": [p[key] for p in self.passes if not p["traced"]],
        }

    def per_layer(self):
        totals = self_totals(self.tracer.spans)
        traced = [s for s in self.repeats if s["traced"]]
        plain = [s for s in self.repeats if not s["traced"]]
        for sample in self.repeats + self.passes:
            if sample["traced"]:
                self_totals(read_spans(sample["spans"]), totals)
        steps = sum(s["steps"] for s in traced)
        n_passes = sum(1 for p in self.passes if p["traced"])
        n_setups = sum(1 for s in self.setups if s["traced"])

        def total(root, name, field):
            return totals.get((root, name), (0, 0, 0))[field]

        out = {}
        for module, fn in STEP_FUNCTIONS:
            name = f"{module}.{fn}"
            out[f"{name}.self_us_per_step"] = total("bench.train", name, 0) / 1e3 / steps
            out[f"{name}.calls_per_step"] = total("bench.train", name, 1) / steps
            out[f"{name}.minflt_per_step"] = total("bench.train", name, 2) / steps
        for module, fn in EVAL_FUNCTIONS:
            name = f"{module}.{fn}"
            out[f"{name}.self_ms_per_pass"] = total("bench.eval", name, 0) / 1e6 / n_passes
        for module, fn in SETUP_FUNCTIONS:
            name = f"{module}.{fn}"
            out[f"{name}.self_ms_per_setup"] = total("bench.setup", name, 0) / 1e6 / n_setups
        softmaxes = sum(total("bench.train", name, 1) for name in SOFTMAX_FAMILY)
        losses = sum(total("bench.train", name, 1) for name in LOSS_FUNCTIONS)
        out["numerics.softmax_passes_per_loss"] = softmaxes / losses if losses else 0.0
        out["process.minflt_per_step"] = statistics.median(s["minflt"] / s["steps"] for s in plain)
        out["process.sys_frac"] = statistics.median(s["sys"] / (s["user"] + s["sys"])
                                                    for s in plain)
        # Time inside the root span not covered by any traced call.
        root_ns = total("bench.train", "bench.train", 0)
        all_ns = sum(v[0] for (root, _), v in totals.items() if root == "bench.train")
        out["trace.pretrain_accounted_frac"] = 1.0 - root_ns / all_ns
        out["trace.train_overhead_frac"] = (
            statistics.median(s["wall"] for s in traced)
            / statistics.median(s["wall"] for s in plain) - 1.0)
        out["trace.eval_overhead_frac"] = (
            statistics.median(p["normalised"] for p in self.passes if p["traced"])
            / statistics.median(p["normalised"] for p in self.passes if not p["traced"])
            - 1.0)
        return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    package, cli = import_program(root)
    print("env " + json.dumps(environment(), sort_keys=True))
    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    spans_dir = os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}")
    if args.trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    bench = Bench(args, root, workdir, spans_dir, package, cli)
    try:
        bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bench.tracer.missing:
        print("not traced (absent): " + ", ".join(sorted(set(bench.tracer.missing))),
              file=sys.stderr)

    rows_sha, checkpoint_sha = bench.repeats[0]["digest"]
    print(f"digest metrics_rows={rows_sha} checkpoint={checkpoint_sha} "
          f"eval_output={bench.passes[0]['digest'][0]} export={bench.passes[0]['digest'][1]}")
    print(f"counts setups={len(bench.setups)} pretrain_runs={len(bench.repeats)} "
          f"eval_passes={len(bench.passes)}")
    print("walls " + json.dumps({"setup": [s["wall"] for s in bench.setups],
                                 "pretrain": [s["wall"] for s in bench.repeats],
                                 "eval": [p["wall"] for p in bench.passes]}))
    print("normalised " + json.dumps({"setup": [s["normalised"] for s in bench.setups],
                                      "eval": [p["normalised"] for p in bench.passes]}))
    metrics = {}
    if args.trace:
        bench.tracer.write(os.path.join(spans_dir, "bench.jsonl"))
        values = bench.per_layer()
        for name, unit, _ in per_layer_metrics():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} {values[name]!r} {unit}")
        print(f"spans written to {spans_dir}")
    else:
        raw = {name: statistics.median(series)
               for name, series in bench.end_to_end(normalised=False).items()}
        for name, series in bench.end_to_end().items():
            q1, median, q3 = quartiles(series)
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": median, "unit": unit}
            print(f"{name} {median!r} {unit} (median of {len(series)}; q1 {q1!r}, q3 {q3!r}; "
                  f"raw median {raw[name]!r})")
        print("raw " + json.dumps(raw))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
