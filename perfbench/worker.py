"""One timed operation of the benchmark, in a fresh process.

    python3 perfbench/worker.py pretrain --workload W --seed N --data FILE --checkpoint FILE
    python3 perfbench/worker.py eval --workload W --seed N --data FILE --checkpoint FILE \
        --workdir DIR

`pretrain` reads the dataset file, builds the run config, times
`training.pretrain` and writes the checkpoint. `eval` times one pass of
`linear-eval`, `metrics` and `export-embeddings` through `cli.main`, each
command bracketed by the calibration kernel (calibration.py). Either
prints one JSON line with the wall time, resource use and outputs to check.
With --spans FILE the timed calls run under the span tracer, one root span per
pretrain call or CLI command, and the spans are written to FILE.

Users start a process per command, so each operation gets a fresh process:
the allocator state it starts from is then the same every time, which repeats
in one process would not give (freeing multi-MB buffers moves glibc's mmap
threshold, and page faults per step then change severalfold).
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

from calibration import Calibration, speed_factor
from layers import traced_targets
from spans import Tracer
from workloads import WORKLOADS, config_overrides, import_program


def pretrain(args, cli, root):
    from contrastlab import data, encoder, moco, training

    dataset = data.load_dataset(args.data)
    config = cli.build_config(training.RunConfig, None, config_overrides(args.workload, args.seed))
    with root("bench.train"):
        before = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        result = training.pretrain(config, dataset)
        wall = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_SELF)
    if result.moco_state is not None:
        moco.save_moco(result.moco_state, args.checkpoint, seed=config.seed)
    else:
        encoder.save_encoder(result.encoder, args.checkpoint, seed=config.seed)
    steps = (dataset.sample_count // config.batch_size) * config.epochs
    return {
        "wall": wall,
        "epoch_seconds": [r.seconds for r in result.metrics],
        "epochs": config.epochs,
        "steps": steps,
        "samples": steps * config.batch_size,
        "user": after.ru_utime - before.ru_utime,
        "sys": after.ru_stime - before.ru_stime,
        "minflt": after.ru_minflt - before.ru_minflt,
        "mix_weight": config.mix_weight,
        "rows": [[r.epoch, r.l_contrast, r.l_mixed, r.l_total, r.lr] for r in result.metrics],
    }


def evaluate(args, cli, root):
    ck, ds = args.checkpoint, args.data
    commands = [
        ["linear-eval", "--checkpoint", ck, "--data", ds,
         "--out", os.path.join(args.workdir, "eval"), "--set", f"seed={args.seed}"],
        ["metrics", "--checkpoint", ck, "--data", ds],
        ["export-embeddings", "--checkpoint", ck, "--data", ds,
         "--out", os.path.join(args.workdir, "embeddings.txt")],
    ]
    # Each command is bracketed by the calibration kernel; the pass's
    # normalised time is the sum of the commands' normalised times.
    calibration = Calibration()
    kernels = [calibration.measure()]
    outputs, codes, walls, normalised = [], [], [], []
    for argv in commands:
        captured = io.StringIO()
        with root("bench.eval"):
            started = time.perf_counter()
            with contextlib.redirect_stdout(captured):
                codes.append(cli.main(argv))
            walls.append(time.perf_counter() - started)
        kernels.append(calibration.measure())
        normalised.append(walls[-1] * speed_factor(kernels[-2], kernels[-1]))
        outputs.append(captured.getvalue())
    return {"wall": sum(walls), "normalised": sum(normalised),
            "commands": [c[0] for c in commands], "codes": codes, "outputs": outputs}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("operation", choices=("pretrain", "eval"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--workdir")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    package, cli = import_program(os.getcwd())
    operation = pretrain if args.operation == "pretrain" else evaluate
    tracer = Tracer()
    if args.spans:
        with tracer.installed(package, traced_targets()):
            result = operation(args, cli, tracer.span)
        tracer.write(args.spans)
    else:
        result = operation(args, cli, lambda name: contextlib.nullcontext())
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
