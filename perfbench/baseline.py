"""Run the benchmark over several seeds and summarise its spread.

Run from the root of a source checkout:

    python3 perfbench/baseline.py --seeds 0-9 [--workloads a,b] [--trace-seed 0] \
        [--write perfbench/baseline.json]

For every workload it runs `run.py` once per seed (one at a time, with
BENCHMARK.json's run_seconds) and prints, per end-to-end metric, the median,
the quartiles and the spread (q3 - q1) / median next to a third of the
metric's bound. With --trace-seed it adds one traced run per workload. With
--write it stores the summary, the environment, the digests and the
layer -> end-to-end map as the recorded baseline.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layers import LAYER_MAP

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    info = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1]
            if line.split(" ", 1)[0] in ("env", "digest", "counts", "raw")}
    return json.loads(lines[-1]), info, elapsed


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--write", help="path of the baseline JSON to write")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {},
               "layer_map": LAYER_MAP}
    worst_ok = True
    for workload in workloads:
        per_metric, raw_metric, digests, attempted, failed, walls = {}, {}, {}, 0, 0, []
        for seed in seeds:
            result, info, elapsed = run_once(workload, seed, seconds, 0)
            summary.setdefault("environment", json.loads(info["env"]))
            digests[str(seed)] = info.get("digest")
            attempted += result["attempted"]
            failed += result["failed"]
            walls.append(elapsed)
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            for name, value in json.loads(info.get("raw", "{}")).items():
                raw_metric.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: {elapsed:.1f}s correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"failed_frac": failed / attempted, "attempted": attempted,
                 "run_wall_s": summarise(walls) if len(walls) > 1 else walls,
                 "digests": digests, "end_to_end": {}}
        for name, values in per_metric.items():
            stats = summarise(values) if len(values) > 1 else {"values": values}
            entry["end_to_end"][name] = stats
            if len(values) > 1:
                target = bounds[name] / 3
                ok = stats["spread"] <= target or name == "setup_s"
                worst_ok &= ok
                raw = summarise(raw_metric[name]) if name in raw_metric else None
                if raw:
                    entry.setdefault("end_to_end_raw", {})[name] = raw
                print(f"  {name:22s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                      f"q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}  "
                      f"(bound/3 {target:.4f}) {'ok' if ok else 'WIDE'}"
                      + (f"  | raw median {raw['median']:.6g} spread {raw['spread']:.4f}"
                         if raw else ""))
        print(f"  failed_frac {failed}/{attempted}", flush=True)
        if args.trace_seed is not None:
            result, info, _ = run_once(workload, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": result["correct"],
                               "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
            for key in ("trace.train_overhead_frac", "trace.eval_overhead_frac",
                        "trace.pretrain_accounted_frac"):
                print(f"  {key} {result['metrics'][key]['value']:.4f}")
        summary["workloads"][workload] = entry
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
