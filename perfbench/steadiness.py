#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark on one commit.

    python3 perfbench/steadiness.py --seeds 1-10 --out a.json
    python3 perfbench/steadiness.py --seeds 11-20 --out b.json
    python3 perfbench/steadiness.py --compare a.json b.json

A set runs every workload of BENCHMARK.json once per seed (untraced, its
run_seconds) and records each end-to-end metric's values, median, quartiles
(statistics.quantiles, n=4) and spread (quartile distance over median).
--compare checks two sets of the same code against BENCHMARK.json: every
spread, setup_s's too, within the metric's bound, and the two medians apart
by no more than the bound in either direction.  It also marks spreads above
a third of the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCHMARK = "BENCHMARK.json"


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(bench, seeds):
    seconds = bench["run_seconds"]
    result = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed",
                                      str(seed), "--seconds", str(seconds),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect run")
            for name in values:
                values[name].append(line["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()),
                file=sys.stderr, flush=True)
        result["workloads"][workload] = {
            name: summarize(vals) for name, vals in values.items()}
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def compare(bench, first, second):
    """Returns rows (workload, metric, spread1, spread2, drift, bound, ok);
    drift is how far the second median lies from the first, as a share of
    the first (positive = worse)."""
    rows = []
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in first["workloads"]:
            a = first["workloads"][workload][name]
            b = second["workloads"][workload][name]
            drift = sign * (b["median"] - a["median"]) / a["median"]
            ok = (a["spread"] <= bound and b["spread"] <= bound
                  and abs(drift) <= bound)
            rows.append((workload, name, a["spread"], b["spread"], drift,
                         bound, ok))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="SET")
    args = parser.parse_args()
    with open(BENCHMARK) as f:
        bench = json.load(f)
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        ok = True
        print(f"{'workload':12s} {'metric':12s} {'spread1':>8s} {'spread2':>8s}"
              f" {'worse':>8s} {'bound':>6s}")
        for workload, name, s1, s2, drift, bound, row_ok in compare(bench, *sets):
            ok &= row_ok
            wide = " spread > bound/3" if max(s1, s2) > bound / 3 else ""
            print(f"{workload:12s} {name:12s} {s1:8.4f} {s2:8.4f} {drift:8.4f}"
                  f" {bound:6.2f} {'ok' if row_ok else 'FAIL'}{wide}")
        return 0 if ok else 1
    result = run_set(bench, parse_seeds(args.seeds))
    text = json.dumps(result, indent=1)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
