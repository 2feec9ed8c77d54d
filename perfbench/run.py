#!/usr/bin/env python3
"""Mission benchmark: whole CSA missions and the mission service, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload attack-1k6 --seed 7 --seconds 30 --trace 0

The first run builds the driver (perfbench/CMakeLists.txt, Release) into
.bench_build.  Each run makes a fixed op list from
--seed, runs it once, checks every op's output, prints a table and, as the
last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).

Workloads:
  attack-1k6   one CSA attacker, N=1600, 120 h; one op = one run_mission
  benign-10k   one honest NJNP charger, N=10k, 120 h; one op = one run_mission
  service-mix  MissionServer + 2-worker MissionService on a unix socket, a
               closed loop over one JSON and one WRB1 connection; one op =
               one request (about 4 in 5 repeat a small working set)

Output checks: every op's result digest must match the digest pinned for
its key (perfbench/pins/<workload>.txt, regenerated with --write-pins), and
every service response must also equal a direct run of its (scenario, seed)
made after the load.  A throw, a non-ok status, a transport error or a
digest mismatch is a failed op.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_DIR = os.path.join(HERE, "pins")
TMP_ROOT = ".bench_tmp"

MASK64 = (1 << 64) - 1

# service-mix request families: attack and benign, fleets of 1, 2 and 4,
# with and without the tournament test's fault mix, all on the default
# N=100 scenario.
FAULT_MIX = ("faults.node_burst_mtbf=20000;faults.node_burst_size=2;"
             "faults.battery_drift_mtbf=30000;faults.battery_drift_power=0.01;"
             "faults.mc_breakdown_mtbf=30000;faults.mc_repair_mean=3600")
SERVICE_FAMILIES = [
    f"mode={mode};fleet.size={fleet}" + (f";{FAULT_MIX}" if faults else "")
    for mode in ("attack", "benign")
    for fleet in (1, 2, 4)
    for faults in (False, True)
]
REPEAT_SHARE = 0.8
WORKING_SET = 48  # keys; the service cache holds 4096

# Ops per second of --seconds, sized so one untraced run takes about
# --seconds on a 4-vCPU x86 VM that delivers roughly one core.  Every op's
# key comes from a pool of `pool` keys whose digests are pinned.  Key k
# (1-based) of the service pool is family (k-1) % 12 at mission seed
# (k-1) // 12 + 1; 2048 seeds per family cover the fresh keys of a run of up
# to about 60 s.
WORKLOADS = {
    "attack-1k6": {"kind": "missions", "ops_per_s": 10 / 3, "pool": 512},
    "benign-10k": {"kind": "missions", "ops_per_s": 5.0, "pool": 512},
    "service-mix": {"kind": "service", "ops_per_s": 2000.0,
                    "pool": 2048 * len(SERVICE_FAMILIES)},
}

# A percentile is reported only when at least this many ops lie beyond it.
TAIL_SAMPLES = 10
P90 = 0.9

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "net.topology_ms": "ms",
    "net.keys_ms": "ms",
    "sim.world_init_ms": "ms",
    "sim.run_other_ms": "ms",
    "core.plan_ms": "ms",
    "core.report_ms": "ms",
    "detect.suite_ms": "ms",
    "svc.decode_us": "us",
    "svc.digest_us": "us",
    "svc.submit_hit_us": "us",
    "svc.transport_us": "us",
    "svc.exec_ms": "ms",
    "runner.queue_wait_ms": "ms",
    "svc.hit_ratio": "ratio",
    "svc.coalesced_ratio": "ratio",
    "sim.events": "count",
    "sim.deaths": "count",
    "sim.requests": "count",
    "core.replans": "count",
    "core.stops_per_replan": "count",
    "core.instance_pairs": "count",
    "mc.sessions": "count",
    "wpt.spoofed_sessions": "count",
    "fault.injected": "count",
    "svc.shed": "count",
    "workload.repeat_share": "ratio",
    "trace.overhead_pct": "%",
}


class SplitMix64:
    """Small seeded generator with a fixed definition (splitmix64), so op
    lists do not depend on the Python version's `random` internals."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def unit(self):
        return (self.next() >> 11) / float(1 << 53)


def op_count(workload, seconds):
    """Fixed op count of a run: the workload's rate times --seconds, raised
    so that p90 has TAIL_SAMPLES ops beyond it."""
    count = int(round(WORKLOADS[workload]["ops_per_s"] * seconds))
    return max(count, min_ops_for_tail(P90))


def min_ops_for_tail(q):
    """Smallest op count with TAIL_SAMPLES ops beyond the q-quantile."""
    n = 1
    while tail_count(n, q) < TAIL_SAMPLES:
        n += 1
    return n


def tail_count(n, q):
    """Ops strictly beyond the nearest-rank q-quantile of n ops."""
    return n - nearest_rank(n, q)


def nearest_rank(n, q):
    """1-based rank of the nearest-rank q-quantile of n sorted values."""
    return max(1, math.ceil(q * n - 1e-9))


def quantile(values, q):
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q) - 1]


def mission_ops(workload, seed, count):
    """Distinct mission seeds drawn from the workload's pinned pool."""
    pool = WORKLOADS[workload]["pool"]
    if count > pool:
        raise ValueError(f"{workload}: {count} ops exceed the pool of {pool}")
    rng = SplitMix64(seed ^ hash_name(workload))
    seeds = list(range(1, pool + 1))
    for i in range(count):
        j = i + rng.below(pool - i)
        seeds[i], seeds[j] = seeds[j], seeds[i]
    return seeds[:count]


def service_ops(seed, count):
    """Request stream as pool keys: REPEAT_SHARE of requests repeat a key of
    a small working set, the rest are fresh keys, drawn from the pool
    without repeats."""
    rng = SplitMix64(seed ^ hash_name("service-mix"))
    pool = WORKLOADS["service-mix"]["pool"]
    keys = list(range(1, pool + 1))
    drawn = 0

    def new_key():
        nonlocal drawn
        if drawn == pool:
            raise ValueError(f"service-mix: {count} requests exhaust the "
                             f"pool of {pool} keys")
        j = drawn + rng.below(pool - drawn)
        keys[drawn], keys[j] = keys[j], keys[drawn]
        drawn += 1
        return keys[drawn - 1]

    working = [new_key() for _ in range(WORKING_SET)]
    return [working[rng.below(WORKING_SET)] if rng.unit() < REPEAT_SHARE
            else new_key() for _ in range(count)]


def service_line(key):
    """The repro line of service pool key `key`."""
    seed, family = divmod(key - 1, len(SERVICE_FAMILIES))
    return f"{SERVICE_FAMILIES[family]};seed={seed + 1}"


def repeat_share(ops):
    seen = set()
    repeats = 0
    for op in ops:
        repeats += op in seen
        seen.add(op)
    return repeats / len(ops)


def hash_name(name):
    h = 0xCBF29CE484222325
    for byte in name.encode():
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


def load_pins(workload):
    with open(os.path.join(PINS_DIR, f"{workload}.txt")) as f:
        digests = [line.strip() for line in f if line.strip()]
    return {seed: digest for seed, digest in enumerate(digests, start=1)}


def check_ops(raw, keys=None, pins=None):
    """Per-op failure reasons ('' = ok): the driver's own error, else a
    mismatch against the pinned digest of the op's key."""
    reasons = []
    for i, error in enumerate(raw["errors"]):
        if not error and pins is not None:
            expected = pins.get(keys[i])
            if expected is None:
                error = f"no pin for key {keys[i]}"
            elif raw["digests"][i] != expected:
                error = f"digest {raw['digests'][i]} != pin {expected}"
        reasons.append(error)
    return reasons


BUILD_DIR = ".bench_build"


def build():
    """Configures and builds the driver (a no-op when up to date); returns
    its path."""
    out = BUILD_DIR
    log = sys.stderr
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out, "perfbench_driver")


def pin_to_one_cpu():
    """Runs the driver on one CPU: the service's threads then share a core
    on every host, instead of getting between one and four cores depending
    on what else the host runs."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_driver(binary, args):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          preexec_fn=pin_to_one_cpu)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_ops(tmp, lines):
    path = os.path.join(tmp, "ops.txt")
    with open(path, "w") as f:
        f.write("".join(f"{line}\n" for line in lines))
    return path


def end_to_end(raw, failed):
    attempted = len(raw["op_ms"])
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "ops_per_s": (attempted - failed) / raw["timed_s"],
        "op_ms_p50": statistics.median(raw["op_ms"]),
        "op_ms_p90": quantile(raw["op_ms"], P90),
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
    }


def per_layer(raw, share):
    stages = raw["stages"]
    n = max(stages["missions"], 1)
    per_op_ms = {k: 1e3 * stages[k] / n for k in (
        "op_s", "topology_s", "world_init_s", "keys_s", "plan_s", "detect_s",
        "report_s")}
    timed = sum(v for k, v in per_op_ms.items() if k != "op_s")
    m = {
        "net.topology_ms": per_op_ms["topology_s"],
        "net.keys_ms": per_op_ms["keys_s"],
        "sim.world_init_ms": per_op_ms["world_init_s"],
        "sim.run_other_ms": per_op_ms["op_s"] - timed,
        "core.plan_ms": per_op_ms["plan_s"],
        "core.report_ms": per_op_ms["report_s"],
        "detect.suite_ms": per_op_ms["detect_s"],
        "sim.events": stages["events"] / n,
        "sim.deaths": stages["deaths"] / n,
        "sim.requests": stages["requests"] / n,
        "core.replans": stages["replans"] / n,
        "core.stops_per_replan":
            stages["stops"] / stages["replans"] if stages["replans"] else 0.0,
        "core.instance_pairs": stages["instance_pairs"] / n,
        "mc.sessions": stages["sessions"] / n,
        "wpt.spoofed_sessions": stages["spoofed_sessions"] / n,
        "fault.injected": stages["faults_injected"] / n,
        "workload.repeat_share": share,
    }
    svc = raw.get("svc")
    stats = raw.get("service_stats")
    if svc is None:
        # Mission workloads: no service layer; tracing overhead is the traced
        # run_mission against the untraced one, on the same ops.
        m.update({k: 0.0 for k in (
            "svc.decode_us", "svc.digest_us", "svc.submit_hit_us",
            "svc.transport_us", "svc.exec_ms", "runner.queue_wait_ms",
            "svc.hit_ratio", "svc.coalesced_ratio", "svc.shed")})
        m["trace.overhead_pct"] = 100.0 * (
            statistics.median(raw["traced_op_ms"])
            / statistics.median(raw["op_ms"]) - 1.0)
    else:
        # service-mix: every traced figure is measured after the load, so
        # the timed phase is the untraced one and the overhead is zero.
        requests = max(stats["requests"], 1)
        m.update({
            "svc.decode_us": svc["decode_us"],
            "svc.digest_us": svc["digest_us"],
            "svc.submit_hit_us": svc["submit_hit_us"],
            "svc.transport_us": svc["hit_rt_p50_us"] - svc["submit_hit_us"],
            "svc.exec_ms": per_op_ms["op_s"],
            "runner.queue_wait_ms": svc["queue_wait_ms"],
            "svc.hit_ratio": stats["cache_hits"] / requests,
            "svc.coalesced_ratio": stats["coalesced"] / requests,
            "svc.shed": float(stats["shed"]),
            "trace.overhead_pct": 0.0,
        })
    return m


def service_structure_ok(raw, count):
    """Teardown unlinked the socket and drained the service, and the
    service's tallies account for every request."""
    stats = raw["service_stats"]
    teardown = raw["teardown"]
    served = (stats["executions"] + stats["cache_hits"] + stats["coalesced"]
              + stats["shed"])
    return (all(teardown.values()) and stats["requests"] == count
            and served == count)


def run(workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    count = op_count(workload, seconds)
    binary = build()
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        trace_arg = ["--trace", "1" if trace else "0"]
        if spec["kind"] == "missions":
            ops = mission_ops(workload, seed, count)
            raw = run_driver(binary, ["missions", "--workload", workload,
                                      "--ops", write_ops(tmp, ops)]
                             + trace_arg)
            structure_ok = True
        else:
            ops = service_ops(seed, count)
            lines = write_ops(tmp, [service_line(k) for k in ops])
            raw = run_driver(binary, ["service", "--ops", lines,
                                      "--dir", tmp] + trace_arg)
            structure_ok = service_structure_ok(raw, count)
        reasons = check_ops(raw, ops, load_pins(workload))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(reasons)
    failed = sum(1 for r in reasons if r)
    share = repeat_share(ops)
    metrics = per_layer(raw, share) if trace else end_to_end(raw, failed)
    units = PER_LAYER if trace else END_TO_END

    print(f"workload {workload}  seed {seed}  ops {attempted}  "
          f"failed {failed}  error_rate {failed / attempted:.6f}  "
          f"repeat_share {share:.4f}  trace {int(trace)}")
    for reason in [r for r in reasons if r][:5]:
        print(f"  failed op: {reason}")
    if not structure_ok:
        print("  service teardown/stats check failed")
    for name, value in metrics.items():
        print(f"  {name:24s} {value:16.6f} {units[name]}")
    result = {
        "correct": failed == 0 and structure_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


def write_pins():
    """Regenerates the pinned digests of every key in each workload's pool
    (a direct run of the whole pool)."""
    binary = build()
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="pins-", dir=TMP_ROOT)
    try:
        for workload, spec in WORKLOADS.items():
            keys = range(1, spec["pool"] + 1)
            if spec["kind"] == "missions":
                raw = run_driver(binary, ["missions", "--workload", workload,
                                          "--ops", write_ops(tmp, keys)])
            else:
                raw = run_driver(binary, ["direct", "--ops", write_ops(
                    tmp, [service_line(k) for k in keys])])
            if any(raw["errors"]):
                raise RuntimeError(f"{workload}: a pool mission failed")
            os.makedirs(PINS_DIR, exist_ok=True)
            with open(os.path.join(PINS_DIR, f"{workload}.txt"), "w") as f:
                f.write("".join(f"{d}\n" for d in raw["digests"]))
            print(f"{workload}: pinned {len(keys)} keys", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="regenerate perfbench/pins/ and exit")
    args = parser.parse_args(argv)
    if args.write_pins:
        write_pins()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError,
            ValueError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        sys.exit(1)
