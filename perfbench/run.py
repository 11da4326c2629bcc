#!/usr/bin/env python3
"""Benchmark entry point: builds lgbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to .bench_build/perfbench. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lgbench")

WORKLOADS = ["stress_grid", "fabric_fct", "testbed_fct", "deploy_year"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# Set-ups timed per run: setup_s is their median.
SETUP_LAUNCHES = 15
# Limit for an lgbench launch that does not time a closed loop.
FIXED_TIMEOUT_S = 170


def metric_lists():
    """(end_to_end, per_layer) as [(name, unit)], from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_jobs():
    """Parallel compile jobs: every core, at most 4."""
    return max(1, min(4, nproc()))


# Worker threads of a measured run. One: on a few cores of a shared host,
# workers that each stream a table larger than the caches (fabric_fct) or
# wait on the slowest cell (stress_grid) measure the neighbours' load and
# the scheduler more than the program. --selftest still checks that the
# outputs are the same at jobs=1 and jobs=nproc.
TIMED_JOBS = 1


def child_env(jobs):
    """The inherited environment minus every LGSIM_* knob, plus the job
    count; temporary files stay inside the build tree."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LGSIM_")}
    env["LGSIM_BENCH_JOBS"] = str(jobs)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    """Configures and builds lgbench (incremental after the first run)."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    env = child_env(1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", str(build_jobs())]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def run_lgbench(args, jobs, timeout=FIXED_TIMEOUT_S):
    """Runs lgbench from the repository root; returns the finished process,
    or None if it outlived `timeout` seconds (it is then killed and reaped)."""
    try:
        proc = subprocess.run([BINARY] + args, env=child_env(jobs), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: lgbench {' '.join(args)} exceeded {timeout:.0f} s")
        return None
    sys.stderr.write(proc.stderr)
    return proc


def setup_seconds(args, jobs):
    """Launches `lgbench <args> --setup-only` and returns the host seconds
    from just before the spawn to the end of its set-up, which lgbench
    reports on the same monotonic clock; None if it failed."""
    spawn_ns = time.monotonic_ns()
    proc = run_lgbench(args + ["--setup-only"], jobs)
    if proc is None or proc.returncode != 0 or not proc.stdout.strip():
        return None
    end_ns = json.loads(proc.stdout.strip().splitlines()[-1])["setup_end_ns"]
    return 1e-9 * (end_ns - spawn_ns)


def git_provenance():
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode != 0:
            return "none", None
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10)
        return rev.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return "none", None


def recorded_digests():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def selftest():
    """The benchmark's own tests: every allocator overload is counted, and
    each workload's outputs are identical at jobs=1 and jobs=nproc and match
    the recorded digest for the default seed."""
    ok = run_lgbench(["--selftest"], 1)
    if ok is not None:
        print(ok.stdout, end="")
    failures = 0 if ok is not None and ok.returncode == 0 else 1
    recorded = recorded_digests()
    for w in WORKLOADS:
        digests = {}
        for jobs in sorted({1, nproc()}):
            p = run_lgbench(["--workload", w, "--seed", str(DEFAULT_SEED),
                             "--digest-only"], jobs)
            out = p.stdout.strip() if p is not None else ""
            line = out.splitlines()[-1] if out else ""
            print(line)
            if p is None or p.returncode != 0:
                failures += 1
            digests[jobs] = line.rsplit("digest=", 1)[-1].split()[0] if "digest=" in line else None
        values = set(digests.values())
        if len(values) != 1 or recorded.get(w) not in values:
            print(f"selftest: {w} digests {digests} (recorded {recorded.get(w)})")
            failures += 1
    print("selftest: " + ("ok" if failures == 0 else f"{failures} failure(s)"))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    if a.seed < 0:
        ap.error("--seed must be a non-negative integer")

    if not build():
        log("perfbench: build failed")
        return 1
    if a.selftest:
        return selftest()

    jobs = TIMED_JOBS
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    inputs = ["--workload", a.workload, "--seed", str(a.seed)]
    # setup_s: set-up alone in processes of its own, plus the timed run's
    # own set-up as the last sample. A traced run does not report it.
    setups = []
    for _ in range(0 if a.trace else SETUP_LAUNCHES - 1):
        s = setup_seconds(inputs, jobs)
        if s is None:
            log("perfbench: lgbench --setup-only failed")
            return 1
        setups.append(s)
    spawn_ns = time.monotonic_ns()
    proc = run_lgbench(inputs + ["--seconds", str(a.seconds), "--trace", str(a.trace)],
                       jobs, timeout=a.seconds + 150)
    lines = proc.stdout.strip().splitlines() if proc is not None else []
    if proc is None or proc.returncode != 0 or not lines:
        log(f"perfbench: lgbench failed ({'timeout' if proc is None else proc.returncode})")
        return 1
    for line in lines[:-1]:
        log(line)
    res = json.loads(lines[-1])
    if not a.trace:
        # On the timed passes' host-speed scale: the set-ups ran just before
        # them, and the reference kernel's median over the run stands for
        # the host's speed then.
        setups.append(1e-9 * (res["setup_end_ns"] - spawn_ns))
        res["metrics"]["setup_s"] = statistics.median(setups) * res["metrics"]["reference_scale"]
    if not res["optimized"]:
        log("perfbench: refusing timings from an unoptimized build")
        return 1

    failures = list(res["failures"])
    failed = res["failed"]
    if a.seed == DEFAULT_SEED:
        want = recorded_digests().get(a.workload)
        if res["digest"] != want:
            failures.append(f"digest {res['digest']} != recorded {want}")
            failed = max(failed, 1)

    rev, dirty = git_provenance()
    provenance = {
        "git_rev": rev, "git_dirty": dirty, "build_type": res["build_type"],
        "compiler": res["compiler"], "nproc": nproc(), "jobs": res["jobs"],
        "seed": a.seed, "held_out_seed": HELD_OUT_SEED,
        "lgsim_env_inherited": {k: v for k, v in os.environ.items() if k.startswith("LGSIM_")},
        "lgsim_env_used": {"LGSIM_BENCH_JOBS": str(jobs)},
    }

    end_to_end, per_layer = metric_lists()
    wanted = per_layer if a.trace else end_to_end
    metrics = {}
    for name, unit in wanted:
        if name not in res["metrics"]:
            log(f"perfbench: lgbench did not report {name}")
            return 1
        metrics[name] = {"value": res["metrics"][name], "unit": unit}

    # Human-readable report: the end-to-end metrics under the names the
    # workload gives them, then failures and provenance.
    print(f"workload {a.workload}  seed {a.seed}  trace {a.trace}  "
          f"work unit: {res['work_unit']}")
    if a.trace:
        for name, unit in per_layer:
            print(f"  {name:36s} {res['metrics'][name]:.6g} {unit}")
    else:
        named = [(res["rate_name"], "work_per_s", "1/s"), ("setup_s", "setup_s", "s"),
                 ("cpu_s", "cpu_s", "s"), ("peak_rss_mb", "peak_rss_mb", "MB"),
                 ("fail_frac", "fail_frac", "frac")]
        for shown, key, unit in named:
            print(f"  {shown:20s} {res['metrics'][key]:.6g} {unit}")
        print(f"  (median of {int(res['metrics']['reps'])} timed passes, normalised to a "
              f"reference kernel that took {res['metrics']['reference_s']:.4f} s here; "
              f"setup_s median of {len(setups)} set-ups)")
    for f in failures:
        print(f"  CHECK FAILED: {f}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    result = {"correct": failed == 0 and not failures, "attempted": res["attempted"],
              "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, f"{a.workload}_seed{a.seed}_trace{a.trace}.json"),
              "w") as f:
        json.dump({"result": result, "provenance": provenance,
                   "digest": res["digest"], "failures": failures}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
