#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign|frontend|fabric \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py pin --seeds 0-30   # rewrite perfbench/pins.json
    python3 perfbench/run.py steady --seeds 1-10 --seconds 25

`steady` runs the workloads interleaved, one run each per seed, and prints
the median, quartiles and spread ((Q3 - Q1) / median) of every end-to-end
metric per workload: the measured spread the bounds in BENCHMARK.json are
set against.

The last line of standard output is the result object. The measuring process
(perfbench.exe) runs in its own process group; on a deadline the whole
group, coordinator and worker included, is killed and reaped.
"""

import json
import os
import statistics
import signal
import subprocess
import sys

CLI = "_build/default/bin/once4all_cli.exe"
EXE = "_build/default/perfbench/perfbench.exe"
WORKLOADS = ("campaign", "frontend", "fabric")
RUN_DEADLINE_S = 175
BUILD_DEADLINE_S = 700


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/once4all_cli.exe",
             "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_DEADLINE_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def run_bench(args, capture):
    proc = subprocess.Popen([EXE] + args, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3, None
    finally:
        # perfbench.exe reaps its children itself; this catches any it left
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def pin(argv):
    if len(argv) != 2 or argv[0] != "--seeds":
        return fail("usage: run.py pin --seeds LO-HI")
    pins = {}
    for workload in WORKLOADS:
        for seed in parse_seeds(argv[1]):
            code, out = run_bench(
                ["pin", "--workload", workload, "--seed", str(seed)], True)
            if code != 0:
                return fail(f"pinning {workload} seed {seed} failed", 1)
            entry = json.loads(out.decode().strip().splitlines()[-1])
            w = pins.setdefault(workload, {"params": entry["params"], "seeds": {}})
            w["seeds"][str(seed)] = {
                k: entry[k] for k in ("fingerprint", "bugs_found",
                                      "coverage_points", "validity",
                                      "timeout_share")}
            print(f"pinned {workload} seed {seed}", file=sys.stderr)
    with open("perfbench/pins.json", "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def steady(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    if "--seeds" not in opts:
        return fail("usage: run.py steady --seeds LO-HI [--seconds S]")
    seconds = opts.get("--seconds", "25")
    results = {w: [] for w in WORKLOADS}
    for seed in parse_seeds(opts["--seeds"]):
        for workload in WORKLOADS:
            code, out = run_bench(
                ["--workload", workload, "--seed", str(seed), "--seconds",
                 seconds, "--trace", "0", "--cli", CLI], True)
            lines = (out or b"").decode().strip().splitlines()
            res = json.loads(lines[-1]) if lines else None
            results[workload].append({"seed": seed, "exit": code,
                                      "host": json.loads(lines[0])["host"]
                                      if lines else None,
                                      "result": res})
            print(f"{workload} seed {seed}: exit {code}", file=sys.stderr)
    summary = {}
    for workload, runs in results.items():
        ok = [r["result"] for r in runs if r["result"]]
        metrics = {}
        for name in (ok[0]["metrics"] if ok else {}):
            vals = [r["metrics"][name]["value"] for r in ok]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (med, med, med)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None}
        summary[workload] = {
            "runs": len(runs),
            "correct": sum(1 for r in ok if r["correct"]),
            "metrics": metrics}
    print(json.dumps({"runs": results, "summary": summary}))
    return 0


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        return fail("run from the root of a checkout: the program's sources "
                    "(dune-project, lib/, bin/) are missing")
    if not build():
        return fail("could not build the program")
    if argv[:1] == ["pin"]:
        return pin(argv[1:])
    if argv[:1] == ["steady"]:
        return steady(argv[1:])
    code, _ = run_bench(argv + ["--cli", CLI], False)
    if code == 3:
        return fail(f"run exceeded {RUN_DEADLINE_S} s and was killed", 3)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
