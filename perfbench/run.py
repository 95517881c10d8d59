#!/usr/bin/env python3
"""Run the AutoCC time-to-verdict benchmark.

Benchmark run (from the root of a checkout):

    python3 perfbench/run.py --workload cex_hunt --seed 1 --seconds 20 --trace 0

builds perfbench/main.exe with dune, runs one workload for the given
number of seconds and passes its output through; the last line of
standard output is the JSON result. The exit code is the benchmark's:
nonzero when the build fails or any verdict differs from its expected
answer.

Reports:

    python3 perfbench/run.py repeat --workload cex_hunt --seed 1
        Runs one pass twice in fresh processes and lists every verdict
        whose work counters (sat.propagations, sat.conflicts, cnf.vars,
        cnf.clauses, opt.sweep_queries) differ between the two runs.

    python3 perfbench/run.py spread --workload cex_hunt --seeds 1-10
        Runs the workload untraced once per seed for BENCHMARK.json's
        run_seconds and prints, per metric, the median, the quartiles and
        the interquartile range as a share of the median, next to the
        metric's bound in BENCHMARK.json.

    python3 perfbench/run.py selfcheck
        Checks that a deliberately wrong expected answer fails the run.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ["cex_hunt", "deep_proof", "campaign_rerun"]
COUNTERS = ["sat.propagations", "sat.conflicts", "cnf.vars", "cnf.clauses",
            "opt.sweep_queries"]


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ROOT, "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.exit("perfbench: cannot run dune: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")


def bench_env():
    """The environment without AUTOCC_* settings (ledger, faults, ...)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("AUTOCC_")}


def run_exe(args, capture):
    """One benchmark process; its scratch files live under WORK."""
    os.makedirs(WORK, exist_ok=True)
    try:
        return subprocess.run([EXE] + args + ["--work", os.path.join(WORK, "stores")],
                              cwd=ROOT, env=bench_env(), text=True,
                              stdout=subprocess.PIPE if capture else None)
    finally:
        shutil.rmtree(os.path.join(WORK, "stores"), ignore_errors=True)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def bench(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args(argv)
    build()
    r = run_exe(["--workload", a.workload, "--seed", str(a.seed),
                 "--seconds", str(a.seconds), "--trace", str(a.trace)], capture=False)
    sys.exit(r.returncode)


def repeat(argv):
    p = argparse.ArgumentParser(prog="run.py repeat")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    a = p.parse_args(argv)
    build()
    # campaign_rerun exposes engine counters only in its traced cycle
    trace = ["--trace", "1", "--passes", "2"] if a.workload == "campaign_rerun" \
        else ["--trace", "0", "--passes", "1"]
    runs = []
    for i in (1, 2):
        path = os.path.join(WORK, "counters_%d.jsonl" % i)
        r = run_exe(["--workload", a.workload, "--seed", str(a.seed), "--seconds", "1",
                     "--counters", path] + trace, capture=True)
        try:
            with open(path) as f:
                rows = [json.loads(l) for l in f if l.strip()]
        finally:
            if os.path.exists(path):
                os.remove(path)
        if r.returncode != 0:
            sys.exit("perfbench repeat: run %d failed" % i)
        runs.append({row["verdict"]: row for row in rows})
    first, second = runs
    differ = []
    for verdict in first:
        a_row, b_row = first[verdict], second.get(verdict)
        if b_row is None or any(a_row[c] != b_row[c] for c in COUNTERS):
            differ.append(verdict)
    print("counter repeatability: workload %s seed %d, %d verdicts, two fresh runs"
          % (a.workload, a.seed, len(first)))
    for verdict in first:
        mark = "DIFFERS" if verdict in differ else "same"
        b_row = second.get(verdict, {})
        print("  %-40s %-7s %s" % (verdict, mark, "  ".join(
            "%s %s/%s" % (c, first[verdict][c], b_row.get(c, "-")) for c in COUNTERS)))
    if differ:
        print("verdicts whose counters differ: " + ", ".join(differ))
    else:
        print("no verdict's counters differ")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(argv):
    p = argparse.ArgumentParser(prog="run.py spread")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", help="write every run's result here as JSON")
    a = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    build()
    results = []
    for seed in parse_seeds(a.seeds):
        r = run_exe(["--workload", a.workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"], capture=True)
        res = last_json(r.stdout)
        if r.returncode != 0 or res is None or not res["correct"]:
            sys.exit("perfbench spread: seed %d failed:\n%s" % (seed, r.stdout))
        results.append({"seed": seed, "result": res, "stdout": r.stdout.splitlines()})
        print("seed %3d  %s" % (seed, "  ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(results, f, indent=1)
    names = list(results[0]["result"]["metrics"])
    print("%-24s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rel = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-24s %12.6g %12.6g %12.6g %8.4f %8s" % (
            name, med, q1, q3, rel, "-" if bound is None else bound))


def selfcheck(argv):
    argparse.ArgumentParser(prog="run.py selfcheck").parse_args(argv)
    build()
    os.makedirs(WORK, exist_ok=True)
    sys.exit(subprocess.run([EXE, "selfcheck"], cwd=WORK, env=bench_env()).returncode)


def main():
    argv = sys.argv[1:]
    modes = {"repeat": repeat, "spread": spread, "selfcheck": selfcheck}
    try:
        if argv and argv[0] in modes:
            modes[argv[0]](argv[1:])
        else:
            bench(argv)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
