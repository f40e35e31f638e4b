#!/usr/bin/env python3
"""Same-box A/B of two git revisions on the figure-sweep benchmark.

    python3 perfbench/ab.py BASE_REV NEW_REV [--pairs 10] \
        [--workloads niagara_sweep,ooo_spec] [--seeds 0,1] [--seconds 30]

Each revision's sources are exported with `git archive` into its own
directory under --workdir, together with this checkout's perfbench/
(so both sides run identical benchmark code), and built there. Reps
are interleaved: pair i runs BASE then NEW for even i and NEW then BASE
for odd i, on every seed (the default seed 0 and the held-out seed 1
unless --seeds says otherwise). For each workload and end-to-end
metric the report gives each side's median and quartiles, the fraction
of pairs NEW won (ties count for neither side) and a verdict, using
the bounds in BENCHMARK.json:

  unresolved  BASE's own spread (IQR / median) exceeds the bound, and
              not every NEW run beats every BASE run
  gain        NEW wins at least 9/10 of the pairs and the medians
              differ by more than BASE's IQR
  regression  NEW's median is worse than BASE's by more than the bound
  same        otherwise
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def export(rev, dest):
    """Sources of @rev plus this checkout's benchmark into @dest."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def run(tree, workload, seed, seconds):
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(base, new, better, bound):
    """Compare two equal-length lists of paired values."""
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    frac = wins / len(base)
    spread = (b3 - b1) / bm if bm else 0.0
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    worse_by = sign * (bm - nm) / bm if bm else 0.0
    if spread > bound and not all_better:
        word = "unresolved"
    elif frac >= 0.9 and abs(nm - bm) > (b3 - b1):
        word = "gain"
    elif worse_by > bound:
        word = "regression"
    else:
        word = "same"
    return frac, spread, word


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="0,1")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workdir", default=str(ROOT / ".bench_build" / "ab"))
    opts = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w for w in opts.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in opts.seeds.split(",")]
    seconds = opts.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]

    work = Path(opts.workdir)
    trees = {"base": work / "base", "new": work / "new"}
    export(opts.base, trees["base"])
    export(opts.new, trees["new"])

    # samples[workload][side][metric] -> values in pair order
    samples = {w: {s: {m["name"]: [] for m in metrics} for s in trees}
               for w in workloads}
    failed = {w: {s: 0 for s in trees} for w in workloads}
    for i in range(opts.pairs):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for w in workloads:
            for seed in seeds:
                got = {}
                for side in order:
                    got[side] = run(trees[side], w, seed, seconds)
                    print(f"pair {i} {w} seed {seed} {side}: "
                          f"{'ok' if got[side] else 'FAILED'}",
                          file=sys.stderr)
                if not all(got.values()):
                    for side, r in got.items():
                        failed[w][side] += r is None
                    continue
                for side, r in got.items():
                    failed[w][side] += r["failed"]
                    for m in metrics:
                        samples[w][side][m["name"]].append(
                            r["metrics"][m["name"]]["value"])

    report = []
    print(f"A/B {opts.base} -> {opts.new}: {opts.pairs} pairs x seeds "
          f"{seeds}, {seconds:g} s runs")
    print("| workload | metric | base median [q1, q3] | new median [q1, q3]"
          " | new won | base spread | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in metrics:
            base = samples[w]["base"][m["name"]]
            new = samples[w]["new"][m["name"]]
            if not base:
                continue
            frac, spread, word = verdict(base, new, m["better"], m["bound"])
            b, n = quartiles(base), quartiles(new)
            print(f"| {w} | {m['name']} | {b[1]:.4g} [{b[0]:.4g}, "
                  f"{b[2]:.4g}] | {n[1]:.4g} [{n[0]:.4g}, {n[2]:.4g}] | "
                  f"{frac:.2f} | {spread:.3f} | {m['bound']} | {word} |")
            report.append({"workload": w, "metric": m["name"],
                           "base": base, "new": new, "new_won": frac,
                           "base_spread": spread, "verdict": word})
        print(f"| {w} | failed points | {failed[w]['base']} | "
              f"{failed[w]['new']} | | | | |")
    (work / "ab.json").write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(1 if any(f for w in failed.values() for f in w.values())
             else 0)


if __name__ == "__main__":
    main()
