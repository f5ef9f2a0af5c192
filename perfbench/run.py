"""barrierfem benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in fresh worker
processes (perfbench/worker.py), one at a time, with BLAS threading
left at the library default.

--trace 0 runs one untraced worker that repeats rounds of the workload
(fresh meshes, then the solves) as long as they fit in S seconds, at
least one round, and reports the medians over rounds.  setup_s is the
median import time (over that worker and IMPORT_WORKERS import-only
workers, half before it and half after) plus the median mesh set-up
time of a round.
--trace 1 runs one untraced round and TRACED_ROUNDS traced rounds, each
in its own worker, and reports the per-layer metrics (medians over the
traced rounds) and the tracing overhead.  A traced round that would end
after SOFT_BUDGET_S is left out; the details line then shows a single
traced round, whose span counters have nothing to be compared with.

Every round is checked (see workloads.py) and the solve counters of all
rounds of one invocation must repeat exactly.  The environment and the
per-round samples are printed on the line before the result and written
with the spans under .perfbench_out/.  The last line of standard output
is the result: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when the result is correct, 1 when it is not, and 2 when the
benchmark cannot run at all (no barrierfem sources, a worker crashed or
ran out of time), in which case no result is printed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

IMPORT_WORKERS = 4
TRACED_ROUNDS = 2
#: no further traced round starts if it would end after this
SOFT_BUDGET_S = 150.0
#: a worker still running at this point is killed and the run fails
HARD_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(workload, seed, mode, started, seconds=0.0):
    remaining = HARD_BUDGET_S - (time.perf_counter() - started)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process of {workload} still running after the time budget") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} process of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload, seed, seconds, trace, started):
    """Run the worker processes of one invocation: (workers, import samples)."""
    if trace:
        workers = [run_worker(workload, seed, "pass", started)]
        for _ in range(TRACED_ROUNDS):
            t = time.perf_counter()
            workers.append(run_worker(workload, seed, "traced", started))
            if time.perf_counter() - started + (time.perf_counter() - t) > SOFT_BUDGET_S:
                break
        return workers, []

    def imports(count):
        return [run_worker(workload, seed, "import", started)["import_s"] for _ in range(count)]

    # import samples before and after the rounds, which span most of the run
    before = imports(IMPORT_WORKERS // 2)
    workers = [run_worker(workload, seed, "pass", started, seconds)]
    return workers, before + imports(IMPORT_WORKERS - IMPORT_WORKERS // 2)


def counter_mismatches(records, names):
    """Messages for every counter that differs between records."""
    problems = []
    for name in names:
        values = [r[name] for r in records]
        if any(v != values[0] for v in values):
            problems.append(f"{name} differs between runs: {values}")
    return problems


def solved_share(attempted, failed):
    return (attempted - failed) / attempted


def summarize(spec, workers, imports, trace):
    """The result line and the list of failed checks."""
    rounds = [r for p in workers for r in p["rounds"]]
    outcomes = [o for r in rounds for o in r["outcomes"]]
    attempted = len(outcomes)
    failures = [f"{key}: {reason}" for key, ok, reason in outcomes if not ok]
    problems = [m for r in rounds for m in r["problems"]]
    problems += counter_mismatches([r["counters"] for r in rounds],
                                   ("solvers.newton_iterations", "solvers.mu_stages", "solves"))
    if trace:
        traced = [p for p in workers if "layers" in p]
        problems += counter_mismatches([p["layers"] for p in traced], layers.COUNTERS)
        # counters repeat exactly (checked above); times are medians
        values = {name: traced[0]["layers"][name] if name in layers.COUNTERS
                  else statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (
            statistics.median(p["rounds"][0]["wall_s"] for p in traced)
            - workers[0]["rounds"][0]["wall_s"]
        )
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": (statistics.median([p["import_s"] for p in workers] + imports)
                        + statistics.median(s for p in workers for s in p["mesh_setup_s"])),
            "barrier_s": statistics.median(r["barrier_s"] for r in rounds),
            "solved_share": solved_share(attempted, len(failures)),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in workers),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, failures + problems


def source_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "barrierfem").glob("*.py")))


def main(argv=None):
    parser = argparse.ArgumentParser(description="barrierfem benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "barrierfem" / "__init__.py").is_file():
        print(f"error: no barrierfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        workers, imports = collect(args.workload, args.seed, args.seconds,
                                  args.trace, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, errors = summarize(spec, workers, imports, args.trace)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": dict(workers[0]["environment"], src_lines=source_lines()),
        "samples": {
            "processes": len(workers),
            "rounds": sum(len(p["rounds"]) for p in workers),
            "import_s": [p["import_s"] for p in workers] + imports,
            "mesh_setup_s": [s for p in workers for s in p["mesh_setup_s"]],
            "wall_s": [r["wall_s"] for p in workers for r in p["rounds"]],
            "barrier_s": [r["barrier_s"] for p in workers for r in p["rounds"]],
            "peak_rss_mb": [p["peak_rss_mb"] for p in workers],
        },
        "errors": errors,
        "run_s": time.perf_counter() - started,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(details, result=result), indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
