"""Rounds of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --seconds S --out DIR

MODE `import` only times `import barrierfem`.  MODE `pass` times the
import, then runs as many rounds as fit in S seconds (at least one); a
round builds the workload's meshes afresh (its set-up) and runs its
solves (its timed phase).  Set-ups without solves follow until there are
SETUP_SAMPLES set-up times.  MODE `traced` runs one round with every
layer wrapped in spans.  The last line of standard output is one JSON object
with the measurements; run.py reads it.  barrierfem is imported from the
checkout's src/ directory and from nowhere else.
"""

import time

T0 = time.perf_counter()  # the import time counts from here

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "fem", "linalg", "mesh", "problem", "solvers")
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_barrierfem():
    src = ROOT / "src"
    if not (src / "barrierfem" / "__init__.py").is_file():
        sys.exit(f"error: no barrierfem sources under {src}")
    sys.path.insert(0, str(src))
    bf = types.SimpleNamespace(
        **{name: importlib.import_module(f"barrierfem.{name}") for name in MODULES}
    )
    if not Path(bf.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: barrierfem imported from {bf.cli.__file__}, not {src}")
    return bf


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def report_counters(solves):
    """Counters that the solvers' own reports give, traced or not."""
    digest = sorted(
        [s["method"], s.get("iterations"), s.get("stages"), s.get("converged"), s.get("sign")]
        for s in solves
    )
    return {
        "solvers.newton_iterations": sum(s.get("iterations", 0) for s in solves),
        "solvers.mu_stages": sum(s.get("stages", 0) for s in solves),
        "solves": digest,
    }


def run_round(bf, workload, seed, recorder, out):
    """Set-up and timed phase of one round, then its correctness check."""
    recorder.solves = []
    t0 = time.perf_counter()
    state = workload.setup(bf)
    t1 = time.perf_counter()
    run_dir = Path(tempfile.mkdtemp(prefix="round-", dir=out))
    try:
        t2 = time.perf_counter()
        results = workload.run(bf, state, seed, recorder, run_dir)
        wall_s = time.perf_counter() - t2
        outcomes, problems = workload.check(results, recorder, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "mesh_setup_s": t1 - t0,
        "wall_s": wall_s,
        "barrier_s": sum(s["wall_s"] for s in recorder.solves
                         if s["method"] == workload.barrier_method),
        "outcomes": [[o.key, o.ok, o.reason] for o in outcomes],
        "problems": problems,
        "counters": report_counters(recorder.solves),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("import", "pass", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bf = import_barrierfem()
    import_s = time.perf_counter() - T0
    if args.mode == "import":
        print(json.dumps({"import_s": import_s}))
        return 0

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    recorder = spans.Recorder(traced=args.mode == "traced")
    recorder.install(bf)
    rounds = []
    try:
        started = last = time.perf_counter()
        # another round only when it should end within the measuring time
        while not rounds or 2 * time.perf_counter() - started - last <= args.seconds:
            last = time.perf_counter()
            rounds.append(run_round(bf, workload, args.seed, recorder, args.out))
            if len(rounds) == 1:
                # the workspace cache keeps every mesh alive, so later
                # rounds only add to the footprint of the first
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if recorder.traced:
                break
        setups = [r["mesh_setup_s"] for r in rounds]
        while not recorder.traced and len(setups) < SETUP_SAMPLES:
            t0 = time.perf_counter()
            workload.setup(bf)
            setups.append(time.perf_counter() - t0)
    finally:
        recorder.restore()

    record = {
        "import_s": import_s,
        "mesh_setup_s": setups,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    if recorder.traced:
        record["layers"] = spans.layer_metrics(recorder.spans, recorder.solves)
        recorder.write(args.out / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
