"""The three benchmark workloads and their correctness gates.

Each workload has a set-up step (the meshes it needs, with validation and
`workspace_for`), a timed step that runs its solves, and a check that
turns what the solves returned into one `Outcome` per solve plus a list
of consistency problems.  The inputs are fixed; the seed only permutes
the order of the solves in barrier_fine and mesh_sweep, and no result
may depend on it.

Every barrierfem function is looked up on its module at call time, so
the wrappers that `spans.Recorder` installs see every call.
"""

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: ||G|| a barrier solve must reach
EPS = 1.0e-7
#: lowest acceptable L2 order on the finest mesh pair of an MMS sequence
MIN_L2_ORDER = 1.9

SHELL_LABELS = ("shell_r50", "shell_r10", "shell_r1")
SUITE_METHODS = {
    1: ("newton", "safeguarded", "barrier@mu0=0", "barrier@mu0=1"),
    2: ("newton", "safeguarded", "barrier@mu0=50"),
    3: ("newton", "safeguarded", "barrier@mu0=1"),
    4: ("newton", "safeguarded", "barrier@mu0=10"),
}
#: examples 1-4 with the paper suite's barrier mu0
BARRIER_FINE = ((1, 1.0), (2, 50.0), (3, 1.0), (4, 10.0))
SWEEP_REFINEMENTS = (1, 2, 3)
SWEEP_RADII = (50.0, 10.0, 1.0)
INTERVAL_CELLS = (8, 16, 32, 64, 128)
ANNULUS_GRIDS = ((3, 12), (6, 24), (12, 48), (24, 96))


@dataclass
class Outcome:
    key: str
    ok: bool
    reason: str = ""


def barrier_verdict(summary):
    """Reason a barrier solve fails the gate, or "" when it passes."""
    if "error" in summary:
        return f"raised {summary['error']}"
    if not summary["converged"]:
        return "not converged"
    if summary["sign"] != "+":
        return f"sign {summary['sign']}"
    if not summary["final_residual"] <= EPS:
        return f"||G|| = {summary['final_residual']:.3e} > {EPS:g}"
    if summary["min_free_coeff"] is not None and not summary["min_free_coeff"] > 0:
        return f"min_free_coeff = {summary['min_free_coeff']:.3e}"
    return ""


def _shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _prepare(bf, mesh):
    bf.fem.workspace_for(mesh)
    return mesh


# -- paper_suite ------------------------------------------------------------


def paper_suite_setup(bf):
    """The command builds its own meshes; set-up is the import alone."""
    return None


def paper_suite_run(bf, state, seed, recorder, out_dir):
    """Returns the command's exit code, or the error it raised."""
    try:
        return bf.cli.main(["paper-suite", "--out", str(out_dir)])
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _read_lines(path):
    return path.read_text().splitlines() if path.is_file() else []


def paper_suite_check(results, recorder, out_dir):
    """One outcome per expected suite row, and the consistency problems.

    A row fails when it is missing from its CSV, when summary.txt does
    not list it once or calls it a MISMATCH, or, for barrier rows, when
    the captured report fails `barrier_verdict`.  Rows the suite leaves
    unscored pass whenever the solver returned a report.  The CSV
    iterations must add up to the iterations the reports recorded.
    """
    out = Path(out_dir)
    summary = [line.split(None, 3) for line in _read_lines(out / "summary.txt")]
    barrier_calls = iter([s for s in recorder.solves if s["method"] == "barrier_solve"])
    outcomes = []
    csv_iterations = 0
    for example, methods in SUITE_METHODS.items():
        rows = {(r["method"], r["mesh"]): r
                for r in csv.DictReader(_read_lines(out / f"example{example}.csv"))}
        for method in methods:
            for mesh_label in SHELL_LABELS:
                row = rows.get((method, mesh_label))
                verdicts = [f[3] for f in summary
                            if f[:3] == [f"example{example}", method, mesh_label]]
                reason = ""
                if method.startswith("barrier"):
                    captured = next(barrier_calls, None)
                    reason = "no report" if captured is None else barrier_verdict(captured)
                if row is None:
                    reason = "row missing"
                else:
                    csv_iterations += int(row["iterations"])
                if len(verdicts) != 1 or "MISMATCH" in verdicts[0]:
                    reason = f"summary lists {verdicts}"
                outcomes.append(Outcome(f"example{example}/{method}/{mesh_label}",
                                        not reason, reason))
    reported = sum(s.get("iterations", 0) for s in recorder.solves)
    problems = [] if results == 0 else [f"paper-suite returned {results}"]
    if reported != csv_iterations:
        problems.append(f"CSV iterations add up to {csv_iterations}, reports to {reported}")
    return outcomes, problems


# -- barrier_fine -----------------------------------------------------------


def barrier_fine_setup(bf):
    """The refinement-3 shell, r_in = 10, with Robin and Dirichlet markers."""
    shell = bf.mesh.generate_shell_mesh
    marker = bf.mesh.Marker
    return {
        m: _prepare(bf, shell(10.0, 100.0, 3, inner=m, outer=m))
        for m in (marker.ROBIN, marker.DIRICHLET)
    }


def barrier_fine_run(bf, meshes, seed, recorder, out_dir):
    """Barrier solves in seeded order; returns {example: solve summary}."""
    marker = bf.mesh.Marker
    results = {}
    for example, mu0 in _shuffled(BARRIER_FINE, seed):
        mesh = meshes[marker.ROBIN if example in (1, 2) else marker.DIRICHLET]
        spec = bf.problem.builtin_example(example)
        u0 = bf.problem.FeFunction.constant(mesh, 1.0)
        try:
            bf.solvers.barrier_solve(spec, mesh, u0, bf.solvers.SolverConfig(mu0=mu0))
        except Exception:
            pass  # the solver wrapper has recorded the error
        results[example] = recorder.solves[-1]
    return results


def barrier_fine_check(results, recorder, out_dir):
    outcomes = []
    for example in sorted(results):
        reason = barrier_verdict(results[example])
        outcomes.append(Outcome(f"example{example}", not reason, reason))
    return outcomes, []


# -- mesh_sweep -------------------------------------------------------------


def _exact_1d(x):
    return np.sin(np.pi * np.atleast_2d(x)[:, 0]) + 2.0


def _source_1d(x):
    s = np.atleast_2d(x)[:, 0]
    return (np.pi**2 + 1.0) * np.sin(np.pi * s) + 2.0


def _exact_2d(x):
    x = np.atleast_2d(x)
    return np.sin(x[:, 0]) * np.cos(x[:, 1]) + 2.0


def _source_2d(x):
    x = np.atleast_2d(x)
    return 3.0 * np.sin(x[:, 0]) * np.cos(x[:, 1]) + 2.0


def mesh_sweep_setup(bf):
    """Every mesh of the sweep, one per solve.

    The nine Dirichlet shells, then the manufactured-solution sequences
    of demos/mesh_convergence.py: -u'' + u = f on [0, 1] and
    -Lap u + u = f on the annulus 1 <= r <= 2.
    """
    m = bf.mesh
    items = []
    for refinement in SWEEP_REFINEMENTS:
        for r_in in SWEEP_RADII:
            mesh = m.generate_shell_mesh(r_in, 100.0, refinement,
                                         inner=m.Marker.DIRICHLET, outer=m.Marker.DIRICHLET)
            items.append(("shell", f"shell_ref{refinement}_r{int(r_in)}", _prepare(bf, mesh)))
    for level, n in enumerate(INTERVAL_CELLS):
        items.append(("interval", level, _prepare(bf, m.generate_interval_mesh(0, 1, n))))
    for level, (n_r, n_a) in enumerate(ANNULUS_GRIDS):
        mesh = m.generate_annulus_mesh(1, 2, n_r, n_a,
                                       inner=m.Marker.DIRICHLET, outer=m.Marker.DIRICHLET)
        items.append(("annulus", level, _prepare(bf, mesh)))
    return items


def mesh_sweep_run(bf, items, seed, recorder, out_dir):
    """Solve each mesh in seeded order.

    Returns {(kind, label): (ok, detail)}: for shells ok means converged
    and positive; for the MMS meshes it means converged, and detail is
    the L2 error.  A raised error becomes (False, message).
    """
    p, s = bf.problem, bf.solvers
    specs = {
        "shell": p.builtin_example(3),
        "interval": p.ProblemSpec(power_terms=((1, 1.0),), source=_source_1d,
                                  dirichlet_data=_exact_1d),
        "annulus": p.ProblemSpec(power_terms=((1, 1.0),), source=_source_2d,
                                 dirichlet_data=_exact_2d),
    }
    exact = {"interval": _exact_1d, "annulus": _exact_2d}
    results = {}
    for kind, label, mesh in _shuffled(items, seed):
        spec = specs[kind]
        try:
            if kind == "shell":
                report = s.newton_safeguarded(spec, mesh, p.FeFunction.constant(mesh, 1.0))
                results[kind, label] = (report.converged and report.sign.value == "+",
                                        f"converged={report.converged} sign={report.sign.value}")
            else:
                u0 = bf.fem.apply_dirichlet(p.FeFunction.constant(mesh, 0.0), mesh, spec)
                report = s.newton_standard(spec, mesh, u0)
                results[kind, label] = (report.converged,
                                        bf.fem.l2_error(mesh, report.solution, exact[kind]))
        except Exception as exc:
            results[kind, label] = (False, f"raised {type(exc).__name__}: {exc}")
    return results


def l2_order(coarse_error, fine_error):
    """Observed order of one halving of the mesh size."""
    return math.log2(coarse_error / fine_error)


def mesh_sweep_check(results, recorder, out_dir):
    """One outcome per solve; the finest MMS solve of each sequence also
    fails when the L2 order of the finest pair is below MIN_L2_ORDER."""
    finest = {"interval": len(INTERVAL_CELLS) - 1, "annulus": len(ANNULUS_GRIDS) - 1}
    outcomes = []
    for (kind, label), (ok, detail) in sorted(results.items(), key=str):
        reason = "" if ok else str(detail)
        if ok and kind in finest and label == finest[kind]:
            coarse_ok, coarse_error = results[kind, label - 1]
            order = l2_order(coarse_error, detail) if coarse_ok else float("nan")
            if not order >= MIN_L2_ORDER:
                reason = f"L2 order {order:.3f} < {MIN_L2_ORDER}"
        outcomes.append(Outcome(f"{kind}/{label}", not reason, reason))
    return outcomes, []


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object
    #: solver whose summed call time is barrier_s (mesh_sweep runs no
    #: barrier solve; its safeguarded-Newton solves are the barrier
    #: method's inner loop at mu = 0)
    barrier_method: str


WORKLOADS = {
    "paper_suite": Workload(paper_suite_setup, paper_suite_run, paper_suite_check,
                            "barrier_solve"),
    "barrier_fine": Workload(barrier_fine_setup, barrier_fine_run, barrier_fine_check,
                             "barrier_solve"),
    "mesh_sweep": Workload(mesh_sweep_setup, mesh_sweep_run, mesh_sweep_check,
                           "newton_safeguarded"),
}
