"""The traced benchmark run (perfbench/spans.py) wraps barrierfem functions
by their module attribute names.  Every name it wraps must exist, and
restore() must put back the very objects it replaced."""

import importlib
import sys
import types
from pathlib import Path

from barrierfem.mesh import Marker
from barrierfem.problem import FeFunction, builtin_example
from barrierfem.solvers import SolverConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "fem", "linalg", "mesh", "problem", "solvers")


def test_traced_recorder_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    bf = types.SimpleNamespace(
        **{name: importlib.import_module(f"barrierfem.{name}") for name in MODULES}
    )
    owners = [getattr(bf, name) for name in MODULES] + [bf.linalg.SparseMatrix]
    before = [dict(vars(owner)) for owner in owners]

    recorder = spans.Recorder(traced=True)
    recorder.install(bf)
    try:
        mesh = bf.mesh.generate_interval_mesh(0.1, 10, 20, left=Marker.ROBIN, right=Marker.ROBIN)
        report = bf.solvers.barrier_solve(
            builtin_example(1), mesh, FeFunction.constant(mesh, 1.0), SolverConfig(mu0=1.0)
        )
    finally:
        recorder.restore()

    assert report.converged
    names = {span[spans.NAME] for span in recorder.spans}
    assert {
        "solvers.barrier_solve",
        "mesh.generate",
        "fem.workspace_for",
        "fem.jacobian_barrier",
        "fem.jacobian_mu0",
        "fem.residual",
        "linalg.cg",
        "solvers.armijo",
    } <= names
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[key] is value for key, value in saved.items()), owner
