"""Span recording and per-layer arithmetic for the traced benchmark pass.

A `Recorder` replaces public functions of barrierfem, at the module
attribute their callers look up, with wrappers that record one span per
call: a name, a start, an end, the index of the enclosing span and
optional attributes taken from the call's result.  Spans stay in memory
and are written out once the pass has ended.  `restore()` puts every
original function back.

The solver entry points are always wrapped, traced or not, because the
correctness gate needs their reports; with tracing off those wrappers
only time the call and keep a short summary of the report.

Everything below `Recorder` is plain arithmetic on span lists and has
no dependency on barrierfem, so the self-tests can drive it with
synthetic spans.
"""

import json
import statistics
import time
import weakref

NAME, START, END, PARENT, ATTRS = range(5)

CSR_SPANS = ("linalg.from_coo", "fem.add_scaled")
JACOBIAN_SPANS = ("fem.jacobian_mu0", "fem.jacobian_barrier")
SOLVER_SPANS = (
    "solvers.newton_standard",
    "solvers.newton_safeguarded",
    "solvers.barrier_solve",
)


def _jacobian_name(args, kwargs):
    """Split assemble_jacobian(spec, mesh, u, mu=0.0) calls by mu."""
    mu = args[3] if len(args) > 3 else kwargs.get("mu", 0.0)
    return "fem.jacobian_mu0" if mu == 0 else "fem.jacobian_barrier"


def _cg_attrs(args, kwargs, result):
    """A CG call is useful when it returns a nonzero direction."""
    return {"iterations": int(result.iterations), "useful": bool(result.x.any())}


def solve_summary(report):
    """The parts of a SolveReport the gate and the counters need."""
    return {
        "iterations": int(report.total_newton_iterations),
        "stages": len(report.stages),
        "converged": bool(report.converged),
        "sign": report.sign.value,
        "final_residual": float(report.final_residual),
        "min_free_coeff": min(
            (float(r.min_free_coeff) for r in report.iterations), default=None
        ),
    }


class Recorder:
    """Installs wrappers on barrierfem modules and keeps what they see."""

    def __init__(self, traced):
        self.traced = traced
        self.spans = []
        self.solves = []          # one dict per solver entry-point call of a round
        self._stack = []
        self._patched = []
        self._meshes_seen = weakref.WeakSet()

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self, bf):
        """Wrap the public names of `bf` (a namespace of barrierfem modules)."""
        for module in (bf.cli, bf.solvers):
            for fn_name in ("newton_standard", "newton_safeguarded", "barrier_solve"):
                self._patch(module, fn_name, lambda fn, n=fn_name: self._solver(fn, n))
        if not self.traced:
            return
        self._patch(bf.cli, "main", lambda fn: self._span(fn, "cli.main"))
        for gen in ("generate_shell_mesh", "generate_interval_mesh", "generate_annulus_mesh"):
            self._patch(bf.mesh, gen, lambda fn: self._span(fn, "mesh.generate"))
        self._patch(bf.cli, "generate_shell_mesh", lambda fn: self._span(fn, "mesh.generate"))
        self._patch(bf.mesh, "validate", lambda fn: self._span(fn, "mesh.validate"))
        for module in (bf.fem, bf.solvers):
            self._patch(
                module,
                "workspace_for",
                lambda fn: self._span(fn, "fem.workspace_for", describe=self._workspace),
            )
        self._patch(bf.solvers, "assemble_jacobian",
                    lambda fn: self._span(fn, name_of=_jacobian_name))
        self._patch(bf.solvers, "assemble_residual", lambda fn: self._span(fn, "fem.residual"))
        self._patch(bf.solvers, "cg_solve",
                    lambda fn: self._span(fn, "linalg.cg", describe=_cg_attrs))
        self._patch(bf.solvers, "armijo_backtrack", lambda fn: self._span(fn, "solvers.armijo"))
        self._patch(bf.fem, "add_scaled", lambda fn: self._span(fn, "fem.add_scaled"))
        self._patch(bf.linalg.SparseMatrix, "from_coo",
                    lambda fn: self._span(fn, "linalg.from_coo"))

    def restore(self):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- wrappers -------------------------------------------------------

    def _span(self, fn, name=None, name_of=None, describe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name_of(args, kwargs) if name_of else name, 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if describe is not None:
                span[ATTRS] = describe(args, kwargs, result)
            return result

        return traced

    def _workspace(self, args, kwargs, result):
        mesh = args[0] if args else kwargs["mesh"]
        built = mesh not in self._meshes_seen
        self._meshes_seen.add(mesh)
        return {"build": built}

    def _solver(self, fn, fn_name):
        inner = self._span(fn, f"solvers.{fn_name}") if self.traced else fn

        def timed(*args, **kwargs):
            entry = {"method": fn_name}
            self.solves.append(entry)
            t0 = time.perf_counter()
            try:
                report = inner(*args, **kwargs)
            except Exception as exc:
                entry["wall_s"] = time.perf_counter() - t0
                entry["error"] = f"{type(exc).__name__}: {exc}"
                raise
            entry["wall_s"] = time.perf_counter() - t0
            entry.update(solve_summary(report))
            return report

        return timed

    def write(self, path):
        with open(path, "w") as fh:
            for index, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent, "attrs": attrs}) + "\n")


# -- arithmetic on span lists ---------------------------------------------


def child_time(spans):
    """Per span, the time its direct child spans cover.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and their durations add up.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return covered


def self_times(spans):
    covered = child_time(spans)
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def _median_ms(durations):
    return 1000.0 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans, solves):
    """Per-layer metrics of one traced round (see layers.TARGETS)."""
    own = self_times(spans)
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def pick(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def total(indices):
        return sum(spans[i][END] - spans[i][START] for i in indices)

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, [])]

    def self_sum(*names):
        return sum(own[i] for i in pick(*names))

    def attr(i, key):  # a call that raised has no attributes
        return (spans[i][ATTRS] or {}).get(key, 0)

    workspace = pick("fem.workspace_for")
    cg = pick("linalg.cg")
    armijo = set(pick("solvers.armijo"))
    residual = pick("fem.residual")
    # a CSR build nested in another CSR build is already inside its time
    csr = [i for i in pick(*CSR_SPANS)
           if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] not in CSR_SPANS]
    cg_calls = len(cg)
    return {
        "mesh.generate_s": self_sum("mesh.generate"),
        "mesh.validate_s": total(pick("mesh.validate")),
        "mesh.meshes": len(pick("mesh.generate")),
        "fem.workspace_s": total(workspace),
        "fem.workspace_builds": sum(1 for i in workspace if attr(i, "build")),
        "fem.jacobian_mu0_calls": len(pick("fem.jacobian_mu0")),
        "fem.jacobian_mu0_ms": _median_ms(durations("fem.jacobian_mu0")),
        "fem.jacobian_barrier_calls": len(pick("fem.jacobian_barrier")),
        "fem.jacobian_barrier_ms": _median_ms(durations("fem.jacobian_barrier")),
        "fem.jacobian_self_s": self_sum(*JACOBIAN_SPANS),
        "fem.residual_calls": len(residual),
        "fem.residual_ms": _median_ms(durations("fem.residual")),
        "linalg.csr_build_calls": len(pick(*CSR_SPANS)),
        "linalg.csr_build_s": total(csr),
        "linalg.cg_calls": cg_calls,
        "linalg.cg_s": total(cg),
        "linalg.cg_iterations": sum(attr(i, "iterations") for i in cg),
        "linalg.cg_useful_ratio": (
            sum(1 for i in cg if attr(i, "useful")) / cg_calls if cg_calls else 0.0
        ),
        "solvers.newton_iterations": sum(s.get("iterations", 0) for s in solves),
        "solvers.mu_stages": sum(s.get("stages", 0) for s in solves),
        "solvers.linesearch_calls": len(armijo),
        "solvers.linesearch_trials": sum(1 for i in residual if spans[i][PARENT] in armijo),
        "solvers.linesearch_self_s": self_sum("solvers.armijo"),
        "solvers.self_s": self_sum(*SOLVER_SPANS),
        "cli.self_s": self_sum("cli.main"),
    }
