"""Batch experiment driver and command-line interface.

* `_Entries` and `load_experiment`: the `key = value` config file;
* `MESH_KINDS`: the generated meshes, for config keys and mesh-gen flags;
* `_write_grid`: the (method x mesh) CSV grid of `solve` and `paper-suite`;
* `emit_paper_suite` and `_SUITE`: the benchmark grid and its expectations;
* `main`: the subcommands; bad input ends as one `error:` line, exit 2.
"""

import argparse
import datetime
import itertools
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import (
    BarrierFemError,
    ConfigError,
    InvalidGeometry,
    InvalidRange,
    ParseError,
    ValidationError,
)
from .mesh import (
    Marker,
    generate_annulus_mesh,
    generate_interval_mesh,
    generate_shell_mesh,
    load_mesh,
    save_mesh,
)
from .problem import FeFunction, builtin_example, lichnerowicz_spec, power_sum
from .solvers import (
    SolveReport,
    SolverConfig,
    barrier_solve,
    newton_safeguarded,
    newton_standard,
)

CSV_HEADER = "method,mesh,iterations,residual,sign,converged,mu_steps,wall_ms"

METHODS = ("newton", "safeguarded", "barrier")

#: inner radii of the three built-in spherical shells (outer radius 100)
BUILTIN_SHELL_RADII = (50.0, 10.0, 1.0)
BUILTIN_SHELL_REFINEMENT = 2
BUILTIN_SHELL_LAYERS = 5

#: mesh kind -> (generator, its marker keywords for the inner and outer
#: boundary, (name, default, type) per parameter); the config keys
#: mesh.<name> and the mesh-gen flags --<name> both read it
MESH_KINDS = {
    "interval": (generate_interval_mesh, ("left", "right"),
                 (("a", 0.0, float), ("b", 1.0, float), ("n_cells", 64, int))),
    "annulus": (generate_annulus_mesh, ("inner", "outer"),
                (("r_in", 1.0, float), ("r_out", 2.0, float),
                 ("n_radial", 8, int), ("n_angular", 32, int))),
    "shell": (generate_shell_mesh, ("inner", "outer"),
              (("r_in", 50.0, float), ("r_out", 100.0, float),
               ("refinement", BUILTIN_SHELL_REFINEMENT, int), ("n_layers", None, int))),
}

#: config key problem.<name> -> (lichnerowicz_spec argument, default,
#: bound that the value must meet besides being finite)
_PROBLEM_KEYS = {
    "diffusion": ("diffusion", 1.0, "> 0"),
    "scalar_curvature": ("scalar_curvature", 0.0, ""),
    "tau": ("tau", 0.0, ""),
    "sigma": ("sigma", 0.0, ">= 0"),
    "rho": ("rho", 0.0, ">= 0"),
    "robin_c": ("robin_coeff", 0.0, ""),
    "robin_g": ("robin_data", 0.0, ""),
    "dirichlet_g": ("dirichlet_data", 0.0, ""),
}

#: mesh-gen flag --<name> -> type, one per parameter name of MESH_KINDS
_MESH_FLAGS = {name: type_ for _, _, params in MESH_KINDS.values() for name, _, type_ in params}


def _generate_mesh(kind, value, inner, outer):
    """The MESH_KINDS mesh `kind`; value(name, default, type) gives each parameter."""
    generator, markers, params = MESH_KINDS[kind]
    kwargs = {name: value(name, default, type_) for name, default, type_ in params}
    return generator(**kwargs, **dict(zip(markers, (inner, outer))))


def example_marker(example):
    """Boundary marker of built-in example 1-4: Robin for 1-2, Dirichlet for 3-4."""
    return Marker.ROBIN if example in (1, 2) else Marker.DIRICHLET


def builtin_shell_meshes(marker=Marker.ROBIN):
    """The three desk-scale experiment shells (labels shell_r50/r10/r1)."""
    meshes = []
    for r_in in BUILTIN_SHELL_RADII:
        mesh = generate_shell_mesh(
            r_in,
            100.0,
            BUILTIN_SHELL_REFINEMENT,
            inner=marker,
            outer=marker,
            n_layers=BUILTIN_SHELL_LAYERS,
        )
        meshes.append((f"shell_r{int(r_in)}", mesh))
    return meshes


@dataclass
class ExperimentConfig:
    spec: object
    meshes: list                 # (label, SimplicialMesh) pairs
    methods: list
    u0: object                   # u0.constant (a float) or the u0.file vector
    solver: SolverConfig


class _Entries:
    """The `key = value` lines of a config file, and the keys read so far."""

    def __init__(self, path):
        self.entries = {}
        self.used = set()
        try:
            with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is no key
                for lineno, raw in enumerate(fh, 1):
                    text = raw.split("#", 1)[0].strip()
                    if not text:
                        continue
                    if "=" not in text:
                        raise ConfigError("expected 'key = value'", line=lineno)
                    key, _, value = text.partition("=")
                    key, value = key.strip(), value.strip()
                    if not key or not value:
                        raise ConfigError("empty key or value", line=lineno)
                    if key in self.entries:
                        raise ConfigError(f"duplicate key {key!r}", line=lineno)
                    self.entries[key] = (value, lineno)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path}: not a text file ({exc.reason})") from None

    def take(self, key, default=None, convert=str):
        if key not in self.entries:
            return default
        value, line = self.entries[key]
        self.used.add(key)
        try:
            return convert(value)
        except (TypeError, ValueError):
            raise ConfigError(f"bad value {value!r} for {key}", line=line) from None

    def line_of(self, key):
        return self.entries[key][1] if key in self.entries else None

    def check_all_used(self):
        for key, (_, line) in self.entries.items():
            if key not in self.used:
                raise ConfigError(f"key {key!r} is unknown or does not apply", line=line)


def _to_marker(text):
    return Marker(text.lower())


def _reason(exc):
    """An error's message without the file name the caller already gives:
    the strerror of an OSError that has one ("No such file or directory")."""
    return getattr(exc, "strerror", None) or str(exc)


def load_experiment(path):
    """Parse and validate a config file into an ExperimentConfig.

    Every solve starts from one value: `u0.constant` (default 1.0) at each
    vertex, or the `u0.file` vector, one value per line and a line per
    vertex of every mesh; a config may not set both."""
    ent = _Entries(path)

    example = ent.take("problem.example", convert=int)
    if example is not None:
        if example not in (1, 2, 3, 4):
            raise ConfigError(
                f"problem.example must be 1..4, got {example}",
                line=ent.line_of("problem.example"),
            )
        spec = builtin_example(example)
        default_marker = example_marker(example)
    else:
        args = {}
        for name, (arg, default, bound) in _PROBLEM_KEYS.items():
            key = "problem." + name
            args[arg] = value = ent.take(key, default, float)
            in_bound = {"> 0": value > 0, ">= 0": value >= 0}.get(bound, True)
            if not (np.isfinite(value) and in_bound):
                need = f"finite and {bound}" if bound else "finite"
                raise ConfigError(f"{key} must be {need}, got {value}", line=ent.line_of(key))
        spec = lichnerowicz_spec(**args)
        default_marker = Marker.ROBIN

    kind = ent.take("mesh.kind")
    if kind is None:
        raise ConfigError("missing mesh.kind")
    # a marker key is read only where the mesh uses it; check_all_used
    # rejects one that does not apply
    marker = lambda side: ent.take(f"mesh.{side}_marker", default_marker, _to_marker)
    try:
        if kind in MESH_KINDS:
            take = lambda name, default, type_: ent.take("mesh." + name, default, type_)
            meshes = [(kind, _generate_mesh(kind, take, marker("inner"), marker("outer")))]
        elif kind == "shells":
            meshes = builtin_shell_meshes(marker("inner"))
        elif kind == "file":
            mesh_path = ent.take("mesh.path")
            if mesh_path is None:
                raise ConfigError("mesh.kind = file requires mesh.path")
            try:  # only this call: a ConfigError is a ParseError too
                mesh = load_mesh(mesh_path)
            except (OSError, ParseError, InvalidGeometry, ValidationError) as exc:
                raise ConfigError(f"mesh file {mesh_path}: {_reason(exc)}",
                                  line=ent.line_of("mesh.path")) from exc
            meshes = [(Path(mesh_path).stem, mesh)]
        else:
            raise ConfigError(
                f"unknown mesh.kind {kind!r}", line=ent.line_of("mesh.kind")
            )
    except (InvalidGeometry, ValidationError) as exc:
        raise ConfigError(str(exc), line=ent.line_of("mesh.kind")) from exc

    methods_text = ent.take("methods", "newton")
    methods = [tok.strip() for tok in methods_text.split(",") if tok.strip()]
    if not methods:
        raise ConfigError("need at least one method", line=ent.line_of("methods"))
    for method in methods:
        if method not in METHODS:
            raise ConfigError(
                f"unknown method {method!r} (choose from {', '.join(METHODS)})",
                line=ent.line_of("methods"),
            )

    u0_file = ent.take("u0.file")
    if u0_file is not None:
        line = ent.line_of("u0.file")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # loadtxt's "no data" warning
                u0 = np.loadtxt(u0_file, encoding="utf-8-sig", ndmin=2)
        except UserWarning:
            raise ConfigError(f"u0.file {u0_file}: no values", line=line) from None
        except (OSError, ValueError) as exc:
            raise ConfigError(f"u0.file {u0_file}: {_reason(exc)}", line=line) from None
        if u0.shape[1] != 1:  # a line of several values, even the only line
            raise ConfigError(f"u0.file {u0_file}: a {u0.shape[0]} x {u0.shape[1]} table, "
                              "not one value per vertex", line=line)
        u0 = u0.ravel()
        if not np.all(np.isfinite(u0)):
            raise ConfigError(f"u0.file {u0_file}: every value must be finite", line=line)
        for label, mesh in meshes:
            if u0.size != mesh.num_vertices:
                raise ConfigError(
                    f"u0.file has {u0.size} values, mesh {label} has "
                    f"{mesh.num_vertices} vertices", line=line,
                )
    else:  # with u0.file, u0.constant is left unread, so check_all_used rejects it
        u0 = ent.take("u0.constant", 1.0, float)
        if not np.isfinite(u0):
            raise ConfigError(f"u0.constant must be finite, got {u0}",
                              line=ent.line_of("u0.constant"))

    # key solver.<name> sets the field <name>; defaults are SolverConfig's own
    values = {f.name: ent.take("solver." + f.name, f.default, f.type) for f in fields(SolverConfig)}
    try:
        solver = SolverConfig(**values)
    except ValueError as exc:  # its message starts with the field's name
        raise ConfigError(str(exc), line=ent.line_of("solver." + str(exc).split()[0])) from None

    ent.check_all_used()
    return ExperimentConfig(spec, meshes, methods, u0, solver)


def run_method(method, spec, mesh, u0, solver_config):
    """Dispatch one solve; failures become unconverged reports, not raises.

    `method` is one of METHODS, or `barrier@mu0=<value>` for the barrier
    method with mu0 set to <value>.
    """
    name, with_mu0, mu0 = method.partition("@mu0=")
    if with_mu0:
        solver_config = replace(solver_config, mu0=float(mu0))
    try:
        if method == "newton":
            return newton_standard(spec, mesh, u0)
        if method == "safeguarded":
            return newton_safeguarded(spec, mesh, u0)
        if name == "barrier":
            return barrier_solve(spec, mesh, u0, solver_config)
    except BarrierFemError as exc:
        return SolveReport(method=name, failure_reason=str(exc))
    raise ValueError(f"unknown method {method!r}")


def _csv_row(method_label, mesh_label, report):
    return ",".join(
        [
            method_label,
            mesh_label,
            str(report.total_newton_iterations),
            f"{report.final_residual:.6e}",
            report.sign.value,
            "true" if report.converged else "false",
            str(len(report.stages)),
            f"{report.wall_time * 1000.0:.1f}",
        ]
    )


def _write_grid(path, spec, methods, meshes, u0, solver_config):
    """Solve each of `methods` (the outer loop) on each (label, mesh) of
    `meshes`, every solve from u0, a constant or a vector of one value per
    vertex.  Writes CSV_HEADER and one row per solve to `path`; returns
    the (method, mesh label, report) of each solve."""
    grid = []
    for method, (label, mesh) in itertools.product(methods, meshes):
        start = FeFunction(np.full(mesh.num_vertices, u0, dtype=float))
        grid.append((method, label, run_method(method, spec, mesh, start, solver_config)))
    rows = [CSV_HEADER] + [_csv_row(*solve) for solve in grid]
    Path(path).write_text("\n".join(rows) + "\n")
    return grid


def run(config_path, out_dir="."):
    """Execute every (method x mesh) solve of a config; returns the exit
    code, 0 iff every solve converged, else 1.

    Writes results.csv (deterministic modulo the wall_ms column) and
    run_metadata.txt (timestamps) into out_dir.
    """
    config = load_experiment(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now().isoformat(timespec="seconds")
    grid = _write_grid(out / "results.csv", config.spec, config.methods, config.meshes,
                       config.u0, config.solver)
    (out / "run_metadata.txt").write_text(
        f"started: {started}\nfinished: "
        f"{datetime.datetime.now().isoformat(timespec='seconds')}\n"
        f"config: {config_path}\n"
    )
    return 0 if all(report.converged for _, _, report in grid) else 1


def figure_integrand(scalar_curvature, u):
    """Pointwise part of the 1D energy integrand,
    I(u) = (R/16) u^2 + u^6 + u^-6 + u^-2 (gradient term omitted).

    It is the antiderivative of (R/8) u + 6 u^5 - 6 u^-7 - 2 u^-3.  Only
    even powers appear, so I(-u) = I(u); evaluating through |u| makes
    that exact in floating point as well.
    """
    coeffs = ((1, scalar_curvature / 8.0), (5, 6.0), (-7, -6.0), (-3, -2.0))
    return power_sum(coeffs, np.abs(np.asarray(u, dtype=float)), derivative=-1)


def plot_integrand(scalar_curvature, u_min, u_max, samples, out_path):
    """Sample the 1D energy integrand on a monotone grid into a CSV."""
    if not (0 < u_min < u_max < np.inf and np.isfinite(scalar_curvature)):
        raise InvalidRange(f"need 0 < u_min < u_max < inf and a finite R, got "
                           f"[{u_min}, {u_max}] and R = {scalar_curvature}")
    if samples < 2:
        raise InvalidRange("need at least 2 samples")
    grid = np.linspace(u_min, u_max, samples)
    values = figure_integrand(scalar_curvature, grid)
    nonfinite = grid[~np.isfinite(values)]
    if nonfinite.size:
        raise InvalidRange(f"the integrand is not finite at u = {float(nonfinite[0])!r} "
                           f"(R = {scalar_curvature}); narrow the range")
    lines = [
        "# pointwise energy integrand I(u) = (R/16) u^2 + u^6 + u^-6 + u^-2",
        "# gradient term of the 1D energy omitted (pointwise profile in u)",
        f"# R = {scalar_curvature:g}",
        "u,I",
    ]
    lines += [f"{float(u)!r},{float(v)!r}" for u, v in zip(grid, values)]
    Path(out_path).write_text("\n".join(lines) + "\n")


# expected qualitative outcomes of the benchmark grid: (converged, sign)
# per method, same on every shell; None means mesh-dependent (not scored)
_SUITE = {
    1: {
        "newton": (True, "+"),
        "safeguarded": (True, "+"),
        "barrier@mu0=0": (True, "+"),
        "barrier@mu0=1": (True, "+"),
    },
    2: {
        "newton": None,
        "safeguarded": None,
        "barrier@mu0=50": (True, "+"),
    },
    3: {
        "newton": (True, "+"),
        "safeguarded": (True, "+"),
        "barrier@mu0=1": (True, "+"),
    },
    4: {
        "newton": None,
        "safeguarded": None,
        "barrier@mu0=10": (True, "+"),
    },
}


def emit_paper_suite(output_dir):
    """One-command benchmark grid on the three built-in shells.

    Writes example1.csv .. example4.csv, integrand.csv and summary.txt.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = ["benchmark grid on shells r_in in {50, 10, 1}, r_out = 100", ""]

    # the examples of one marker share one set of shells
    for marker, examples in itertools.groupby(_SUITE, example_marker):
        meshes = builtin_shell_meshes(marker)
        for example in examples:
            outcomes = _SUITE[example]
            grid = _write_grid(out / f"example{example}.csv", builtin_example(example),
                               outcomes, meshes, 1.0, SolverConfig())
            for method, mesh_label, report in grid:
                expected, actual = outcomes[method], (report.converged, report.sign.value)
                if expected is None:
                    verdict = f"observed {actual[1]}, converged={actual[0]} (not scored)"
                else:
                    verdict = "MATCH" if actual == expected else (
                        f"MISMATCH (expected sign {expected[1]}, "
                        f"converged={expected[0]}; got {actual[1]}, {actual[0]})"
                    )
                summary.append(f"example{example} {method:<16} {mesh_label:<9} {verdict}")
            summary.append("")

    plot_integrand(-1000.0, 0.4, 3.0, 200, out / "integrand.csv")
    (out / "summary.txt").write_text("\n".join(summary) + "\n")


def _cmd_solve(args):
    return run(args.config, args.out)


def _cmd_plot_integrand(args):
    plot_integrand(args.R, args.min, args.max, args.samples, args.out)
    return 0


def _cmd_paper_suite(args):
    emit_paper_suite(args.out)
    return 0


def _cmd_mesh_gen(args):
    own = {name for name, _, _ in MESH_KINDS[args.kind][2]}
    for name in _MESH_FLAGS:
        if name not in own and getattr(args, name) is not None:
            raise ConfigError(f"--{name.replace('_', '-')} does not apply to --kind {args.kind}")

    def flag(name, default, _):
        return default if getattr(args, name) is None else getattr(args, name)

    inner, outer = Marker(args.inner_marker), Marker(args.outer_marker)
    save_mesh(_generate_mesh(args.kind, flag, inner, outer), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="barrierfem",
        description="Positive solutions of critical-exponent semilinear elliptic PDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solves described by a config file")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=".")
    p_solve.set_defaults(func=_cmd_solve)

    p_plot = sub.add_parser("plot-integrand", help="sample the 1D energy integrand")
    p_plot.add_argument("--R", type=float, required=True)
    p_plot.add_argument("--min", type=float, required=True)
    p_plot.add_argument("--max", type=float, required=True)
    p_plot.add_argument("--samples", type=int, default=200)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot_integrand)

    p_suite = sub.add_parser("paper-suite", help="emit the benchmark experiment grid")
    p_suite.add_argument("--out", required=True)
    p_suite.set_defaults(func=_cmd_paper_suite)

    p_mesh = sub.add_parser("mesh-gen", help="generate a mesh file")
    p_mesh.add_argument("--kind", choices=tuple(MESH_KINDS), required=True)
    p_mesh.add_argument("--out", required=True)
    # an unset flag takes the kind's default; a set flag of another kind is an error
    for name, type_ in _MESH_FLAGS.items():
        p_mesh.add_argument("--" + name.replace("_", "-"), type=type_)
    p_mesh.add_argument("--inner-marker", choices=("dirichlet", "robin"), default="robin")
    p_mesh.add_argument("--outer-marker", choices=("dirichlet", "robin"), default="robin")
    p_mesh.set_defaults(func=_cmd_mesh_gen)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BarrierFemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
