"""Config parsing, the experiment runner, integrand sampling, mesh-gen."""

import numpy as np
import pytest

from barrierfem import cli
from barrierfem.cli import (
    builtin_shell_meshes,
    emit_paper_suite,
    figure_integrand,
    load_experiment,
    main,
    plot_integrand,
    run,
    run_method,
)
from barrierfem.errors import ConfigError, InvalidRange
from barrierfem.mesh import Marker, generate_interval_mesh, load_mesh, save_mesh
from barrierfem.problem import FeFunction, builtin_example
from barrierfem.solvers import SolverConfig

INTERVAL_CFG = """\
# quick 1D benchmark
problem.example = 1
mesh.kind = interval
mesh.a = 0.1
mesh.b = 10.0
mesh.n_cells = 40
mesh.inner_marker = robin
mesh.outer_marker = robin
methods = newton, safeguarded, barrier
u0.constant = 1.0
solver.mu0 = 1.0
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestConfigParsing:
    def test_load(self, tmp_path):
        config = load_experiment(write_cfg(tmp_path, INTERVAL_CFG))
        assert config.methods == ["newton", "safeguarded", "barrier"]
        assert len(config.meshes) == 1
        assert config.meshes[0][1].num_vertices == 41
        assert config.solver.mu0 == 1.0

    def test_unknown_method(self, tmp_path):
        path = write_cfg(tmp_path, "problem.example = 1\nmesh.kind = interval\nmethods = foo\n")
        with pytest.raises(ConfigError) as err:
            load_experiment(path)
        assert "foo" in str(err.value)

    def test_unknown_key_with_line(self, tmp_path):
        path = write_cfg(tmp_path, "problem.example = 1\nmesh.kind = interval\nbogus.key = 3\n")
        with pytest.raises(ConfigError) as err:
            load_experiment(path)
        assert err.value.line == 3

    def test_bad_value(self, tmp_path):
        path = write_cfg(tmp_path, "problem.example = purple\nmesh.kind = interval\n")
        with pytest.raises(ConfigError):
            load_experiment(path)

    def test_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path, "mesh.kind = interval\nmesh.kind = shell\n")
        with pytest.raises(ConfigError):
            load_experiment(path)

    def test_bad_example_id(self, tmp_path):
        path = write_cfg(tmp_path, "problem.example = 9\nmesh.kind = interval\n")
        with pytest.raises(ConfigError):
            load_experiment(path)

    def test_invalid_geometry_becomes_config_error(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "problem.example = 1\nmesh.kind = shell\nmesh.r_in = 100\nmesh.r_out = 1\n",
        )
        with pytest.raises(ConfigError):
            load_experiment(path)

    def test_missing_mesh_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment(write_cfg(tmp_path, "problem.example = 1\n"))

    def test_explicit_problem(self, tmp_path):
        text = (
            "problem.scalar_curvature = 1.0\nproblem.tau = 0.1\nproblem.sigma = 0.2\n"
            "problem.rho = 0.1\nproblem.robin_c = 1.0\nproblem.robin_g = -1.0\n"
            "mesh.kind = interval\nmethods = newton\n"
        )
        config = load_experiment(write_cfg(tmp_path, text))
        assert {p for p, _ in config.spec.power_terms} == {1, 5, -3, -7}


class TestRun:
    def test_rows_and_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, INTERVAL_CFG)
        out = tmp_path / "out"
        code = run(cfg, out)
        assert code == 0
        header, rows = read_rows(out / "results.csv")
        assert header == [
            "method", "mesh", "iterations", "residual", "sign",
            "converged", "mu_steps", "wall_ms",
        ]
        assert len(rows) == 3  # 3 methods x 1 mesh
        assert all(row[4] == "+" and row[5] == "true" for row in rows)
        assert (out / "run_metadata.txt").exists()

    def test_exit_code_on_failure(self, tmp_path):
        text = INTERVAL_CFG.replace("methods = newton, safeguarded, barrier", "methods = newton")
        text += "solver.max_inner = 1\n"
        cfg = write_cfg(tmp_path, text)
        assert run(cfg, tmp_path / "out") == 1

    def test_deterministic_modulo_wall_time(self, tmp_path):
        cfg = write_cfg(tmp_path, INTERVAL_CFG)
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        strip = lambda p: [
            ",".join(line.split(",")[:-1])
            for line in (p / "results.csv").read_text().splitlines()
        ]
        assert strip(tmp_path / "a") == strip(tmp_path / "b")

    def test_run_method_barrier_mu0_suffix(self):
        mesh = generate_interval_mesh(0.1, 10, 40, left=Marker.ROBIN, right=Marker.ROBIN)
        args = (builtin_example(1), mesh, FeFunction.constant(mesh, 1.0), SolverConfig())
        report = run_method("barrier@mu0=0.5", *args)
        assert report.method == "barrier" and report.converged
        assert report.stages[0].mu == 0.5
        with pytest.raises(ValueError):
            run_method("newton@mu0=0.5", *args)

    def test_builtin_shells_config(self, tmp_path):
        meshes = builtin_shell_meshes(Marker.ROBIN)
        labels = [label for label, _ in meshes]
        assert labels == ["shell_r50", "shell_r10", "shell_r1"]
        for _, mesh in meshes:
            assert 500 <= mesh.num_vertices <= 5000


class TestPlotIntegrand:
    def test_nonconvex_profile_for_negative_curvature(self, tmp_path):
        # discrete second differences must change sign for R = -1000
        path = tmp_path / "i.csv"
        plot_integrand(-1000.0, 0.4, 3.0, 100, path)
        rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        values = np.array([[float(tok) for tok in line.split(",")] for line in rows[1:]])
        u, iu = values[:, 0], values[:, 1]
        assert np.all(np.diff(u) > 0)
        second = np.diff(iu, 2)
        assert np.any(second > 0) and np.any(second < 0)

    def test_convex_for_zero_curvature(self, tmp_path):
        path = tmp_path / "i0.csv"
        plot_integrand(0.0, 0.4, 3.0, 100, path)
        rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        values = np.array([[float(tok) for tok in line.split(",")] for line in rows[1:]])
        assert np.all(np.diff(values[:, 1], 2) > 0)

    def test_even_function(self):
        u = np.linspace(0.4, 3.0, 50)
        assert np.array_equal(figure_integrand(-1000.0, u), figure_integrand(-1000.0, -u))

    def test_invalid_range(self, tmp_path):
        with pytest.raises(InvalidRange):
            plot_integrand(-1000.0, -1.0, 3.0, 10, tmp_path / "x.csv")
        with pytest.raises(InvalidRange):
            plot_integrand(-1000.0, 2.0, 1.0, 10, tmp_path / "x.csv")


class TestMainEntry:
    def test_mesh_gen_round_trip(self, tmp_path):
        out = tmp_path / "a.mesh"
        code = main([
            "mesh-gen", "--kind", "annulus", "--r-in", "1", "--r-out", "2",
            "--n-radial", "2", "--n-angular", "12", "--out", str(out),
            "--inner-marker", "dirichlet",
        ])
        assert code == 0
        mesh = load_mesh(out)
        assert mesh.dim == 2
        assert mesh.boundary_facets[0][0] == Marker.DIRICHLET

    def test_solve_from_mesh_file(self, tmp_path):
        mesh_path = tmp_path / "iv.mesh"
        main(["mesh-gen", "--kind", "interval", "--a", "0.1", "--b", "10",
              "--n-cells", "30", "--out", str(mesh_path)])
        cfg = write_cfg(
            tmp_path,
            f"problem.example = 1\nmesh.kind = file\nmesh.path = {mesh_path}\n"
            "methods = newton\n",
        )
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_plot_subcommand(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = main(["plot-integrand", "--R", "-1000", "--min", "0.4", "--max", "3",
                     "--samples", "20", "--out", str(out)])
        assert code == 0 and out.exists()

    def test_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "mesh.kind = worm\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("mesh.kind = interval\nsolver.gamma = 2\n", "line 3: gamma must lie in (0, 1)"),
            ("mesh.kind = interval\nsolver.max_inner = -3\n", "line 3: max_inner must be >= 0"),
            ("mesh.kind = interval\nsolver.mu0 = -1\n", "line 3: mu0 must be >= 0"),
            ("mesh.kind = interval\nsolver.eps = inf\n", "line 3: eps must be > 0 and finite"),
            (None, "No such file or directory"),
            ("mesh.kind = file\nmesh.path = {tmp}/none.mesh\n", "none.mesh"),
            ("mesh.kind = interval\nu0.file = {tmp}/none.txt\n", "none.txt"),
            (
                "mesh.kind = interval\nmesh.n_cells = 8\nmesh.inner_marker = dirichlet\n"
                "u0.file = {tmp}/short.txt\n",
                "line 5: u0.file has 3 values, mesh interval has 9 vertices",
            ),
            ("mesh.kind = interval\nu0.file = {tmp}/words.txt\n", "line 3: u0.file"),
            (
                "mesh.kind = shells\nmesh.outer_marker = dirichlet\n",
                "line 3: key 'mesh.outer_marker' is unknown or does not apply",
            ),
            (
                "mesh.kind = file\nmesh.path = {tmp}/iv.mesh\nmesh.inner_marker = robin\n",
                "line 4: key 'mesh.inner_marker' is unknown or does not apply",
            ),
        ],
        ids=["gamma", "max_inner", "mu0", "eps_inf", "config_file", "mesh_path", "u0_file",
             "u0_file_short", "u0_file_not_numeric", "shells_outer_marker",
             "file_inner_marker"],
    )
    def test_bad_input_is_an_error_line(self, tmp_path, capsys, text, message):
        (tmp_path / "short.txt").write_text("1.0\n1.0\n1.0\n")
        (tmp_path / "words.txt").write_text("one\ntwo\n")
        save_mesh(generate_interval_mesh(0.1, 10, 4), tmp_path / "iv.mesh")
        cfg = tmp_path / "exp.cfg"
        if text is not None:
            cfg.write_text("problem.example = 1\n" + text.format(tmp=tmp_path))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize(
        "kind, flags, message",
        [
            ("shell", ["--a", "5"], "--a does not apply to --kind shell"),
            ("interval", ["--n-cells", "4", "--r-in", "1"], "--r-in does not apply"),
            ("annulus", ["--refinement", "0"], "--refinement does not apply"),
        ],
        ids=["shell", "interval", "annulus"],
    )
    def test_mesh_gen_rejects_flags_of_other_kinds(self, tmp_path, capsys, kind, flags, message):
        out = tmp_path / "bad.mesh"
        assert main(["mesh-gen", "--kind", kind, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["interval", "annulus", "shell"])
    def test_mesh_gen_matches_config_defaults(self, tmp_path, kind):
        out = tmp_path / f"{kind}.mesh"
        assert main(["mesh-gen", "--kind", kind, "--out", str(out)]) == 0
        generated = load_mesh(out)
        [(label, configured)] = load_experiment(write_cfg(tmp_path, f"mesh.kind = {kind}\n")).meshes
        assert label == kind
        assert np.array_equal(generated.vertices, configured.vertices)
        assert np.array_equal(generated.cells, configured.cells)
        assert [(m, tuple(f)) for m, f in generated.boundary_facets] == [
            (m, tuple(f)) for m, f in configured.boundary_facets
        ]


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    """One paper-suite run: its output directory and its shell-set builds."""
    out = tmp_path_factory.mktemp("suite")
    builds = []

    def counted(marker=Marker.ROBIN):
        builds.append(marker)
        return builtin_shell_meshes(marker)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "builtin_shell_meshes", counted)
        emit_paper_suite(out)
    return out, builds


@pytest.fixture(scope="module")
def suite_dir(suite_run):
    return suite_run[0]


@pytest.mark.slow
class TestPaperSuite:

    def test_each_shell_set_built_once(self, suite_run):
        # examples 1-2 share the Robin shells, 3-4 the Dirichlet shells
        assert suite_run[1] == [Marker.ROBIN, Marker.DIRICHLET]

    def test_files_exist(self, suite_dir):
        for name in ("example1.csv", "example2.csv", "example3.csv",
                     "example4.csv", "integrand.csv"):
            assert (suite_dir / name).exists()
        assert (suite_dir / "summary.txt").exists()

    def test_example1_row_grid(self, suite_dir):
        _, rows = read_rows(suite_dir / "example1.csv")
        assert len(rows) >= 9  # >= 3 methods x 3 meshes
        assert all(row[4] == "+" for row in rows)

    def test_example1_barrier_mu0_matches_newton(self, suite_dir):
        # iterations, residual, sign, converged agree; mu_steps differs by
        # design (the degenerate barrier records its single mu = 0 stage)
        _, rows = read_rows(suite_dir / "example1.csv")
        by_method = {}
        for row in rows:
            by_method.setdefault(row[0], {})[row[1]] = row[2:6]
        assert by_method["barrier@mu0=0"] == by_method["newton"]

    def test_example4_barrier_positive(self, suite_dir):
        _, rows = read_rows(suite_dir / "example4.csv")
        barrier = [row for row in rows if row[0].startswith("barrier")]
        assert len(barrier) == 3
        assert all(row[4] == "+" and row[5] == "true" for row in barrier)

    def test_summary_mentions_standard_newton_sign(self, suite_dir):
        text = (suite_dir / "summary.txt").read_text()
        assert "example4 newton" in text
