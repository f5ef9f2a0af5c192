"""Config parsing, the experiment runner, integrand sampling, mesh-gen."""

from dataclasses import fields

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

#: solver.<name> keys that name no SolverConfig field: the tolerance, the schedule
#: factor, the Armijo constants and the step cap are constants of solvers, and no
#: stage cap exists
NON_FIELD_SOLVER_KEYS = ("eps", "gamma", "eta", "backtrack", "max_outer", "max_inner")

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


def without_wall_ms(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


class TestConfigParsing:
    def test_load(self, tmp_path):
        config = load_experiment(write_cfg(tmp_path, INTERVAL_CFG))
        assert config.methods == ["newton", "safeguarded", "barrier"]
        assert len(config.meshes) == 1
        assert config.meshes[0][1].num_vertices == 41
        assert config.solver.mu0 == 1.0

    @pytest.mark.parametrize("marked", ["config", "u0_file"])
    def test_byte_order_mark(self, tmp_path, marked):
        """A config or a u0.file saved with a UTF-8 byte-order mark loads
        as its plain version does."""
        loaded = []
        for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            u0_file = tmp_path / f"u0_{name}.txt"
            u0_file.write_bytes((mark if marked == "u0_file" else b"") + b"2.0\n" * 41)
            text = INTERVAL_CFG.replace("u0.constant = 1.0", f"u0.file = {u0_file}")
            path = tmp_path / f"{name}.cfg"
            path.write_bytes((mark if marked == "config" else b"") + text.encode())
            loaded.append(load_experiment(path))
        plain, bom = loaded
        assert (bom.methods, bom.solver) == (plain.methods, plain.solver)
        assert np.array_equal(bom.u0, plain.u0) and np.all(plain.u0 == 2.0)
        [(label, mesh)], [(plain_label, plain_mesh)] = bom.meshes, plain.meshes
        assert label == plain_label
        assert np.array_equal(mesh.vertices, plain_mesh.vertices)

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

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(SolverConfig)] + list(NON_FIELD_SOLVER_KEYS)
    )
    def test_solver_key_of_each_field(self, tmp_path, name):
        # a key that sets no field is rejected as unknown
        default = {f.name: f.default for f in fields(SolverConfig)}.get(name, 1)
        cfg = write_cfg(tmp_path, f"mesh.kind = interval\nsolver.{name} = {default}\n")
        if name in NON_FIELD_SOLVER_KEYS:
            with pytest.raises(ConfigError, match=f"^line 2: key 'solver.{name}' is unknown"):
                load_experiment(cfg)
        else:
            config = load_experiment(cfg)
            assert getattr(config.solver, name) == default
            assert config.solver == SolverConfig()

    def test_one_start_value(self, tmp_path):
        (tmp_path / "u0.txt").write_text("2.0\n" * 41)
        text = INTERVAL_CFG.replace("u0.constant = 1.0", f"u0.file = {tmp_path / 'u0.txt'}")
        assert load_experiment(write_cfg(tmp_path, text)).u0.tolist() == [2.0] * 41
        assert load_experiment(write_cfg(tmp_path, INTERVAL_CFG)).u0 == 1.0


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
        # safeguarded Newton needs a positive start: its row is an unconverged report
        text = INTERVAL_CFG.replace("newton, safeguarded, barrier", "safeguarded")
        text = text.replace("u0.constant = 1.0", "u0.constant = -1")
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

    def test_failed_report_names_its_method(self):
        # as a converged report does: barrier, not barrier@mu0=0.5
        mesh = generate_interval_mesh(0.1, 10, 40, left=Marker.ROBIN, right=Marker.ROBIN)
        args = (builtin_example(1), mesh, FeFunction.constant(mesh, -1.0), SolverConfig())
        report = run_method("barrier@mu0=0.5", *args)
        assert report.method == "barrier" and not report.converged
        assert report.failure_reason == "barrier requires a strictly positive start"
        report = run_method("safeguarded", *args)
        assert report.method == "safeguarded"
        assert report.failure_reason == "safeguarded requires a strictly positive start"

    def test_u0_file_of_ones_matches_constant_one(self, tmp_path):
        (tmp_path / "ones.txt").write_text("1.0\n" * 41)
        text = INTERVAL_CFG.replace("u0.constant = 1.0", f"u0.file = {tmp_path / 'ones.txt'}")
        assert run(write_cfg(tmp_path, text, "file.cfg"), tmp_path / "file") == 0
        assert run(write_cfg(tmp_path, INTERVAL_CFG), tmp_path / "constant") == 0
        assert (without_wall_ms(tmp_path / "file" / "results.csv")
                == without_wall_ms(tmp_path / "constant" / "results.csv"))

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

    @pytest.mark.parametrize(
        "args", [(-1000.0, 0.4, np.inf, 10), (np.nan, 0.4, 3.0, 10), (-1000.0, 0.4, np.nan, 10),
                 (np.inf, 0.4, 3.0, 10),
                 # a finite range whose integrand overflows: inf at u = 5e59, nan at 1e-300
                 (-1000.0, 0.4, 1e60, 3), (-1000.0, 1e-300, 1.0, 3)],
        ids=["max_inf", "R_nan", "max_nan", "R_inf", "max_overflows", "min_overflows"],
    )
    def test_nonfinite_range(self, tmp_path, args):
        with pytest.raises(InvalidRange):
            plot_integrand(*args, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()


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
        assert not mesh.robin[0]

    def test_mesh_gen_rejects_overflowed_measures(self, tmp_path, capsys):
        # finite radii whose cell volumes overflow: no numpy warning (an
        # error under pytest), one short error line and exit code 2
        out = tmp_path / "big.mesh"
        assert main(["mesh-gen", "--kind", "shell", "--r-in", "1", "--r-out", "1e300",
                     "--refinement", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 40 violations: cell 1 has infinite measure inf;")
        assert err.endswith("; and 37 more\n") and len(err) <= 200
        assert err.count("\n") == 1 and not out.exists()

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

    def test_zero_dirichlet_data(self, tmp_path):
        # example 1 has u = 0 on its Dirichlet boundary: the barrier needs
        # u > 0 only at the free vertices, and the sign is taken there
        mesh_path = tmp_path / "annulus.mesh"
        main(["mesh-gen", "--kind", "annulus", "--inner-marker", "dirichlet",
              "--out", str(mesh_path)])
        cfg = write_cfg(
            tmp_path,
            f"problem.example = 1\nmesh.kind = file\nmesh.path = {mesh_path}\n"
            "methods = newton, safeguarded, barrier\n",
        )
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out / "results.csv")
        assert [(row[0], row[2], row[4], row[5]) for row in rows] == [
            ("newton", "8", "+", "true"),
            ("safeguarded", "8", "+", "true"),
            ("barrier", "11", "+", "true"),
        ]

    def test_huge_mu0_ends_as_a_failed_row(self, tmp_path):
        # mu0 = 1e300 is finite, so its schedule runs: mu * sqrt(mu) is inf
        # there, never an OverflowError, and the first stage's residual is
        # nonfinite, which ends the solve as a report; the row's residual
        # is ||G(u0)||, assembled afresh, not the last one moved to mu = 0
        cfg = write_cfg(tmp_path, INTERVAL_CFG.replace("newton, safeguarded, barrier", "barrier")
                        .replace("solver.mu0 = 1.0", "solver.mu0 = 1e300"))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert without_wall_ms(out / "results.csv")[1:] == [
            "barrier,interval,0,2.849692e+00,+,false,1"
        ]

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
            (
                "mesh.kind = interval\nsolver.gamma = 2\n",
                "line 3: key 'solver.gamma' is unknown or does not apply",
            ),
            (
                "mesh.kind = interval\nsolver.max_inner = -3\n",
                "line 3: key 'solver.max_inner' is unknown or does not apply",
            ),
            ("mesh.kind = interval\nsolver.mu0 = -1\n", "line 3: mu0 must be >= 0"),
            (
                "mesh.kind = interval\nsolver.eps = inf\n",
                "line 3: key 'solver.eps' is unknown or does not apply",
            ),
            (
                "mesh.kind = interval\nsolver.final_polish = false\n",
                "line 3: key 'solver.final_polish' is unknown or does not apply",
            ),
            (None, "No such file or directory"),
            (
                "mesh.kind = interval\n\udcff\udcfe\x00bad\n",
                "config file {tmp}/exp.cfg: not a text file",
            ),
            (
                "mesh.kind = file\nmesh.path = {tmp}/none.mesh\n",
                "line 3: mesh file {tmp}/none.mesh: No such file or directory",
            ),
            ("mesh.kind = file\nmesh.path = {tmp}\n", "line 3: mesh file {tmp}: Is a directory"),
            (
                "mesh.kind = file\nmesh.path = {tmp}/empty.mesh\n",
                "line 3: mesh file {tmp}/empty.mesh: mesh has no cells",
            ),
            (
                "mesh.kind = file\nmesh.path = {tmp}/bad_row.mesh\n",
                "line 3: mesh file {tmp}/bad_row.mesh: line 4: bad vertices row: "
                "could not convert string to float: '1.x'",
            ),
            (
                "mesh.kind = file\nmesh.path = {tmp}/binary.mesh\n",
                "line 3: mesh file {tmp}/binary.mesh: not a text file",
            ),
            (
                "mesh.kind = shell\nmesh.r_in = 1\nmesh.r_out = 1e300\nmesh.refinement = 0\n",
                "line 2: 40 violations: cell 1 has infinite measure inf; ",
            ),
            (
                "mesh.kind = interval\nu0.file = {tmp}/none.txt\n",
                "line 3: u0.file {tmp}/none.txt: {tmp}/none.txt not found",
            ),
            ("mesh.kind = interval\nu0.file = {tmp}\n", "line 3: u0.file {tmp}: Is a directory"),
            (
                "mesh.kind = interval\nmesh.n_cells = 8\nmesh.inner_marker = dirichlet\n"
                "u0.file = {tmp}/short.txt\n",
                "line 5: u0.file has 3 values, mesh interval has 9 vertices",
            ),
            ("mesh.kind = interval\nu0.file = {tmp}/words.txt\n", "line 3: u0.file"),
            (
                "mesh.kind = interval\nu0.file = {tmp}/comments.txt\n",
                "line 3: u0.file {tmp}/comments.txt: no values",
            ),
            (
                "mesh.kind = interval\nmesh.n_cells = 3\nu0.file = {tmp}/table.txt\n",
                "line 4: u0.file {tmp}/table.txt: a 2 x 2 table, not one value per vertex",
            ),
            (
                "mesh.kind = interval\nmesh.n_cells = 2\nu0.file = {tmp}/short_inf.txt\n",
                "short_inf.txt: every value must be finite",
            ),
            ("mesh.kind = interval\nu0.constant = nan\n", "line 3: u0.constant must be finite"),
            ("mesh.kind = interval\nu0.constant = -inf\n", "line 3: u0.constant must be finite"),
            (
                "mesh.kind = interval\nmesh.n_cells = 2\nu0.file = {tmp}/short.txt\n"
                "u0.constant = -5\n",
                "line 5: key 'u0.constant' is unknown or does not apply",
            ),
            (
                "mesh.kind = shells\nmesh.outer_marker = dirichlet\n",
                "line 3: key 'mesh.outer_marker' is unknown or does not apply",
            ),
            (
                "mesh.kind = file\nmesh.path = {tmp}/iv.mesh\nmesh.inner_marker = robin\n",
                "line 4: key 'mesh.inner_marker' is unknown or does not apply",
            ),
        ],
        ids=["gamma", "max_inner", "mu0", "eps_inf", "final_polish", "config_file",
             "config_not_text", "mesh_path", "mesh_path_directory", "mesh_without_cells",
             "mesh_file_bad_row", "mesh_file_not_text", "shell_overflow",
             "u0_file", "u0_file_directory", "u0_file_short", "u0_file_not_numeric", "u0_file_empty",
             "u0_file_table", "u0_file_inf", "u0_constant_nan",
             "u0_constant_inf", "u0_file_and_constant", "shells_outer_marker",
             "file_inner_marker"],
    )
    def test_bad_input_is_an_error_line(self, tmp_path, capsys, text, message):
        (tmp_path / "short.txt").write_text("1.0\n1.0\n1.0\n")
        (tmp_path / "words.txt").write_text("one\ntwo\n")
        (tmp_path / "comments.txt").write_text("# no values\n\n")
        (tmp_path / "table.txt").write_text("1.0 1.0\n1.0 1.0\n")
        (tmp_path / "short_inf.txt").write_text("1.0\ninf\n1.0\n")
        save_mesh(generate_interval_mesh(0.1, 10, 4), tmp_path / "iv.mesh")
        (tmp_path / "empty.mesh").write_text(
            "dim 1\nvertices 2\n0.0\n1.0\ncells 0\nboundary_facets 0\n"
        )
        (tmp_path / "bad_row.mesh").write_text(
            "dim 1\nvertices 2\n0.0\n1.x\ncells 1\n0 1\nboundary_facets 0\n"
        )
        (tmp_path / "binary.mesh").write_bytes(b"\xff\xfe\x00bad")
        cfg = tmp_path / "exp.cfg"
        if text is not None:  # a "\udcXX" in text is the byte 0xXX
            cfg.write_text("problem.example = 1\n" + text.format(tmp=tmp_path),
                           encoding="utf-8", errors="surrogateescape")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message.format(tmp=tmp_path) in err
        assert err.count("\n") == 1
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("problem.diffusion = nan\n", "line 2: problem.diffusion must be finite and > 0"),
            ("problem.diffusion = 0\n", "line 2: problem.diffusion must be finite and > 0"),
            ("problem.robin_c = inf\n", "line 2: problem.robin_c must be finite, got inf"),
            ("problem.tau = nan\n", "line 2: problem.tau must be finite, got nan"),
            ("problem.sigma = -1\n", "line 2: problem.sigma must be finite and >= 0, got -1.0"),
            ("problem.rho = -inf\n", "line 2: problem.rho must be finite and >= 0"),
        ],
        ids=["diffusion_nan", "diffusion_zero", "robin_c_inf", "tau_nan", "sigma_negative",
             "rho_negative"],
    )
    def test_bad_problem_value_is_an_error_line(self, tmp_path, capsys, text, message):
        # without problem.example, the problem.* keys set the coefficients
        cfg = write_cfg(tmp_path, "mesh.kind = interval\n" + text)
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
        assert np.array_equal(generated.facets, configured.facets)
        assert np.array_equal(generated.robin, configured.robin)


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


# (example, method): iterations and the CSV residual on shell_r50, shell_r10
# and shell_r1, then the sign, converged flag and mu_steps of all three rows.
# The barrier@mu0>0 rows moved when the barrier became nodal: the positive
# stages take another path, so the last residuals differ in their second or
# third digit and example 3 shell_r1 (16 -> 15) and example 4 shell_r10
# (13 -> 14) changed step counts; each polish ends at the same solution.
SUITE_ROWS = {
    (1, "newton"): (
        (6, 6, 6), ("4.544457e-12", "7.211493e-12", "8.537144e-12"), "+", "true", 0
    ),
    (1, "safeguarded"): (
        (6, 6, 6), ("4.544457e-12", "7.211493e-12", "8.537144e-12"), "+", "true", 0
    ),
    (1, "barrier@mu0=0"): (
        (6, 6, 6), ("4.544457e-12", "7.211493e-12", "8.537144e-12"), "+", "true", 1
    ),
    (1, "barrier@mu0=1"): (
        (15, 15, 14), ("3.491908e-09", "5.547582e-09", "6.699248e-09"), "+", "true", 7
    ),
    (2, "newton"): (
        (0, 0, 0), ("1.672850e+07", "2.583612e+07", "3.013931e+07"), "+", "false", 0
    ),
    (2, "safeguarded"): (
        (0, 0, 0), ("1.672850e+07", "2.583612e+07", "3.013931e+07"), "+", "false", 0
    ),
    (2, "barrier@mu0=50"): (
        (10, 10, 10), ("5.161403e-09", "8.548351e-09", "9.636294e-09"), "+", "true", 8
    ),
    (3, "newton"): (
        (1, 2, 3), ("1.989834e-08", "2.166254e-12", "3.097195e-12"), "+", "true", 0
    ),
    (3, "safeguarded"): (
        (1, 2, 3), ("1.989834e-08", "2.166254e-12", "3.097195e-12"), "+", "true", 0
    ),
    (3, "barrier@mu0=1"): (
        (12, 15, 15), ("8.343417e-11", "3.761292e-09", "1.550920e-08"), "+", "true", 7
    ),
    (4, "newton"): (
        (0, 0, 0), ("1.458568e+04", "1.821253e+04", "1.722521e+04"), "+", "false", 0
    ),
    (4, "safeguarded"): (
        (0, 0, 0), ("1.458568e+04", "1.821253e+04", "1.722521e+04"), "+", "false", 0
    ),
    (4, "barrier@mu0=10"): (
        (14, 14, 16), ("4.760092e-11", "4.407771e-11", "5.887354e-11"), "+", "true", 8
    ),
}


@pytest.mark.slow
class TestPaperSuite:

    def test_rows_pinned(self, suite_dir):
        """Every row's method, mesh, iterations, residual, sign, converged
        flag and mu_steps: a change that moves one must say why."""
        for example in range(1, 5):
            header, rows = read_rows(suite_dir / f"example{example}.csv")
            assert header[:7] == ["method", "mesh", "iterations", "residual", "sign",
                                  "converged", "mu_steps"]
            expected = [
                [method, mesh, str(iterations), residual, sign, converged, str(mu_steps)]
                for (ex, method), (counts, residuals, sign, converged, mu_steps)
                in SUITE_ROWS.items() if ex == example
                for mesh, iterations, residual
                in zip(("shell_r50", "shell_r10", "shell_r1"), counts, residuals)
            ]
            assert [row[:7] for row in rows] == expected

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
