"""README's examples run, and every number it states is derived from the code.

`test_every_number_is_derived` fails on a number in README's prose that
no test here derives, so a count or a constant cannot drift unchecked.
"""

import re
import shlex
from pathlib import Path

import numpy as np

from barrierfem import cli
from barrierfem.cli import (
    BUILTIN_SHELL_RADII,
    MESH_KINDS,
    METHODS,
    _SUITE,
    build_parser,
    example_marker,
    load_experiment,
    main,
)
from barrierfem.mesh import Marker, generate_interval_mesh, generate_shell_mesh, load_mesh
from barrierfem.problem import builtin_example
from barrierfem.solvers import (
    EPS,
    GAMMA,
    MU_POWER,
    SolverConfig,
    _FemProblem,
    _mu_schedule,
    step_to_boundary,
)

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PROSE = re.sub(r"^```.*?^```", "", README, flags=re.M | re.S)

#: a number in prose: digits not glued to a name (P1, 1D, u^5, mu0, shell_r50)
NUMBER = r"(?<![\w^.])-?\d+(?:\.\d+)?(?:e-?\d+)?(?![\w^]|\.\d)"
#: counts in words ("one" is left out: README uses it as "a single")
WORDS = {"two": 2, "three": 3, "four": 4, "five": 5, "six": 6, "seven": 7, "eight": 8,
         "nine": 9, "ten": 10}


def _block(language, containing=""):
    """The text of README's one ```<language> block that has `containing`."""
    (text,) = [block for block in re.findall(rf"^```{language}\n(.*?)^```", README,
                                             flags=re.M | re.S) if containing in block]
    return text


def _numbers(text):
    return [float(n) for n in re.findall(NUMBER, text)]


def _sentence(pattern):
    """The groups of the one match of `pattern` in README's prose."""
    (match,) = re.finditer(pattern, PROSE, flags=re.S)
    return match.groups()


def _geometric_stages(mu0):
    """How many stages the purely geometric schedule mu0, GAMMA mu0, ... >= EPS has."""
    mu, count = mu0, 0
    while mu >= EPS:
        mu, count = mu * GAMMA, count + 1
    return count


def _suite_meshes(monkeypatch, tmp_path):
    """The (r_in, r_out) of each mesh `paper-suite` asks for; nothing is
    built or solved."""
    built = []

    def generate(r_in, r_out, *args, **kwargs):
        built.append((r_in, r_out))

    monkeypatch.setattr(cli, "generate_shell_mesh", generate)
    monkeypatch.setattr(cli, "_write_grid", lambda *args: [])
    monkeypatch.setattr(cli, "plot_integrand", lambda *args: None)
    cli.emit_paper_suite(tmp_path)
    return built


def test_quick_start_runs(capsys):
    namespace = {}
    exec(compile(_block("python"), "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.method == "barrier" and report.converged
    assert capsys.readouterr().out.count("\n") == 2  # its two prints
    # the comment lists each stage's mu to two significant digits
    stated = _numbers(_block("python").rsplit("#", 1)[1])
    assert stated == [float(f"{stage.mu:.2g}") for stage in report.stages]


def test_example_config_loads(tmp_path):
    path = tmp_path / "readme.cfg"
    path.write_text(_block("ini"))
    config = load_experiment(path)
    assert config.methods == ["newton", "safeguarded", "barrier"]
    assert [label for label, _ in config.meshes] == ["shell_r50", "shell_r10", "shell_r1"]
    assert config.u0 == 1.0 and config.solver == SolverConfig(mu0=1.0)


def test_cli_examples_parse():
    for line in _block("bash", "barrierfem ").splitlines():
        if line.startswith("barrierfem "):
            build_parser().parse_args(shlex.split(line)[1:])


def test_mesh_file_example_loads(tmp_path):
    path = tmp_path / "triangle.mesh"
    path.write_text(_block("text"))
    mesh = load_mesh(path)
    assert (mesh.dim, mesh.num_vertices, mesh.num_cells) == (2, 3, 1)
    assert mesh.robin.tolist() == [True, False, True]


def test_hamiltonian_exponents():
    (stated,) = _sentence(r"Hamiltonian constraint uses\s+\{([^}]*)\}")
    assert sorted(_numbers(stated)) == sorted(p for p, _ in builtin_example(1).power_terms)


def test_mesh_kind_defaults():
    for kind, (_, _, params) in MESH_KINDS.items():
        (line,) = re.findall(rf"^\* {kind}: (.*)$", PROSE, flags=re.M)
        stated = dict(re.findall(r"`(\w+) = ([^`]+)`", line))
        assert list(stated) == [name for name, _, _ in params]
        for name, default, _ in params:
            if default is None:
                assert stated[name] == "refinement + 1"
            else:
                assert float(stated[name]) == default
    # the shell's n_layers default: refinement 1 extruded through 2 layers
    assert generate_shell_mesh(1.0, 2.0, 1).num_vertices == 42 * (1 + 2)


def test_suite_shells_and_meshes(monkeypatch, tmp_path):
    examples, shells, radii, outer = _sentence(
        r"the (\w+) built-in\s+examples, each with its methods, on the (\w+) built-in shells "
        r"\(inner\s+radii ([\d, and]+), outer radius (\d+)\)"
    )
    assert WORDS[examples] == len(_SUITE) and WORDS[shells] == len(BUILTIN_SHELL_RADII)
    assert _numbers(radii) == list(BUILTIN_SHELL_RADII)
    meshes = _suite_meshes(monkeypatch, tmp_path)
    assert meshes == [(r_in, float(outer)) for r_in in BUILTIN_SHELL_RADII] * 2
    (count,) = _sentence(r"so the suite builds (\w+) meshes")
    assert WORDS[count] == len(meshes)


def test_example_markers():
    robin, dirichlet = _sentence(r"Examples (\d and \d) share one\s+set of Robin shells and "
                                 r"examples (\d and \d) one set of Dirichlet shells")
    assert [example_marker(e) for e in _numbers(robin)] == [Marker.ROBIN] * 2
    assert [example_marker(e) for e in _numbers(dirichlet)] == [Marker.DIRICHLET] * 2
    assert sorted(_numbers(robin + " " + dirichlet)) == sorted(_SUITE)
    ids = _numbers(" ".join(re.findall(r"#\d", PROSE)))
    assert ids == sorted(_SUITE)


def test_example3_equation():
    (diffusion,) = _sentence(r"`(-\d+) Lap u \+ u\^5/r\^3 = 0`")
    spec = builtin_example(3)
    assert spec.diffusion.value == -float(diffusion)
    ((p, coefficient),) = spec.power_terms
    assert p == 5 and coefficient(np.array([[2.0, 0.0, 0.0]])) == [2.0**-3]


def test_schedule_numbers():
    gamma, mu0, eps, stages, geometric = _sentence(
        r"`GAMMA = ([\d.]+)`: for `mu0 = ([\d.]+)` and `EPS = ([\de.-]+)` it runs (\d+)\s+"
        r"positive stages, where the purely geometric schedule would run (\d+)"
    )
    assert float(gamma) == GAMMA and "mu^1.5" in PROSE and MU_POWER == 1.5
    assert float(eps) == EPS
    schedule = _mu_schedule(float(mu0))
    assert len(schedule) == int(stages)
    assert _geometric_stages(float(mu0)) == int(geometric)


def test_three_strategies():
    (count,) = _sentence(r"(\w+) solution strategies are provided")
    assert WORDS[count.lower()] == len(METHODS)


def test_ninety_nine_percent_rule():
    assert '"99% rule"' in PROSE
    assert step_to_boundary(np.ones(1), -np.ones(1), np.ones(1, dtype=bool)) == 0.99


def test_merits_are_half_squared_residuals():
    assert PROSE.count("`0.5 ||G") == 2
    mesh = generate_interval_mesh(0.1, 1.0, 8)
    point = _FemProblem(builtin_example(1), mesh).evaluate(np.ones(9), 0.5)
    assert point.phi == 0.5 * float(np.dot(point.f, point.f))


def test_exit_codes(tmp_path, capsys):
    """Exit 0 iff every solve converged, else 1; bad input: exit 2, one line."""
    stated = _sentence(r"The exit code is (\d) iff every solve converged and (\d)\s+otherwise\. "
                       r"Bad input ends as one `error: \.\.\.` line on stderr with exit"
                       r"\s+code (\d)")
    base = "problem.example = 1\nmesh.kind = interval\nmesh.a = 0.1\nmesh.b = 10\n"
    codes = []
    for name, extra in [("converged", ""), ("unconverged", "methods = barrier\nsolver.mu0 = 1e300\n"),
                        ("bad", "solver.mu0 = -1\n")]:
        (tmp_path / f"{name}.cfg").write_text(base + extra)
        codes.append(main(["solve", "--config", str(tmp_path / f"{name}.cfg"),
                           "--out", str(tmp_path / name)]))
    assert codes == [int(code) for code in stated]
    assert capsys.readouterr().err.count("\n") == 1


def test_u0_default(tmp_path):
    (stated,) = _sentence(r"`u0\.constant` \(default ([\d.]+)\)")
    (tmp_path / "u0.cfg").write_text("mesh.kind = interval\n")
    assert load_experiment(tmp_path / "u0.cfg").u0 == float(stated)


def test_every_number_is_derived():
    """Each number in README's prose, digits or a word, is one that a test
    above derives: the exponents, mesh defaults, shell radii and counts,
    example ids, schedule and merit constants, exit codes and u0."""
    markers = {example_marker(example) for example in _SUITE}
    derived = {p for p, _ in builtin_example(1).power_terms}
    derived |= {default for _, _, params in MESH_KINDS.values() for _, default, _ in params}
    derived |= {*BUILTIN_SHELL_RADII, len(BUILTIN_SHELL_RADII), *_SUITE, len(_SUITE)}
    derived |= {len(markers) * len(BUILTIN_SHELL_RADII), -builtin_example(3).diffusion.value}
    derived |= {GAMMA, EPS, len(_mu_schedule(1.0)), _geometric_stages(1.0)}
    derived |= {len(METHODS), 99, 0.5, 0, 1, 2}  # strategies, 99% rule, merit factor, exits
    words = re.findall(r"\w+", PROSE.lower())
    stated = _numbers(PROSE) + [WORDS[word] for word in words if word in WORDS]
    assert set(stated) <= derived
