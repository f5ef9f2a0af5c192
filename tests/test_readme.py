"""README's examples run: the library quick start and the example config."""

import re
from pathlib import Path

from barrierfem.cli import load_experiment
from barrierfem.solvers import SolverConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(language):
    """The text of README's one ```<language> block."""
    (text,) = re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)
    return text


def test_quick_start_runs(capsys):
    namespace = {}
    exec(compile(_block("python"), "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.method == "barrier" and report.converged
    assert [stage.mu for stage in report.stages][-1] == 0.0  # polished at mu = 0
    assert capsys.readouterr().out.count("\n") == 2  # its two prints


def test_example_config_loads(tmp_path):
    path = tmp_path / "readme.cfg"
    path.write_text(_block("ini"))
    config = load_experiment(path)
    assert config.methods == ["newton", "safeguarded", "barrier"]
    assert [label for label, _ in config.meshes] == ["shell_r50", "shell_r10", "shell_r1"]
    assert config.u0 == 1.0 and config.solver == SolverConfig(eps=1.0e-7, mu0=1.0)
