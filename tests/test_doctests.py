"""Every documented example in the package runs as part of the test suite."""

import doctest
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qneg
import qneg.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"
DEMOS = sorted((README.parent / "demos").glob("*.py"))

# __main__ runs the command line when imported
MODULES = sorted(
    f"qneg.{info.name}" for info in pkgutil.iter_modules(qneg.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"


def test_every_documented_example_is_collected():
    finder = doctest.DocTestFinder()
    found = [
        test
        for name in MODULES
        for test in finder.find(importlib.import_module(name))
        if test.examples
    ]
    assert len(found) >= 18  # docstrings with examples when this test was written


def test_readme_examples():
    # a pycon block ends with a blank line, so that doctest stops reading
    # expected output before the closing fence
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} README examples failed"
    assert result.attempted >= 3  # the examples when this test was written


# comments in README's command block that describe a command's output
# rather than quote its first line
DESCRIPTIONS = {"grid with zeros on the vanishing region"}


def readme_commands():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        commands.append((shlex.split(command), comment.strip()))
    return commands


COMMANDS = readme_commands()


def test_readme_command_block_is_found():
    assert len(COMMANDS) >= 9  # the commands when this test was written
    assert all(argv[0] == "qneg" for argv, _ in COMMANDS)


@pytest.mark.parametrize("argv,comment", COMMANDS, ids=[" ".join(argv[1:]) for argv, _ in COMMANDS])
def test_readme_command(capsys, argv, comment):
    code = cli.main(argv[1:])
    out = capsys.readouterr().out
    assert code == 0
    if comment and comment not in DESCRIPTIONS:
        assert out.splitlines()[0] == comment


def readme_size_examples():
    """The examples of README's size table, as (environment, argv) pairs:
    those under "Refused at once", then those under "Runs"."""
    text = README.read_text()
    table = text[text.index("| Command | What it counts |") :].split("\n\n", 1)[0].splitlines()
    header = [cell.strip() for cell in table[0].split("|")]
    columns = header.index("Refused at once"), header.index("Runs")
    examples = [], []
    for row in table[2:]:
        cells = re.split(r"(?<!\\)\|", row)  # "\|" is a bar inside a cell
        for found, column in zip(examples, columns):
            for span in re.findall(r"`([^`]+)`", cells[column]):
                words = shlex.split(span)
                at = words.index("qneg")
                found.append((dict(word.split("=", 1) for word in words[:at]), words[at:]))
    return examples


REFUSED, RUNS = readme_size_examples()


def example_id(env, argv):
    return " ".join([*(f"{name}={value}" for name, value in env.items()), *argv[1:]])


def test_readme_size_table_is_found():
    # the examples when this test was written
    assert len(REFUSED) >= 13 and len(RUNS) >= 12
    assert all(argv[0] == "qneg" for _, argv in REFUSED + RUNS)


def run_qneg(env, argv, timeout):
    env = dict(os.environ, PYTHONPATH=str(Path(qneg.__file__).resolve().parent.parent), **env)
    return subprocess.run(
        [sys.executable, "-m", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


@pytest.mark.parametrize("env,argv", REFUSED, ids=[example_id(*e) for e in REFUSED])
def test_readme_refused_example_exits_two_at_once(env, argv):
    proc = run_qneg(env, argv, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("env,argv", RUNS, ids=[example_id(*e) for e in RUNS])
def test_readme_runs_example_exits_zero(capsys, env, argv):
    # an example that sets the environment runs as a process
    if env:
        proc = run_qneg(env, argv, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "") and proc.stdout
    else:
        assert cli.main(argv[1:]) == 0 and capsys.readouterr().out


def test_demos_are_found():
    assert len(DEMOS) >= 5  # the demos when this test was written


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_as_a_process(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(qneg.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "") and proc.stdout
