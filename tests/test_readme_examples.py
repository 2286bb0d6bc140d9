"""README pool examples are valid configurations, and documented command lines parse.

Every ``SelfPlayPool(...)`` / ``EnvRolloutPool(...)`` call in a README
``python`` block is evaluated on its own: the pool is constructed (which
runs the constructor validation) but never run, so this costs milliseconds.
Every ``rls-experiment ...`` / ``python -m repro.experiments.cli ...`` line in
the README, the CLI docstring and the CI workflow is parsed by the CLI's own
parser — never run.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from repro.experiments import cli
from repro.minigo import SelfPlayPool
from repro.rollout import EnvRolloutPool

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
CI = ROOT / ".github" / "workflows" / "ci.yml"
POOLS = {"SelfPlayPool": SelfPlayPool, "EnvRolloutPool": EnvRolloutPool}


def _pool_calls():
    text = README.read_text(encoding="utf-8")
    calls = []
    for block in re.finditer(r"```python\n(.*?)```", text, re.S):
        first_line = text.count("\n", 0, block.start(1))
        for node in ast.walk(ast.parse(block.group(1))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in POOLS):
                calls.append(pytest.param(node, id=f"README.md:{first_line + node.lineno}"))
    return calls


def test_readme_has_pool_examples():
    assert len(_pool_calls()) >= 2


@pytest.mark.parametrize("call", _pool_calls())
def test_readme_pool_example_constructs(call):
    pool = eval(compile(ast.Expression(call), str(README), "eval"), dict(POOLS))
    assert type(pool).__name__ == call.func.id


#: A command line up to the end of its code span, line or shell comment;
#: backslash-continued lines belong to it.
COMMAND = re.compile(r"(?:rls-experiment|python -m repro\.experiments\.cli)[ \t]+"
                     r"([a-z](?:[^`#\n\\]|\\\n)*)")


def _command_lines(name, text):
    """(argv, id) params for every command line in ``text``."""
    return [pytest.param(shlex.split(match.group(1).replace("\\\n", " ")),
                         id=f"{name}:{text.count(chr(10), 0, match.start()) + 1}")
            for match in COMMAND.finditer(text)]


DOCUMENTED_COMMANDS = {
    "README.md": _command_lines("README.md", README.read_text(encoding="utf-8")),
    "cli.py": _command_lines("cli.py", cli.__doc__),
    "ci.yml": _command_lines("ci.yml", CI.read_text(encoding="utf-8")),
}


def test_documented_commands_are_found():
    assert len(DOCUMENTED_COMMANDS["README.md"]) >= 10
    assert len(DOCUMENTED_COMMANDS["cli.py"]) >= 20
    assert len(DOCUMENTED_COMMANDS["ci.yml"]) >= 4


@pytest.mark.parametrize("argv", [param for params in DOCUMENTED_COMMANDS.values()
                                  for param in params])
def test_documented_command_parses(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.experiment in cli.EXPERIMENTS
