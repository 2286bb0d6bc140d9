"""README pool examples are valid configurations.

Every ``SelfPlayPool(...)`` / ``EnvRolloutPool(...)`` call in a README
``python`` block is evaluated on its own: the pool is constructed (which
runs the constructor validation) but never run, so this costs milliseconds.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.minigo import SelfPlayPool
from repro.rollout import EnvRolloutPool

README = Path(__file__).resolve().parents[1] / "README.md"
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
