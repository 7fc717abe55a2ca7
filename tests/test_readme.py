"""README's claims block, read line by line.  A claim ends with the node
id of the test that asserts its bound; that test must exist in the named
file.  A constant line quotes a module constant; the module must hold
that value.  Any other line in the block fails, so a number cannot enter
it without one of the two."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CLAIM = re.compile(r"- .+: `(tests/\w+\.py)::(\w+(?:::\w+)?)`")
CONSTANT = re.compile(r"- `(\w+)\.(\w+)` = (\S+)")


def _block():
    text = (ROOT / "README.md").read_text()
    assert text.count("<!-- claims -->") == 1 and text.count("<!-- /claims -->") == 1
    inner = text.split("<!-- claims -->")[1].split("<!-- /claims -->")[0]
    return [line for line in inner.splitlines() if line.strip()]


def _test_names(path):
    """The node ids below the file of every test function in ``path``:
    ``name`` at module level, ``Class::name`` in a class."""
    names = set()
    for node in ast.parse((ROOT / path).read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names |= {f"{node.name}::{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)}
    return {name for name in names if name.split("::")[-1].startswith("test_")}


LINES = _block()
CLAIMS = [m.groups() for m in map(CLAIM.fullmatch, LINES) if m]
CONSTANTS = [m.groups() for m in map(CONSTANT.fullmatch, LINES) if m]


def test_every_line_is_a_claim_or_a_constant():
    assert CLAIMS and CONSTANTS
    assert len(CLAIMS) + len(CONSTANTS) == len(LINES), [
        line for line in LINES if not (CLAIM.fullmatch(line) or CONSTANT.fullmatch(line))]


@pytest.mark.parametrize("path, name", CLAIMS,
                         ids=[f"{Path(p).stem}.{n.replace('::', '.')}" for p, n in CLAIMS])
def test_each_cited_test_exists(path, name):
    assert name in _test_names(path)


@pytest.mark.parametrize("module, name, value", CONSTANTS,
                         ids=[f"{m}.{n}" for m, n, _ in CONSTANTS])
def test_each_quoted_constant_has_its_value(module, name, value):
    assert getattr(importlib.import_module(f"graphdiff.{module}"), name) == float(value)
