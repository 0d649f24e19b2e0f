"""The narrative demos run to completion and print their conclusions,
and every public name has a reader outside the tests."""

import ast
import re
import runpy
from pathlib import Path
from types import ModuleType

import pytest

import schurring

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "script, conclusion",
    [
        ("01_classify_orders.py", "disagreements: none"),
        ("02_witness_construction.py", "every proper section ring is schurian: True"),
        ("03_enumerate_census.py", "n=30: 147 rings, 147 schurian"),
        ("04_permutation_wreath.py", "wreath product inside aut(A): True"),
    ],
    ids=["01", "02", "03", "04"],
)
def test_demo_runs(capsys, script, conclusion):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert conclusion in capsys.readouterr().out


def _identifiers(source):
    """The ast.Name and ast.Attribute identifiers of a Python source."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_reader():
    # A reader is another library module, a demo (its imports included) or a
    # fenced python block of the README.  The check is coarse: it matches
    # identifiers, not bindings, so a local variable of the same name counts
    # as a reader (`perm_gen_wreath` has a local `sections`), and so does the
    # one function that builds a public class, even if no caller reads it.
    package = Path(schurring.__file__).parent
    seen = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            seen |= _identifiers(path.read_text(encoding="utf-8"))
    for path in DEMOS.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        seen |= _identifiers(source)
        seen |= {alias.name for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        seen |= _identifiers(block)
    exported = {name for name, value in vars(schurring).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(exported - seen) == []
