"""The narrative demos run to completion and print their conclusions,
and every public name has a reader outside the tests."""

import ast
import hashlib
import re
import runpy
from pathlib import Path
from types import ModuleType

import pytest

import schurring

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


# each demo's conclusion line, and the sha256 of its whole stdout: the output
# is deterministic, so a change that moves any printed figure shows here
@pytest.mark.parametrize(
    "script, conclusion, digest",
    [
        ("01_classify_orders.py", "disagreements: none",
         "0530893593539c1b64c872552c636b70fe3f1a1777ccddd813d7f45abfd972ed"),
        ("02_witness_construction.py", "every proper section ring is schurian: True",
         "954caa4c494079cd86348226b007cd80386e9a6a4cd86b05f970e5857943ddb5"),
        ("03_enumerate_census.py", "n=30: 147 rings, 147 schurian",
         "0b00a81de0d2d76f3131e64b8d0a698bc2ec61f1b7c0c72d9a7a2c4fd9041a58"),
        ("04_permutation_wreath.py", "wreath product inside aut(A): True",
         "2be96b1f681d7990b91033c99613875caea2a566adc981dd48e790b13f7df0cd"),
    ],
    ids=["01", "02", "03", "04"],
)
def test_demo_runs(capsys, script, conclusion, digest):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    out = capsys.readouterr().out
    assert conclusion in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
