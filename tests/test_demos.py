"""The narrative demos run to completion and print their conclusions."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
