"""Tests of the benchmark itself, on reduced inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import schurring  # noqa: E402
from schurring import arith, catalog, cli, construct, perm, schurity, sring  # noqa: E402

import child  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = (arith, sring, construct, perm, schurity, catalog, cli)


def test_catalog_check_agrees_with_brute_force():
    oracle = catalog.brute_force_enumerate(12)
    expected = {"12": {"count": oracle.count_exact, "sha256": workloads.catalog_digest(oracle.rings)}}
    assert workloads.run(workloads.catalog_ops([12], expected)) == []


def test_census_checks_up_to_12():
    expected = {str(n): catalog.enumerate_srings(n).count_exact for n in range(1, 13)}
    assert workloads.run(workloads.census_ops(range(1, 13), expected)) == []


def test_witness_checks_at_72(tmp_path):
    ops = workloads.witness_ops([72], tmp_path)
    assert [label for label, _ in ops] == [
        "witness.n72.witness", "witness.n72.analyze", "witness.n72.schurity", "witness.n72.aut_order"]
    assert workloads.run(ops) == []


def test_failed_checks_are_counted_and_the_run_goes_on(tmp_path):
    wrong_catalog = {"12": {"count": 31, "sha256": "0" * 64}}
    ops = (workloads.catalog_ops([12], wrong_catalog)
           + workloads.witness_ops([73], tmp_path)  # 73 is prime, so it has no witness
           + workloads.census_ops([6], {"6": 7}))
    failures = workloads.run(ops)
    assert len(failures) == 5 and len(ops) == 6
    assert failures[0].startswith("catalog.n12: CheckFailed: n=12: 32 rings, expected 31")
    assert all(f.startswith("witness.n73.") for f in failures[1:])


def test_seed_orders_operations_without_changing_them(tmp_path):
    def labels(seed):
        return [label for label, _ in workloads.build("census", seed, tmp_path)]

    assert labels(1) == labels(1)
    assert labels(1) != labels(2)
    assert sorted(labels(1)) == sorted(labels(2)) == sorted(f"census.n{n}" for n in workloads.CENSUS_ORDERS)


def _bindings():
    """Every attribute that could hold a traced function, by identity."""
    out = {}
    for owner in MODULES + (schurring, perm.PermGroup, sring.SRing):
        for name, value in vars(owner).items():
            out[(id(owner), name)] = value
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    with Tracer(MODULES, extra_bindings=[schurring]) as tr:
        wrapped = catalog.validate
        assert wrapped is not before[(id(sring), "validate")]
        assert construct.validate is wrapped and sring.validate is wrapped and schurring.validate is wrapped
        assert perm.PermGroup.order is not before[(id(perm.PermGroup), "order")]
        with tr.span("op.catalog.n12"):
            catalog.enumerate_srings(12)
        schurity.is_schurian(construct.rank2(5))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    s = tr.summary()
    calls = s.count("construct.gen_wreath")
    assert calls > 0 and s.count("construct.gen_wreath", "op.catalog.n12") == calls
    raised = s.raised("construct.gen_wreath")
    assert raised == s.raised("construct.gen_wreath", "IncompatibleSection") + s.raised("construct.gen_wreath", "NotAnAGroup")
    assert 0 < raised < calls
    # the validate calls outside the operation span are rank2's and the search's, not the catalog's
    assert s.count("sring.validate") > s.count("sring.validate", "op.catalog.n12")
    assert s.count("schurity.is_schurian", "op.catalog.n12") == 0 and s.count("schurity.is_schurian") == 1
    assert (s.self_dur <= s.dur + 1e-9).all()


def test_layer_metrics_are_the_ones_benchmark_json_names(tmp_path):
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    with Tracer(MODULES, extra_bindings=[schurring], keep_results=["cli.main"]) as tr:
        workloads.run(workloads.witness_ops([72], tmp_path), span=lambda label: tr.span("op." + label))
    metrics = child.layer_metrics(tr.summary(), workloads.load_expected(), 1.0)
    metrics["trace.overhead_s"] = (0.0, "s")
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(k, unit) for k, (_, unit) in metrics.items()]
    assert metrics["cli.main.calls"][0] == 3 and metrics["cli.main.nonzero_exit"][0] == 0
    assert metrics["perm.PermGroup.order.calls"][0] == 1


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "work-*"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
