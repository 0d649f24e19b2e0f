"""One run of one workload in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <trace 0|1>

Imports ``schurring`` from the checkout's ``src`` (and refuses any other
copy), runs the workload's operations once and prints one JSON object:
the timed section's ``wall_s``, the operations attempted and failed, the
process's peak RSS and, when traced, the per-layer metrics.  `run.py`
starts this script once per timed run, so every run begins with the
process-global automorphism cache empty, as a user's process does.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

CONSTRUCTIONS = ("construct.cyclotomic", "construct.rank2", "construct.tensor", "construct.gen_wreath")


def layer_metrics(s, expected: dict, traced_wall: float) -> dict:
    """The per-layer metrics of BENCHMARK.json (all but trace.overhead_s,
    which needs the untraced run), as name -> (value, unit).  Functions a
    workload never calls read 0."""
    import numpy as np

    m = {}

    def put(name, value, unit):
        m[name] = (float(value) if unit in ("s", "ms", "ratio") else int(value), unit)

    def outcomes(prefix, under=None):
        calls = s.count("construct.gen_wreath", under)
        put(f"{prefix}.calls", calls, "count")
        put(f"{prefix}.ok", calls - s.raised("construct.gen_wreath", under=under), "count")
        for exc in ("IncompatibleSection", "NotAnAGroup"):
            put(f"{prefix}.{exc}", s.raised("construct.gen_wreath", exc, under), "count")

    outcomes("construct.gen_wreath")
    for n in (48, 64):
        outcomes(f"construct.gen_wreath.n{n}", f"op.catalog.n{n}")
    put("construct.gen_wreath.s", s.seconds("construct.gen_wreath"), "s")
    ok, calls = m["construct.gen_wreath.ok"][0], m["construct.gen_wreath.calls"][0]
    put("construct.gen_wreath.ok_ratio", ok / calls if calls else 0.0, "ratio")

    # distinct rings the closure holds over all divisors of n, per successful construction
    distinct = built = 0
    for n, fig in expected["catalog"].items():
        op = f"op.catalog.n{n}"
        if s.count(op):
            distinct += fig["divisor_rings"]
            built += sum(s.count(f, op) - s.raised(f, under=op) for f in CONSTRUCTIONS)
    put("catalog.construct_yield", distinct / built if built else 0.0, "ratio")

    put("sring.validate.calls", s.count("sring.validate"), "count")
    put("sring.validate.s", s.seconds("sring.validate"), "s")
    put("sring.validate.self_s", s.self_seconds("sring.validate"), "s")
    put("sring.validate.fail", s.raised("sring.validate"), "count")
    for f in ("sring.quotient", "sring.restrict"):
        put(f"{f}.calls", s.count(f), "count")
        put(f"{f}.s", s.seconds(f), "s")
        put(f"{f}.NotAnAGroup", s.raised(f, "NotAnAGroup"), "count")
    for f in ("sring.a_groups", "construct.tensor", "construct.cyclotomic", "catalog.enumerate_srings",
              "catalog.census", "schurity.is_schurian", "schurity.automorphism_group",
              "perm.PermGroup.order"):
        put(f"{f}.calls", s.count(f), "count")
        put(f"{f}.s", s.seconds(f), "s")
    put("catalog.census.self_s", s.self_seconds("catalog.census"), "s")
    ms = s.durations("schurity.is_schurian") * 1000.0
    for q in (50, 90, 99):
        put(f"schurity.is_schurian.p{q}_ms", np.percentile(ms, q) if ms.size else 0.0, "ms")

    put("cli.main.calls", s.count("cli.main"), "count")
    put("cli.main.self_s", s.self_seconds("cli.main"), "s")
    put("cli.main.nonzero_exit", sum(1 for code in s.returned("cli.main") if code != 0), "count")
    for sub in ("witness", "analyze", "schurity"):
        put(f"cli.cmd_{sub}.calls", s.count(f"cli.cmd_{sub}"), "count")
        put(f"cli.cmd_{sub}.self_s", s.self_seconds(f"cli.cmd_{sub}"), "s")
    for f in ("sring.radical", "sring.is_quasidense", "sring.wreath_decompositions", "sring.sections"):
        put(f"{f}.self_s", s.self_seconds(f), "s")

    put("trace.spans", s.spans, "count")
    put("trace.wall_s", traced_wall, "s")
    return m


def main(argv) -> int:
    workload, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    sys.path.insert(0, str(SRC))
    import numpy
    import schurring

    if not Path(schurring.__file__).resolve().is_relative_to(SRC):
        print(f"schurring imported from {schurring.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from schurring import arith, catalog, cli, construct, perm, schurity, sring

    import workloads
    from tracer import Tracer

    expected = workloads.load_expected()
    with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as tmp:
        ops = workloads.build(workload, seed, Path(tmp), expected)
        if trace:
            modules = (arith, sring, construct, perm, schurity, catalog, cli)
            with Tracer(modules, extra_bindings=[schurring], keep_results=["cli.main"]) as tr:
                t0 = time.perf_counter()
                failures = workloads.run(ops, span=lambda label: tr.span("op." + label))
                wall = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            failures = workloads.run(ops)
            wall = time.perf_counter() - t0

    out = {
        "wall_s": wall,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if trace:
        s = tr.summary()
        out["layers"] = layer_metrics(s, expected, wall)
        out["profile"] = s.table()[:25]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
