"""The benchmark's workloads: their inputs, operations and output checks.

An operation is a ``(label, thunk)`` pair.  The thunk drives the public
API of ``schurring`` and raises when the library raises or when an output
fails its check; `run` counts such an operation as failed and goes on, so
a wrong answer shows up in ``fail_frac`` instead of aborting the run.

Inputs are fixed.  The seed only fixes the order of the operations inside
a workload, so a claim can be rechecked on a seed it was not tuned on.

``expected.json`` records the catalogs the benchmark was defined on: the
ring count and a digest of the sorted canonical keys for each catalog
order, so a faster catalog can be shown to match key for key, plus the
census ring counts.  ``python3 perfbench/workloads.py`` recomputes it from
the library as it stands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

# enumeration only; 48 mixes tensor and wreath products, 64 = 2^6 has only wreath products
CATALOG_ORDERS = (48, 64)
# 1,275 small rings, all schurian: per-ring overhead of the schurity search
CENSUS_ORDERS = tuple(range(1, 37))
# every order 72 <= n <= 300 outside the five families: large non-schurian rings
WITNESS_ORDERS = (72, 120, 144, 168, 180, 200, 216, 225, 240, 252, 264, 280, 288, 300)


class CheckFailed(Exception):
    """An operation's output disagrees with what the benchmark expects."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def catalog_digest(rings) -> str:
    """sha256 of the sorted canonical keys, one ``[n, classes]`` line each."""
    lines = sorted(json.dumps([A.n, [list(c) for c in A.classes]], separators=(",", ":")) for A in rings)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# -- operations ----------------------------------------------------------


def catalog_ops(orders, expected: dict):
    """`enumerate_srings(n)` per order; `expected[str(n)]` holds its count
    and digest."""
    from schurring import catalog

    def op(n):
        want = expected[str(n)]
        cat = catalog.enumerate_srings(n)
        check(cat.count_exact == len(cat.rings) == want["count"],
              f"n={n}: {cat.count_exact} rings, expected {want['count']}")
        check(catalog_digest(cat.rings) == want["sha256"], f"n={n}: catalog keys differ")

    return [(f"catalog.n{n}", lambda n=n: op(n)) for n in orders]


def census_ops(orders, expected: dict):
    """`census(n)` per order; every ring must be schurian and the ring
    count must be `expected[str(n)]`."""
    from schurring import catalog

    def op(n):
        rep = catalog.census(n)
        check(rep.total == expected[str(n)], f"n={n}: {rep.total} rings, expected {expected[str(n)]}")
        check(rep.schurian_count == rep.total, f"n={n}: {rep.total - rep.schurian_count} non-schurian")

    return [(f"census.n{n}", lambda n=n: op(n)) for n in orders]


def _cli(*argv) -> tuple[int, str]:
    """`cli.main(argv)` in-process, with its stdout and stderr captured."""
    from schurring import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _order_from_report(x) -> int:
    # the CLI writes orders >= 2^53 as a prime-factor list
    if isinstance(x, dict):
        return math.prod(p**k for p, k in x["factored"])
    return x


def witness_ops(orders, workdir: Path):
    """Per order n, four operations: the CLI's ``witness``, ``analyze`` and
    ``schurity`` on the witness document, then Schreier-Sims on the ring's
    automorphism group against the reported order."""
    from schurring import arith, cli, schurity

    def per_order(n):
        doc = workdir / f"w{n}.json"
        seen = {}

        def witness():
            split = arith.classify(n).nonschur_split
            check(split is not None, f"n={n} classified as schur")
            code, _ = _cli("witness", *split, "-o", doc)
            check(code == 0, f"witness n={n}: exit {code}")

        def analyze():
            code, out = _cli("analyze", doc, "--json")
            check(code == 0, f"analyze n={n}: exit {code}")
            check(json.loads(out)["n"] == n, f"analyze n={n}: wrong order")

        def schurity_():
            code, out = _cli("schurity", doc, "--json")
            check(code == 0, f"schurity n={n}: exit {code}")
            rep = json.loads(out)
            check(rep["schurian"] is False, f"schurity n={n}: reported schurian")
            orbit, cls = set(rep["mismatch_orbit"]), set(rep["mismatch_class"])
            check(orbit < cls, f"schurity n={n}: mismatch orbit not a proper subset of its class")
            seen["aut_order"] = _order_from_report(rep["aut_order"])

        def aut_order():
            check("aut_order" in seen, f"n={n}: no schurity report")
            with open(doc, encoding="utf-8") as fh:
                ring = cli.ring_from_document(json.load(fh))
            got = schurity.automorphism_group(ring).order()
            check(got == seen["aut_order"], f"n={n}: Schreier-Sims order {got} != {seen['aut_order']}")

        return [(f"witness.n{n}.witness", witness), (f"witness.n{n}.analyze", analyze),
                (f"witness.n{n}.schurity", schurity_), (f"witness.n{n}.aut_order", aut_order)]

    return [op for n in orders for op in per_order(n)]


def build(name: str, seed: int, workdir: Path, expected: dict | None = None):
    """The operations of workload `name`, in the order `seed` fixes."""
    expected = load_expected() if expected is None else expected
    rng = random.Random(seed)
    if name == "catalog":
        return catalog_ops(rng.sample(CATALOG_ORDERS, len(CATALOG_ORDERS)), expected["catalog"])
    if name == "census":
        return census_ops(rng.sample(CENSUS_ORDERS, len(CENSUS_ORDERS)), expected["census"])
    if name == "witness":
        return witness_ops(rng.sample(WITNESS_ORDERS, len(WITNESS_ORDERS)), workdir)
    raise ValueError(f"unknown workload {name!r}")


def run(ops, span=None) -> list[str]:
    """Run every operation; return one line per failed operation.

    `span(label)`, when given, is a context manager around each operation
    (the tracer's operation spans).
    """
    failures = []
    for label, thunk in ops:
        try:
            if span is None:
                thunk()
            else:
                with span(label):
                    thunk()
        except Exception as e:  # a failed operation is counted, never fatal
            failures.append(f"{label}: {type(e).__name__}: {e}")
    return failures


def compute_expected() -> dict:
    from schurring import arith, catalog

    def figures(n):
        cat = catalog.enumerate_srings(n)
        # rings over every divisor: what the closure builds on its way to n
        below = sum(catalog.enumerate_srings(d).count_exact for d in arith.divisors(n))
        return {"count": cat.count_exact, "sha256": catalog_digest(cat.rings), "divisor_rings": below}

    return {
        "catalog": {str(n): figures(n) for n in CATALOG_ORDERS},
        "census": {str(n): catalog.enumerate_srings(n).count_exact for n in CENSUS_ORDERS},
    }


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    EXPECTED_PATH.write_text(json.dumps(compute_expected(), indent=2) + "\n", encoding="utf-8")
