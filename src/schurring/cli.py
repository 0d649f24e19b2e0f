"""Command-line front end: classify orders, emit witnesses, analyze and
decide rings stored as JSON documents, run enumerations and censuses.

Document format: {"n": int, "classes": [[int]]}, canonical on output
(classes sorted by minimum element, elements ascending).

Each command returns its report or raises; `main` alone prints the
report and maps an exception to its exit code: 0 success, 1 input error,
2 validation failure, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog as catalog_mod
from .arith import classify
from .construct import is_cyclotomic, witness_detailed
from .errors import CapExceeded, SchurRingError, SearchBudgetExceeded
from .schurity import DEFAULT_BUDGET, check_search_degree, is_schurian
from .sring import SRing, is_dense, is_primitive, is_quasidense, radical, validate, wreath_decompositions

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


class _InvalidDocument(Exception):
    """A ring document that fails its shape check or the S-ring axioms;
    the message names the original exception type."""


def ring_to_document(A: SRing) -> dict:
    return {"n": A.n, "classes": [list(c) for c in A.classes]}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_shape(doc) -> None:
    """The shape check of `ring_from_document`, before any validation."""
    if (
        not isinstance(doc, dict)
        or not _is_int(doc.get("n"))
        or not isinstance(doc.get("classes"), list)
        or not all(isinstance(c, list) and all(map(_is_int, c)) for c in doc["classes"])
    ):
        raise ValueError('document must be {"n": int, "classes": [[int]]}')


def ring_from_document(doc: dict) -> SRing:
    """Parse a ring document; anything but {"n": int, "classes": [[int]]}
    (JSON booleans are not ints here) raises ValueError."""
    _check_shape(doc)
    return validate(doc["n"], doc["classes"])


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for k, v in report.items():
        print(f"{k}: {v}")


def _big(x: int):
    """JSON-safe order: huge group orders go out as a prime-factor list.

    Group orders here are products of orbit sizes bounded by the degree,
    so trial division by small primes factors them completely.
    """
    if x < 2**53:
        return x
    factors = []
    p = 2
    while x > 1:
        if x % p == 0:
            k = 0
            while x % p == 0:
                x //= p
                k += 1
            factors.append([p, k])
        p += 1 if p == 2 else 2
    return {"factored": factors}


def cmd_classify(args) -> dict:
    c = classify(args.n)
    report = {"n": args.n, "schur": c.is_schur}
    if c.is_schur:
        report["families"] = sorted(c.families)
    else:
        report["split"] = list(c.nonschur_split)
    return report


def cmd_witness(args) -> dict:
    # bound the n1*n2 points before building them; non-positive parts keep their message
    if args.n1 > 0 and args.n2 > 0:
        check_search_degree(args.n1 * args.n2)
    w = witness_detailed(args.n1, args.n2)
    doc = ring_to_document(w.ring)
    report = {
        "n": w.ring.n,
        "rank": w.ring.rank,
        "branch": w.branch,
        "factors": {"a": w.a, "b": w.b, "c": w.c, "d": w.d},
    }
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
                fh.write("\n")
        except OSError as e:
            raise ValueError(f"cannot write {args.output}: {e}") from None
        report["written"] = args.output
    else:
        report["classes"] = doc["classes"]
    return report


def _load_ring(path: str, searched: bool = False) -> SRing:
    """The ring in the document at `path`.  A ring that will be `searched`
    has its degree checked against the search cap before it is validated."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise ValueError(f"cannot read {path}: {e}") from None
    try:
        _check_shape(doc)
        if searched:
            check_search_degree(doc["n"])
        return validate(doc["n"], doc["classes"])
    except CapExceeded:
        raise
    except (ValueError, SchurRingError) as e:
        raise _InvalidDocument(f"{type(e).__name__}: {e}") from None


def cmd_analyze(args) -> dict:
    A = _load_ring(args.file)
    K = is_cyclotomic(A)
    return {
        "n": A.n,
        "rank": A.rank,
        "a_groups": list(A.a_groups),
        "radical": radical(A),
        "dense": is_dense(A),
        "quasidense": is_quasidense(A),
        "primitive": is_primitive(A),
        "cyclotomic": list(K.elements) if K else None,
        "wreath_decompositions": [list(s) for s in wreath_decompositions(A)],
    }


def cmd_schurity(args) -> dict:
    A = _load_ring(args.file, searched=True)
    v = is_schurian(A, args.budget)
    report = {
        "n": A.n,
        "schurian": v.schurian,
        "aut_order": _big(v.aut_order),
        "stabilizer_orbit_count": len(v.stabilizer_orbits),
        "rank": A.rank,
    }
    if v.witness_mismatch is not None:
        orb, cls = v.witness_mismatch
        report["mismatch_orbit"] = list(orb)
        report["mismatch_class"] = list(A.classes[cls])
    return report


def cmd_enumerate(args) -> dict:
    if args.n < 1:
        raise ValueError("n must be positive")
    if not args.census:
        return {"n": args.n, "count": catalog_mod.enumerate_srings(args.n, cap=args.cap).count_exact}
    rep = catalog_mod.census(args.n, cap=args.cap, budget=args.budget)
    report = {
        "n": args.n,
        "count": rep.total,
        "schurian": rep.schurian_count,
        "nonschurian": rep.total - rep.schurian_count,
    }
    if rep.first_nonschurian is not None:
        report["first_nonschurian"] = ring_to_document(rep.first_nonschurian)
    return report


def _budget_arg(text: str) -> int:
    """`--budget` value: a non-negative node count."""
    budget = int(text)
    if budget < 0:
        raise argparse.ArgumentTypeError(f"budget must be non-negative, got {budget}")
    return budget


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing fills a
    new namespace on every call, so calls share no state."""
    p = argparse.ArgumentParser(
        prog="schurring",
        description="Schur rings over cyclic groups: classify, construct, decide.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify an order against the five families")
    c.add_argument("n", type=int)
    c.set_defaults(func=cmd_classify)

    w = sub.add_parser("witness", help="emit the non-schurian witness ring")
    w.add_argument("n1", type=int)
    w.add_argument("n2", type=int)
    w.add_argument("-o", "--output", help="write the ring document here")
    w.set_defaults(func=cmd_witness)

    a = sub.add_parser("analyze", help="structural report for a ring document")
    a.add_argument("file")
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("schurity", help="decide schurity of a ring document")
    s.add_argument("file")
    s.add_argument("--budget", type=_budget_arg, default=DEFAULT_BUDGET, help="search node budget")
    s.set_defaults(func=cmd_schurity)

    e = sub.add_parser("enumerate", help="catalog of all S-rings over Z_n")
    e.add_argument("n", type=int)
    e.add_argument("--census", action="store_true", help="decide schurity of each ring")
    e.add_argument("--cap", type=int, default=catalog_mod.DEFAULT_CAP)
    e.add_argument("--budget", type=_budget_arg, default=DEFAULT_BUDGET, help="search node budget")
    e.set_defaults(func=cmd_enumerate)

    for sp in (c, w, a, s, e):
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        report = args.func(args)
    except SearchBudgetExceeded:
        print("error: search budget exceeded", file=sys.stderr)
        return EXIT_BUDGET
    except _InvalidDocument as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CapExceeded, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, args.json)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
