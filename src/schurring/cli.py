"""Command-line front end: classify orders, emit witnesses, analyze and
decide rings stored as JSON documents, run enumerations and censuses.

Document format: {"n": int, "classes": [[int]]}, canonical on output
(classes sorted by minimum element, elements ascending).

Exit codes: 0 success, 1 input error, 2 validation failure, 3 search
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as catalog_mod
from . import sring as sring_mod
from .arith import classify
from .construct import witness_detailed
from .errors import CapExceeded, SchurRingError, SearchBudgetExceeded
from .schurity import is_schurian
from .sring import SRing, validate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def ring_to_document(A: SRing) -> dict:
    return {"n": A.n, "classes": [list(c) for c in A.classes]}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def ring_from_document(doc: dict) -> SRing:
    """Parse a ring document; anything but {"n": int, "classes": [[int]]}
    (JSON booleans are not ints here) raises ValueError."""
    if (
        not isinstance(doc, dict)
        or not _is_int(doc.get("n"))
        or not isinstance(doc.get("classes"), list)
        or not all(isinstance(c, list) and all(map(_is_int, c)) for c in doc["classes"])
    ):
        raise ValueError('document must be {"n": int, "classes": [[int]]}')
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


def cmd_classify(args) -> int:
    c = classify(args.n)
    report = {"n": args.n, "schur": c.is_schur}
    if c.is_schur:
        report["families"] = sorted(c.families)
    else:
        report["split"] = list(c.nonschur_split)
    _emit(report, args.json)
    return EXIT_OK


def cmd_witness(args) -> int:
    try:
        w = witness_detailed(args.n1, args.n2)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    report = {
        "n": w.ring.n,
        "rank": w.ring.rank,
        "branch": w.branch,
        "factors": {"a": w.a, "b": w.b, "c": w.c, "d": w.d},
    }
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(ring_to_document(w.ring), fh)
                fh.write("\n")
        except OSError as e:
            print(f"error: cannot write {args.output}: {e}", file=sys.stderr)
            return EXIT_INPUT
        report["written"] = args.output
    else:
        report["classes"] = [list(c) for c in w.ring.classes]
    _emit(report, args.json)
    return EXIT_OK


def _load_ring(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return None, EXIT_INPUT
    try:
        return ring_from_document(doc), EXIT_OK
    except (ValueError, SchurRingError) as e:
        print(f"validation failure: {type(e).__name__}: {e}", file=sys.stderr)
        return None, EXIT_VALIDATION


def cmd_analyze(args) -> int:
    A, code = _load_ring(args.file)
    if A is None:
        return code
    rad = sring_mod.radical(A)
    K = sring_mod.is_cyclotomic(A)
    report = {
        "n": A.n,
        "rank": A.rank,
        "a_groups": sring_mod.a_groups(A),
        "radical": rad.ring_radical,
        "radical_well_defined": rad.well_defined,
        "dense": sring_mod.is_dense(A),
        "quasidense": sring_mod.is_quasidense(A),
        "primitive": sring_mod.is_primitive(A),
        "cyclotomic": list(K.elements) if K else None,
        "wreath_decompositions": [[s.u, s.l] for s in sring_mod.wreath_decompositions(A)],
    }
    _emit(report, args.json)
    return EXIT_OK


def cmd_schurity(args) -> int:
    A, code = _load_ring(args.file)
    if A is None:
        return code
    try:
        v = is_schurian(A, args.budget)
    except SearchBudgetExceeded:
        print("error: search budget exceeded", file=sys.stderr)
        return EXIT_BUDGET
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
    _emit(report, args.json)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    try:
        if args.census:
            rep = catalog_mod.census(args.n, cap=args.cap, budget=args.budget)
            report = {
                "n": args.n,
                "count": rep.total,
                "schurian": rep.schurian_count,
                "nonschurian": rep.total - rep.schurian_count,
            }
            if rep.first_nonschurian is not None:
                report["first_nonschurian"] = ring_to_document(rep.first_nonschurian)
        else:
            cat = catalog_mod.enumerate_srings(args.n, cap=args.cap)
            report = {"n": args.n, "count": cat.count_exact}
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SearchBudgetExceeded:
        print("error: search budget exceeded", file=sys.stderr)
        return EXIT_BUDGET
    _emit(report, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    s.add_argument("--budget", type=int, default=None, help="search node budget")
    s.set_defaults(func=cmd_schurity)

    e = sub.add_parser("enumerate", help="catalog of all S-rings over Z_n")
    e.add_argument("n", type=int)
    e.add_argument("--census", action="store_true", help="decide schurity of each ring")
    e.add_argument("--cap", type=int, default=catalog_mod.DEFAULT_CAP)
    e.add_argument("--budget", type=int, default=None)
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
    if args.command in ("classify", "enumerate") and args.n < 1:
        print("error: n must be positive", file=sys.stderr)
        return EXIT_INPUT
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
