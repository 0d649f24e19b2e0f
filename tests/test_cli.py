"""Command-line interface: commands, document round-trip, exit codes."""

import functools
import hashlib
import json
import math
import random
import tracemalloc

import pytest

from schurring.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    main,
    ring_from_document,
    ring_to_document,
)
from schurring import catalog as catalog_mod
from schurring.arith import classify
from schurring.catalog import enumerate_srings
from schurring.construct import cyclotomic, k_m, rank2, witness
from schurring.errors import CapExceeded
from schurring.schurity import MAX_SEARCH_DEGREE
from schurring.sring import SRing, group_ring


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


def write_doc(path, ring):
    path.write_text(json.dumps(ring_to_document(ring)))
    return str(path)


def test_document_roundtrip():
    for A in (group_ring(6), rank2(9), witness(8, 9)):
        doc = ring_to_document(A)
        assert ring_from_document(json.loads(json.dumps(doc))) == A


def test_classify_command(capsys):
    code, doc, _ = run_json(capsys, "classify", "72", "--json")
    assert code == EXIT_OK
    assert doc == {"n": 72, "schur": False, "split": [8, 9]}
    code, doc, _ = run_json(capsys, "classify", "60", "--json")
    assert code == EXIT_OK and doc["families"] == ["2pqr"]
    code, doc, _ = run_json(capsys, "classify", "7", "--json")
    assert doc["families"] == ["p^k", "pq^k"]
    code, out, _ = run(capsys, "classify", "7")
    assert "schur: True" in out  # human-readable mode
    assert run(capsys, "classify", "0")[0] == EXIT_INPUT
    code, out, err = run(capsys, "classify", "10000000000000000000000")
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_witness_command(capsys, tmp_path):
    out_file = tmp_path / "w72.json"
    code, doc, _ = run_json(capsys, "witness", "8", "9", "-o", str(out_file), "--json")
    assert code == EXIT_OK
    assert doc["n"] == 72 and doc["rank"] == 15 and doc["branch"] == "special"
    on_disk = json.loads(out_file.read_text())
    assert ring_from_document(on_disk) == witness(8, 9)
    code, _, err = run(capsys, "witness", "6", "5")
    assert code == EXIT_INPUT and "omega_star" in err
    for n1, n2 in (("-8", "9"), ("8", "-9"), ("0", "9"), ("-8", "-90")):
        code, out, err = run(capsys, "witness", n1, n2)
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: witness parts must be positive, got {n1} and {n2}\n"
    # the witness is bounded by the search degree cap before it is built
    for n1, n2 in (("8", "75"), ("8", "9000000063")):
        code, out, err = run(capsys, "witness", n1, n2)
        assert code == EXIT_INPUT and out == ""
        n = int(n1) * int(n2)
        assert err == f"error: n={n} exceeds the search degree cap {MAX_SEARCH_DEGREE}\n"

    out120 = tmp_path / "w120.json"
    code, _, _ = run_json(capsys, "witness", "8", "15", "-o", str(out120), "--json")
    assert code == EXIT_OK
    assert json.loads(out120.read_text())["n"] == 120


def test_witness_unwritable_output_is_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "w.json"
    code, out, err = run(capsys, "witness", "8", "9", "-o", str(target))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": 4, "classes": [[0], ["2"], [1, 3]]}',
        '{"n": 4, "classes": [[0], [2.0], [1, 3]]}',
        '{"n": 4, "classes": 5}',
        '{"n": 2, "classes": [[0], [true]]}',
        '{"n": "4", "classes": [[0], [2], [1, 3]]}',
    ],
    ids=["string-element", "float-element", "classes-not-a-list", "bool-element", "string-n"],
)
def test_malformed_documents_are_validation_failures(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    for command in ("analyze", "schurity"):
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_VALIDATION and out == ""
        assert "Traceback" not in err and "ValueError" in err


@pytest.mark.parametrize(
    "content",
    [
        b'\xff\xfe{"n":1}',
        b"[" * 200_000 + b"]" * 200_000,
        b'{"n": ' + b"7" * 5000 + b', "classes": [[0]]}',
    ],
    ids=["not-utf8", "deep-nesting", "long-integer"],
)
def test_undecodable_documents_are_input_errors(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for command in ("analyze", "schurity"):
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: cannot read") and "Traceback" not in err


EXIT_TABLE = [
    # every case of README's exit-code paragraph: argv, exit code, first line of stderr
    (["analyze", "{d}/missing.json"], EXIT_INPUT,
     "error: cannot read {d}/missing.json: [Errno 2] No such file or directory: '{d}/missing.json'"),
    (["schurity", "{d}/garbled.json"], EXIT_INPUT,
     "error: cannot read {d}/garbled.json: Expecting value: line 1 column 1 (char 0)"),
    (["witness", "8", "9", "-o", "{d}/missing/w.json"], EXIT_INPUT,
     "error: cannot write {d}/missing/w.json: [Errno 2] No such file or directory: '{d}/missing/w.json'"),
    (["schurity", "{d}/r19.json", "--budget=-1"], EXIT_INPUT,
     "usage: schurring schurity [-h] [--budget BUDGET] [--json] file"),
    (["classify", "10000000000000000000000"], EXIT_INPUT, "error: n out of range: 10000000000000000000000"),
    (["enumerate", "9223372036854775808", "--cap", "99999999999999999999"], EXIT_INPUT,
     "error: n out of range: 9223372036854775808"),
    (["enumerate", "0"], EXIT_INPUT, "error: n must be positive"),
    (["schurity", "{d}/r513.json"], EXIT_INPUT, "error: n=513 exceeds the search degree cap 512"),
    (["witness", "8", "75"], EXIT_INPUT, "error: n=600 exceeds the search degree cap 512"),
    (["enumerate", "600", "--census", "--cap", "1000"], EXIT_INPUT,
     "error: n=600 exceeds the search degree cap 512"),
    (["analyze", "{d}/not-inverse-closed.json"], EXIT_VALIDATION,
     "validation failure: NotInverseClosed: negation of class (2, 3) is not a class"),
    (["schurity", "{d}/string-n.json"], EXIT_VALIDATION,
     'validation failure: ValueError: document must be {"n": int, "classes": [[int]]}'),
    (["schurity", "{d}/c35.json", "--budget", "1"], EXIT_BUDGET, "error: search budget exceeded"),
    (["enumerate", "35", "--census", "--budget", "1"], EXIT_BUDGET, "error: search budget exceeded"),
]


@pytest.mark.parametrize(
    "argv, want_code, want_err",
    EXIT_TABLE,
    ids=[" ".join(argv).replace("{d}/", "") for argv, _, _ in EXIT_TABLE],
)
def test_exit_code_table(capsys, tmp_path, monkeypatch, argv, want_code, want_err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    write_doc(tmp_path / "r19.json", rank2(19))
    write_doc(tmp_path / "r513.json", rank2(MAX_SEARCH_DEGREE + 1))
    write_doc(tmp_path / "c35.json", cyclotomic(k_m(35)))
    (tmp_path / "garbled.json").write_text("not json")
    (tmp_path / "not-inverse-closed.json").write_text('{"n": 4, "classes": [[0], [1], [2, 3]]}')
    (tmp_path / "string-n.json").write_text('{"n": "4", "classes": [[0], [2], [1, 3]]}')
    code, out, err = run(capsys, *(a.replace("{d}", str(tmp_path)) for a in argv))
    assert (code, out) == (want_code, "")
    assert err.splitlines()[0] == want_err.replace("{d}", str(tmp_path))


FUZZ_SEED = 20111123
FUZZ_DOCS = 1200


def _mutant(rng, doc):
    """A mutated copy of a ring document: a JSON value, maybe not a document."""
    n = doc["n"]
    classes = [list(c) for c in doc["classes"]]
    junk = [1.5, "3", True, False, None, [1], {}, float("nan"), float("inf"), -1, n, 10**40]
    kind = rng.randrange(8)
    if kind == 0:  # a bad n
        return {"n": rng.choice([0, -n, n - 1, n + 1, 2 * n, *junk]), "classes": classes}
    if kind == 1:  # an element that is no int, a bool or out of range
        c = rng.choice(classes)
        c[rng.randrange(len(c))] = rng.choice(junk)
    elif kind == 2 and classes:
        del classes[rng.randrange(len(classes))]
    elif kind == 3:
        extra = rng.choice([[], [0], [n], [-1], list(rng.choice(classes)), [float("nan")]])
        classes.insert(rng.randrange(len(classes) + 1), extra)
    elif kind == 4:  # classes that are no list of lists
        return {"n": n, "classes": rng.choice([5, "[[0]]", None, {"0": [0]}, True, float("nan"), [0, 1]])}
    elif kind == 5:  # a top-level scalar
        return rng.choice([5, "ring", None, True, float("nan"), float("-inf"), 1.5, []])
    elif kind == 6 and len(classes) > 2:  # one element moved to another class
        src, dst = rng.sample(range(1, len(classes)), 2)
        classes[dst].append(classes[src].pop())
    elif kind == 7:  # a key dropped or added
        return rng.choice([{"n": n}, {"classes": classes}, {"n": n, "classes": classes, "x": 1}])
    return {"n": n, "classes": classes}


def test_mutated_documents_never_raise(capsys, tmp_path):
    # seeded fuzzing of the document boundary: every mutant, valid or not,
    # gets a coded exit and a message, never a traceback
    rng = random.Random(FUZZ_SEED)
    docs = [ring_to_document(A) for n in range(1, 13) for A in enumerate_srings(n).rings]
    path = tmp_path / "fuzz.json"
    codes = set()
    for _ in range(FUZZ_DOCS):
        doc = _mutant(rng, rng.choice(docs))
        path.write_text(json.dumps(doc))
        for command in ("analyze", "schurity"):
            code, _, err = run(capsys, command, str(path))
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_VALIDATION), (command, doc)
            assert "Traceback" not in err, (command, doc)
            codes.add(code)
    assert codes == {EXIT_OK, EXIT_INPUT, EXIT_VALIDATION}


def test_analyze_command(capsys, tmp_path):
    w_file = write_doc(tmp_path / "w72.json", witness(8, 9))
    code, doc, _ = run_json(capsys, "analyze", w_file, "--json")
    assert code == EXIT_OK
    assert [24, 3] in doc["wreath_decompositions"]
    assert doc["quasidense"] is True

    g_file = write_doc(tmp_path / "g12.json", group_ring(12))
    code, doc, _ = run_json(capsys, "analyze", g_file, "--json")
    assert doc["dense"] is True
    assert doc["radical"] == 1
    assert doc["wreath_decompositions"] == []

    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "classes": [[0], [1], [2, 3]]}')
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == EXIT_VALIDATION and "NotInverseClosed" in err

    assert run(capsys, "analyze", str(tmp_path / "missing.json"))[0] == EXIT_INPUT
    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json")
    assert run(capsys, "analyze", str(garbled))[0] == EXIT_INPUT


def test_analyze_reads_one_a_group_lattice(capsys, tmp_path, monkeypatch):
    # the report's lattice answers all read one `SRing.a_groups`, which is
    # computed once per document: count the computations
    calls = []
    lattice = SRing.a_groups.func
    counted = functools.cached_property(lambda A: calls.append(A) or lattice(A))
    counted.__set_name__(SRing, "a_groups")
    monkeypatch.setattr(SRing, "a_groups", counted)
    for A in (witness(8, 9), group_ring(12), rank2(7)):
        calls.clear()
        path = write_doc(tmp_path / f"r{A.n}.json", A)
        assert run(capsys, "analyze", path, "--json")[0] == EXIT_OK
        assert calls == [A]


def test_analyze_output_is_frozen_on_the_witnesses(capsys, tmp_path):
    # sha256 of the concatenated `analyze --json` outputs on the 14 witness
    # documents, as written before the report read one A-group lattice
    outs = []
    for A in [witness(*classify(n).nonschur_split) for n in range(72, 301) if classify(n).nonschur_split]:
        code, out, _ = run(capsys, "analyze", write_doc(tmp_path / f"w{A.n}.json", A), "--json")
        assert code == EXIT_OK
        outs.append(out)
    assert len(outs) == 14
    digest = hashlib.sha256("".join(outs).encode()).hexdigest()
    assert digest == "37a3e847299571e33bef471c45d2ef5643b6696441de4187a8d18cc590db7d0d"


def test_analyze_allocation_is_bounded(capsys, tmp_path):
    # the rank-2 document that bounds `validate`; every report entry, the
    # cyclotomic check among them, stays within the same 64 MiB
    path = write_doc(tmp_path / "r4096.json", rank2(4096))
    tracemalloc.start()
    try:
        code = main(["analyze", path, "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["radical"] == 1 and doc["cyclotomic"] is None and doc["primitive"]
    assert peak < 64 * 2**20


def test_schurity_command(capsys, tmp_path):
    w_file = write_doc(tmp_path / "w72.json", witness(8, 9))
    code, doc, _ = run_json(capsys, "schurity", w_file, "--json")
    assert code == EXIT_OK
    assert doc["schurian"] is False
    assert doc["aut_order"] == 2592
    assert doc["stabilizer_orbit_count"] == 16 and doc["rank"] == 15
    assert set(doc["mismatch_orbit"]) < set(doc["mismatch_class"])

    g_file = write_doc(tmp_path / "g9.json", group_ring(9))
    code, doc, _ = run_json(capsys, "schurity", g_file, "--json")
    assert doc["schurian"] is True and doc["aut_order"] == 9


def test_schurity_reports_huge_orders_factored(capsys, tmp_path):
    r_file = write_doc(tmp_path / "r30.json", rank2(30))
    code, doc, _ = run_json(capsys, "schurity", r_file, "--json")
    assert code == EXIT_OK and doc["schurian"] is True
    # Legendre's formula for the prime factorization of 30!
    want = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        k, q = 0, p
        while q <= 30:
            k += 30 // q
            q *= p
        want.append([p, k])
    assert doc["aut_order"] == {"factored": want}
    back = 1
    for p, k in doc["aut_order"]["factored"]:
        back *= p**k
    assert back == math.factorial(30)


def test_schurity_budget_exit_code(capsys, tmp_path):
    # the cyclotomic ring needs 34 search nodes; a rank-2 ring needs none
    c_file = write_doc(tmp_path / "c35.json", cyclotomic(k_m(35)))
    code, _, err = run(capsys, "schurity", c_file, "--budget", "1")
    assert code == EXIT_BUDGET and "budget" in err
    r_file = write_doc(tmp_path / "r19.json", rank2(19))
    code, out, _ = run(capsys, "schurity", r_file, "--budget", "0")
    assert code == EXIT_OK and "schurian: True" in out
    # a negative budget is an input error, rejected while parsing
    for argv in (["schurity", r_file], ["enumerate", "4", "--census"]):
        for value in ("-1", "-5"):
            code, out, err = run(capsys, *argv, f"--budget={value}")
            assert code == EXIT_INPUT and out == ""
            assert "--budget" in err and "Traceback" not in err


def test_schurity_degree_cap_is_input_error(capsys, tmp_path, monkeypatch):
    r_file = write_doc(tmp_path / "big.json", rank2(MAX_SEARCH_DEGREE + 1))
    # {0}, {x, -x}: 516 classes, refused before validating, since validating
    # a document costs O(n^2 log n) time however large its n
    n = 1031
    pm_file = tmp_path / "pm.json"
    pm_file.write_text(json.dumps({"n": n, "classes": [[0]] + [[x, n - x] for x in range(1, n // 2 + 1)]}))

    def no_validate(*args):
        raise AssertionError("validate ran before the degree cap")

    monkeypatch.setattr("schurring.cli.validate", no_validate)
    for path, degree in ((r_file, MAX_SEARCH_DEGREE + 1), (str(pm_file), n)):
        code, out, err = run(capsys, "schurity", path, "--json")
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: n={degree} exceeds the search degree cap {MAX_SEARCH_DEGREE}\n"


def test_census_degree_cap_is_refused_before_enumerating(capsys, monkeypatch):
    # no ring over more than MAX_SEARCH_DEGREE points can be decided, so the
    # census refuses such an n before it builds the catalog
    def no_enumerate(*args):
        raise AssertionError("enumerate_srings ran before the degree cap")

    monkeypatch.setattr(catalog_mod, "enumerate_srings", no_enumerate)
    with pytest.raises(CapExceeded, match="exceeds the search degree cap"):
        catalog_mod.census(MAX_SEARCH_DEGREE + 2, cap=1000)
    code, out, err = run(capsys, "enumerate", "600", "--census", "--cap", "1000")
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: n=600 exceeds the search degree cap {MAX_SEARCH_DEGREE}\n"
    # the enumeration cap is checked first
    code, out, err = run(capsys, "enumerate", "600", "--census")
    assert code == EXIT_INPUT and err == "error: n=600 exceeds cap 72\n"


def test_enumerate_command(capsys):
    code, doc, _ = run_json(capsys, "enumerate", "4", "--json")
    assert code == EXIT_OK and doc == {"n": 4, "count": 3}
    code, doc, _ = run_json(capsys, "enumerate", "12", "--census", "--json")
    assert doc == {"n": 12, "count": 32, "schurian": 32, "nonschurian": 0}
    assert run(capsys, "enumerate", "100")[0] == EXIT_INPUT
    for argv in (["--", "-5"], ["0"]):
        for extra in ([], ["--census"]):
            code, out, err = run(capsys, "enumerate", *extra, *argv)
            assert code == EXIT_INPUT and out == "" and err.startswith("error:")
    # past the range of arith.factorize, with a cap that admits it
    code, out, err = run(capsys, "enumerate", "9223372036854775808", "--cap", "99999999999999999999")
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_unknown_command_is_input_error(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_INPUT
    assert run(capsys, "--help")[0] == EXIT_OK


def test_successive_calls_share_no_parsed_state(capsys, tmp_path):
    # the parser is built once per process; each call parses afresh
    assert build_parser() is build_parser()
    w_file = write_doc(tmp_path / "w72.json", witness(8, 9))
    code, out, err = run(capsys, "schurity", w_file, "--budget", "5", "--json")
    assert code == EXIT_BUDGET and out == "" and "budget" in err
    # neither the budget nor --json carries over to the next call
    code, out, err = run(capsys, "schurity", w_file)
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[:3] == ["n: 72", "schurian: False", "aut_order: 2592"]
