"""Command-line interface: commands, document round-trip, exit codes."""

import json
import math

import pytest

from schurring.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    ring_from_document,
    ring_to_document,
)
from schurring.construct import rank2, witness
from schurring.schurity import MAX_SEARCH_DEGREE
from schurring.sring import group_ring


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
        assert ring_from_document(json.loads(json.dumps(doc))).key() == A.key()


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
    assert ring_from_document(on_disk).key() == witness(8, 9).key()
    code, _, err = run(capsys, "witness", "6", "5")
    assert code == EXIT_INPUT and "omega_star" in err
    for n1, n2 in (("-8", "9"), ("8", "-9"), ("0", "9")):
        code, out, err = run(capsys, "witness", n1, n2)
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: witness parts must be positive, got {n1} and {n2}\n"

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
    r_file = write_doc(tmp_path / "r19.json", rank2(19))
    code, _, err = run(capsys, "schurity", r_file, "--budget", "1")
    assert code == EXIT_BUDGET and "budget" in err
    # a negative budget is an input error, rejected while parsing
    for argv in (["schurity", r_file], ["enumerate", "4", "--census"]):
        for value in ("-1", "-5"):
            code, out, err = run(capsys, *argv, f"--budget={value}")
            assert code == EXIT_INPUT and out == ""
            assert "--budget" in err and "Traceback" not in err


def test_schurity_degree_cap_is_input_error(capsys, tmp_path, monkeypatch):
    r_file = write_doc(tmp_path / "big.json", rank2(MAX_SEARCH_DEGREE + 1))
    # {0}, {x, -x}: 516 classes, slow to validate, refused before validating
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
