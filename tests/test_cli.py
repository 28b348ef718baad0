"""Command-line behaviour: exit codes, reports, output determinism."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsys import PrimeField, Rationals, RingMatrix
from ringsys.cli import build_parser, main
from ringsys.fixtures import sphere_fixture_path
from ringsys.equivalence import MODES
from ringsys.sysfile import PairEntry, SystemFile, parse, write
from util import SPHERE_RING, fuzz_base_documents, mutated_document

Q = Rationals()


@pytest.fixture
def fixture_file(tmp_path):
    m = lambda rows: RingMatrix.from_rows(Q, rows)
    sf = SystemFile(
        Q,
        {
            "S1": PairEntry(2, m([[0, 0], [1, 0]]), m([[1], [0]])),
            "S2": PairEntry(2, m([[0, 0], [0, 0]]), m([[1, 0], [0, 1]])),
            "G1": PairEntry(1, m([[0]]), m([[1]])),
            "NR": PairEntry(2, m([[0, 0], [0, 0]]), m([[1], [0]])),
        },
    )
    path = tmp_path / "systems.json"
    write(sf, path)
    return str(path)


# canon --json of CANON_PAIR, pinned byte for byte: the certificate
# construction is deterministic and its output is part of the CLI
# contract.  The third input column is the first plus twice the second,
# so one chain root is purified and Q clears a column.
CANON_PAIR = (
    [["1", "2", "0", "-1"], ["0", "1", "1/2", "0"], ["3", "0", "0", "1"], ["0", "0", "1", "0"]],
    [["1", "0", "1"], ["0", "0", "0"], ["0", "2", "4"], ["0", "0", "0"]],
)
CANON_DOC = {
    "command": "canon",
    "system": "T",
    "indices": [3, 1],
    "canonical_endo": [["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "0"]],
    "canonical_input": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]],
    "P": [["0", "1", "1/2", "0"], ["0", "1", "0", "0"], ["0", "1", "0", "-1/2"], ["1", "0", "0", "0"]],
    "K": [["-1", "-2", "0", "1"], ["-3/2", "-1", "-1/2", "-1/2"], ["0", "0", "0", "0"]],
    "Q": [["0", "1", "-1"], ["1", "0", "-2"], ["0", "0", "1"]],
}
# The same pair over GF(101), each literal read as a residue (1/2 is 51).
CANON_DOC_GF101 = {
    **CANON_DOC,
    "P": [["0", "1", "51", "0"], ["0", "1", "0", "0"], ["0", "1", "0", "50"], ["1", "0", "0", "0"]],
    "K": [["100", "99", "0", "1"], ["49", "100", "50", "50"], ["0", "0", "0", "0"]],
    "Q": [["0", "1", "100"], ["1", "0", "99"], ["0", "0", "1"]],
}


# invariants --json over Z, pinned byte for byte.  R is reachable but
# its chain stalls at rank 3 while the index drops (torsion Z/9 in M, I
# and Z); U is unreachable with torsion in its last quotient.
INT_SYSTEMS = {
    "R": (3, [["-2", "2", "-1"], ["-2", "-1", "1"], ["0", "-1", "1"]], [["0", "0"], ["0", "3"], ["3", "2"]]),
    "U": (4, [["0", "0", "1", "0"], ["1", "0", "0", "0"], ["0", "3", "0", "0"], ["0", "0", "0", "2"]], [["1"], ["0"], ["0"], ["0"]]),
}


def _group(free_rank, *torsion):
    return {"free_rank": free_rank, "torsion": list(torsion)}


INVARIANTS_DOCS = {
    "R": {
        "I": [_group(2), _group(1), _group(0, 9)],
        "M": [_group(1, 9), _group(0, 9), _group(0)],
        "Z": [_group(1), _group(1), _group(0, 9)],
        "chain_dims": [0, 2, 3, 3],
        "command": "invariants",
        "locally_brunovsky": False,
        "reachable": True,
        "ring": "Z",
        "s": 3,
        "state_rank": 3,
        "system": "R",
        "z_signature": None,
    },
    "U": {
        "I": [_group(1), _group(1), _group(1)],
        "M": [_group(3), _group(2), _group(1, 3)],
        "Z": [_group(0), _group(0), _group(1)],
        "chain_dims": [0, 1, 2, 3],
        "command": "invariants",
        "locally_brunovsky": False,
        "reachable": False,
        "ring": "Z",
        "s": 3,
        "state_rank": 4,
        "system": "U",
        "z_signature": None,
    },
}

# Malformed files: each must exit 2 with one error line, quickly.
HOSTILE = {
    "systems-list": {"ring": {"kind": "Z"}, "systems": []},
    "certificates-list": {"ring": {"kind": "Z"}, "systems": {}, "certificates": [1]},
    "long-literal": {"ring": {"kind": "Z"}, "systems": {"S": {"n": 1, "endo": [["7" * 5000]], "input_gens": [["1"]]}}},
    "huge-modulus": {"ring": {"kind": "GF", "p": 10**30 + 57}, "systems": {}},
    "huge-exponent": {
        "ring": {"kind": "poly_quotient", "vars": ["x", "y", "z"], "relation": "x^2 + y^2 + z^2 - 1"},
        "systems": {"S": {"n": 1, "endo": [["z^100000000"]], "input_gens": [["1"]]}},
    },
    "costly-reduction": {
        "ring": {"kind": "poly_quotient", "vars": list("abcdefghz"), "relation": "z^2 - a^2 - b^2 - c^2 - d^2 - e^2 - f^2 - g^2 - h^2"},
        "systems": {"S": {"n": 1, "endo": [["z^64"]], "input_gens": [["1"]]}},
    },
    "costly-coefficients": {
        "ring": {"kind": "poly_quotient", "vars": ["x", "y", "z"], "relation": "7" * 1000 + "*z^2 + 3*y^2 + 5*x^2 - 1"},
        "systems": {"S": {"n": 1, "endo": [["z^64"]], "input_gens": [["1"]]}},
    },
    # coefficients past MAX_COEFF_BITS, each seconds to build unbounded:
    # 100 distinct 4000-digit denominators summed into one monomial, and
    # 200 factors of 4000 digits in one term
    "wide-denominator-sum": {
        "ring": SPHERE_RING,
        "systems": {"S": {"n": 1, "endo": [[" + ".join(f"1/{10**3999 + 2 * k + 1}*x" for k in range(100))]], "input_gens": [["1"]]}},
    },
    "wide-factor-product": {
        "ring": SPHERE_RING,
        "systems": {"S": {"n": 1, "endo": [["*".join(str(10**3999 + k) for k in range(200)) + "*x"]], "input_gens": [["1"]]}},
    },
}


class TestExitCodes:
    def test_equiv_true(self, fixture_file, capsys):
        assert main(["equiv", fixture_file, "S1", "S1"]) == 0
        out = capsys.readouterr().out
        assert "true" in out and "(0, 1)" in out

    def test_equiv_false(self, fixture_file, capsys):
        assert main(["equiv", fixture_file, "S1", "S2", "--mode", "stable"]) == 1
        out = capsys.readouterr().out
        assert "false" in out

    def test_missing_system_is_error(self, fixture_file, capsys):
        assert main(["k0", fixture_file, "missing"]) == 2
        assert "unknown system" in capsys.readouterr().err

    def test_missing_file_is_error(self, capsys):
        assert main(["k0", "/nonexistent/f.json", "S"]) == 2

    def test_unreachable_canon_is_error(self, fixture_file, capsys):
        assert main(["canon", fixture_file, "NR"]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_p_max_is_usage_error(self, fixture_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equiv", fixture_file, "S1", "S1", "--mode", "dynamic", "--p-max", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "nonnegative" in captured.err

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_malformed_file_is_error(self, name, tmp_path, capsys):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(HOSTILE[name]), encoding="utf-8")
        start = time.perf_counter()
        assert main(["k0", str(path), "S"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_usage_error_leaves_no_state(self, fixture_file, capsys):
        # the parser is built once per process and shared between calls
        with pytest.raises(SystemExit) as exc:
            main(["equiv", fixture_file, "S1", "--mode", "sideways"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["equiv", fixture_file, "S1", "S2", "--mode", "stable", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "stable" and doc["equivalent"] is False
        # options given to an earlier call do not become defaults
        assert main(["equiv", fixture_file, "S1", "S1", "--json"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["mode"] == "feedback" and doc["equivalent"] is True
        assert captured.err == ""

    def test_handler_rebound_before_first_build(self, fixture_file, capsys, monkeypatch):
        # the shared parser is built after the handler is rebound, and
        # the rebinding still takes effect (and is undone afterwards)
        build_parser.cache_clear()

        def patched(args):
            print("patched", args.system)
            return 0

        monkeypatch.setattr("ringsys.cli._cmd_k0", patched)
        assert main(["k0", fixture_file, "G1"]) == 0
        assert capsys.readouterr().out == "patched G1\n"
        monkeypatch.undo()
        assert main(["k0", fixture_file, "G1"]) == 0
        assert capsys.readouterr().out != "patched G1\n"

    def test_internal_failure_is_error(self, fixture_file, capsys, monkeypatch):
        def broken(args):
            raise ValueError("first line\nsecond line")

        monkeypatch.setattr("ringsys.cli._cmd_k0", broken)
        assert main(["k0", fixture_file, "G1"]) == 2
        assert capsys.readouterr().err == "error: internal failure (ValueError: first line second line)\n"

    def test_foreign_exception_passes_through(self, fixture_file, monkeypatch):
        class Alarm(Exception):
            pass

        def interrupted(args):
            raise Alarm

        monkeypatch.setattr("ringsys.cli._cmd_k0", interrupted)
        with pytest.raises(Alarm):
            main(["k0", fixture_file, "G1"])


class TestReports:
    def test_invariants_human(self, fixture_file, capsys):
        assert main(["invariants", fixture_file, "S1"]) == 0
        out = capsys.readouterr().out
        assert "state rank 2" in out
        assert "0 -> 1 -> 2" in out
        assert "z-signature: (0, 1)" in out

    def test_invariants_json_deterministic(self, fixture_file, capsys):
        assert main(["invariants", fixture_file, "S1", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["invariants", fixture_file, "S1", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["chain_dims"] == [0, 1, 2]
        assert doc["reachable"] is True
        assert doc["z_signature"] == [0, 1]

    def test_k0_gamma(self, fixture_file, capsys):
        assert main(["k0", fixture_file, "G1"]) == 0
        assert capsys.readouterr().out.strip() == "(1)"

    def test_canon_json(self, fixture_file, capsys):
        assert main(["canon", fixture_file, "S1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["indices"] == [2]
        assert doc["canonical_input"] == [["1"], ["0"]]

    def test_canon_json_pinned(self, tmp_path, capsys):
        a, b = (RingMatrix.from_rows(Q, rows) for rows in CANON_PAIR)
        path = tmp_path / "canon.json"
        write(SystemFile(Q, {"T": PairEntry(4, a, b)}), path)
        assert main(["canon", str(path), "T", "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(CANON_DOC, indent=2, sort_keys=True) + "\n"

    def test_canon_json_pinned_over_gf101(self, tmp_path, capsys):
        ring = PrimeField(101)

        def residue(text):
            q = Fraction(text)
            return q.numerator * pow(q.denominator, -1, ring.p) % ring.p

        a, b = (RingMatrix.from_rows(ring, [[residue(t) for t in row] for row in rows]) for rows in CANON_PAIR)
        path = tmp_path / "canon.json"
        write(SystemFile(ring, {"T": PairEntry(4, a, b)}), path)
        assert main(["canon", str(path), "T", "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(CANON_DOC_GF101, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", sorted(INT_SYSTEMS))
    def test_integer_invariants_json_pinned(self, name, tmp_path, capsys):
        n, a, b = INT_SYSTEMS[name]
        doc = {"ring": {"kind": "Z"}, "systems": {name: {"n": n, "endo": a, "input_gens": b}}}
        path = tmp_path / "int.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["invariants", str(path), name, "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(INVARIANTS_DOCS[name], indent=2, sort_keys=True) + "\n"

    def test_equiv_reports_both_signatures(self, fixture_file, capsys):
        main(["equiv", fixture_file, "S1", "S2", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["left_signature"] == [0, 1]
        assert doc["right_signature"] == [2]
        assert doc["equivalent"] is False


class TestFileProducingCommands:
    def test_sum_writes_parseable_file(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "sum.json"
        assert main(["sum", fixture_file, "S1", "G1", "--out", str(out)]) == 0
        sf = parse(out)
        assert "S1+G1" in sf.systems
        assert sf.systems["S1+G1"].n == 3

    def test_enlarge_adds_leading_block(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "enl.json"
        assert main(["enlarge", fixture_file, "S1", "-p", "2", "--out", str(out)]) == 0
        sf = parse(out)
        entry = sf.systems["G2+S1"]
        assert entry.n == 4
        # leading 2x2 identity block in the input matrix
        assert entry.input_gens.entry(0, 0) == Q.one()
        assert entry.input_gens.entry(1, 1) == Q.one()
        capsys.readouterr()
        assert main(["k0", str(out), "G2+S1"]) == 0
        assert capsys.readouterr().out.strip() == "(2, 1)"

    def test_enlarge_negative_p_is_usage_error(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "enl.json"
        with pytest.raises(SystemExit) as exc:
            main(["enlarge", fixture_file, "S1", "-p", "-1", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "-p" in captured.err and "nonnegative" in captured.err
        assert not out.exists()


class TestVerifyCommand:
    def test_sphere_certificates(self, capsys):
        path = str(sphere_fixture_path())
        assert main(["verify", path, "cert_main"]) == 0
        assert capsys.readouterr().out.strip() == "Accept"
        assert main(["verify", path, "cert_orth"]) == 0
        assert capsys.readouterr().out.strip() == "Accept"

    def test_reject_exit_code(self, tmp_path, capsys):
        text = sphere_fixture_path().read_text(encoding="utf-8")
        doc = json.loads(text)
        doc["certificates"]["cert_main"]["phi"][0][0] = "2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(bad), "cert_main"]) == 1
        assert "Reject(inverse)" in capsys.readouterr().out


class TestQuotientRingRefusal:
    @pytest.mark.parametrize(
        "argv", [["equiv", "Sigma", "SigmaPrime"], ["equiv", "Sigma", "Sigma", "--mode", "stable"], ["k0", "Sigma"]]
    )
    def test_signature_commands_exit_2(self, argv, capsys):
        path = str(sphere_fixture_path())
        assert main([argv[0], path] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invariant chains need decidable submodule arithmetic\n"


class TestOrbitOracleCommand:
    def test_small_run(self, capsys):
        assert main(["orbit-oracle", "--max-n", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["disagreements"] == 0
        assert doc["comparisons"] > 0


BASE_DOCUMENTS = fuzz_base_documents()


@settings(max_examples=150)
@given(data=st.data())
def test_mutated_files_exit_with_a_code(data):
    """On mutated valid files, invariants, equiv, k0 and verify exit 0,
    1 or 2 without raising; 1 only with a false or Reject verdict, and 2
    only with a one-line error that is not an internal failure."""
    doc = mutated_document(data, data.draw(st.sampled_from(BASE_DOCUMENTS)))
    mode = data.draw(st.sampled_from(MODES))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "f.json")
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        commands = [
            ["invariants", path, "S"],
            ["invariants", path, "U"],
            ["equiv", path, "S", "T", "--mode", mode],
            ["k0", path, "T"],
            ["verify", path, "C"],
        ]
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--json"])
            assert code in (0, 1, 2), argv
            if code == 1:
                verdict = json.loads(out.getvalue())
                assert verdict.get("equivalent") is False or verdict.get("verdict") == "Reject", argv
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
                assert "internal failure" not in err.getvalue(), (argv, err.getvalue())
