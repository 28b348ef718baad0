"""Command-line behaviour: exit codes, reports, output determinism."""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsys import PrimeField, Rationals, RingMatrix, SystemFileError, from_pair
from ringsys.cli import _parse, build_parser, main
from ringsys.fixtures import sphere_fixture_path
from ringsys.equivalence import MODES
from ringsys.sysfile import SystemFile, _parse_matrix, emit, parse, parse_text, write
from util import SPHERE_RING, fuzz_base_documents, mutated_document

Q = Rationals()


@pytest.fixture
def fixture_file(tmp_path):
    m = lambda rows: RingMatrix.from_rows(Q, rows)
    sf = SystemFile(
        Q,
        {
            "S1": from_pair(m([[0, 0], [1, 0]]), m([[1], [0]])),
            "S2": from_pair(m([[0, 0], [0, 0]]), m([[1, 0], [0, 1]])),
            "G1": from_pair(m([[0]]), m([[1]])),
            "NR": from_pair(m([[0, 0], [0, 0]]), m([[1], [0]])),
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


def _brunovsky_q_pair():
    """The Brunovsky pair of indices (5, 4, 2, 1), state rank 12, with a
    rational feedback added to the rows at each block start, written in
    the coordinates of a diagonal D and with its inputs scaled by a
    diagonal E.  Their entries have denominators 2, 3, 4, 5 and 7, and
    none of the three changes the chain ranks."""
    indices = (5, 4, 2, 1)
    n, m = sum(indices), len(indices)
    a = [[Fraction(0)] * n for _ in range(n)]
    b = [[Fraction(0)] * m for _ in range(n)]
    start = 0
    for j, k in enumerate(indices):
        for l in range(k - 1):
            a[start + l + 1][start + l] = Fraction(1)
        b[start][j] = Fraction(1)
        for c in range(n):
            a[start][c] += Fraction((3 * j + 2 * c) % 7 - 3, (j + c) % 4 + 1)
        start += k
    d = [Fraction(i % 5 + 1, (2, 3, 5, 7)[i % 4]) for i in range(n)]
    e = [Fraction(j + 2, j + 1) for j in range(m)]
    a = [[str(d[i] * a[i][c] / d[c]) for c in range(n)] for i in range(n)]
    b = [[str(d[i] * b[i][j] * e[j]) for j in range(m)] for i in range(n)]
    return n, a, b


# invariants --json over fields, pinned byte for byte.  R is reachable
# over Q with Brunovsky indices (5, 4, 2, 1); U over GF(101) keeps the
# span of its first three coordinates and stalls there.
FIELD_SYSTEMS = {
    "R": ({"kind": "Q"}, *_brunovsky_q_pair()),
    "U": (
        {"kind": "GF", "p": 101},
        5,
        [["3", "0", "1", "0", "0"], ["1", "0", "0", "0", "7"], ["0", "100", "0", "0", "2"], ["0", "0", "0", "5", "1"], ["0", "0", "0", "1", "50"]],
        [["1", "0"], ["0", "0"], ["0", "51"], ["0", "0"], ["0", "0"]],
    ),
}
FIELD_INVARIANTS_DOCS = {
    "R": {
        "I": [4, 3, 2, 2, 1],
        "M": [8, 5, 3, 1, 0],
        "Z": [1, 1, 0, 1, 1],
        "chain_dims": [0, 4, 7, 9, 11, 12],
        "command": "invariants",
        "locally_brunovsky": True,
        "reachable": True,
        "ring": "Q",
        "s": 5,
        "state_rank": 12,
        "system": "R",
        "z_signature": [1, 1, 0, 1, 1],
    },
    "U": {
        "I": [2, 1],
        "M": [3, 2],
        "Z": [1, 1],
        "chain_dims": [0, 2, 3],
        "command": "invariants",
        "locally_brunovsky": False,
        "reachable": False,
        "ring": "GF(101)",
        "s": 2,
        "state_rank": 5,
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
    # terms past MAX_TERMS in normal form: every sphere monomial of
    # degree at most 40, 1 681 terms whose square takes about 0.5 s
    # unbounded, and four written terms that reduce to 1 035
    "many-terms": {
        "ring": SPHERE_RING,
        "systems": {
            "S": {
                "n": 1,
                "endo": [[" + ".join(f"x^{a}*y^{d - a - c}*z^{c}" for d in range(41) for c in (0, 1) for a in range(d - c + 1))]],
                "input_gens": [["1"]],
            }
        },
    },
    "expanding-literal": {
        "ring": SPHERE_RING,
        "systems": {"S": {"n": 1, "endo": [["z^44 + x*z^43 + y*z^43 + x*y*z^42"]], "input_gens": [["1"]]}},
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

    def test_non_integer_p_max_is_usage_error(self, fixture_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equiv", fixture_file, "S1", "S1", "--mode", "dynamic", "--p-max", "abc"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--p-max: must be a nonnegative integer, got 'abc'" in captured.err
        assert "_nonnegative_int" not in captured.err

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
        write(SystemFile(Q, {"T": from_pair(a, b)}), path)
        assert main(["canon", str(path), "T", "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(CANON_DOC, indent=2, sort_keys=True) + "\n"

    def test_canon_json_pinned_over_gf101(self, tmp_path, capsys):
        ring = PrimeField(101)

        def residue(text):
            q = Fraction(text)
            return q.numerator * pow(q.denominator, -1, ring.p) % ring.p

        a, b = (RingMatrix.from_rows(ring, [[residue(t) for t in row] for row in rows]) for rows in CANON_PAIR)
        path = tmp_path / "canon.json"
        write(SystemFile(ring, {"T": from_pair(a, b)}), path)
        assert main(["canon", str(path), "T", "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(CANON_DOC_GF101, indent=2, sort_keys=True) + "\n"

    def test_canon_at_n36_over_q(self, tmp_path, capsys):
        """A random pair over Q with n = 36 certifies, and the P, K and Q
        read back from --json satisfy both identities.  P's entries run
        to about 1 100 bits here, so a determinant of P in the internal
        check would cost about ten times the rest of the run."""
        rng = random.Random(36)
        n, m = 36, 2
        a, b = (RingMatrix.from_rows(Q, [[rng.randint(-3, 3) for _ in range(w)] for _ in range(n)]) for w in (n, m))
        path = tmp_path / "n36.json"
        write(SystemFile(Q, {"S": from_pair(a, b)}), path)
        assert main(["canon", str(path), "S", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        p, k, q, a_c, b_c = (
            RingMatrix.from_rows(Q, doc[key], cols=width)
            for key, width in (("P", n), ("K", n), ("Q", m), ("canonical_endo", n), ("canonical_input", m))
        )
        assert sum(doc["indices"]) == n
        assert p @ (a + b @ k) == a_c @ p
        assert p @ b @ q == b_c

    @pytest.mark.parametrize("name", sorted(INT_SYSTEMS))
    def test_integer_invariants_json_pinned(self, name, tmp_path, capsys):
        n, a, b = INT_SYSTEMS[name]
        doc = {"ring": {"kind": "Z"}, "systems": {name: {"n": n, "endo": a, "input_gens": b}}}
        path = tmp_path / "int.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["invariants", str(path), name, "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(INVARIANTS_DOCS[name], indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", sorted(FIELD_SYSTEMS))
    def test_field_invariants_json_pinned(self, name, tmp_path, capsys):
        ring, n, a, b = FIELD_SYSTEMS[name]
        doc = {"ring": ring, "systems": {name: {"n": n, "endo": a, "input_gens": b}}}
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["invariants", str(path), name, "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(FIELD_INVARIANTS_DOCS[name], indent=2, sort_keys=True) + "\n"

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
        assert sf.systems["S1+G1"].state_rank == 3

    def test_outputs_read_back_with_reduced_literals(self, tmp_path, capsys):
        # z^64 is written back as its 561-term normal form, which parses
        doc = {"ring": SPHERE_RING, "systems": {"S": {"n": 1, "endo": [["z^64"]], "input_gens": [["x*z"]]}}}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        z64 = parse(path).systems["S"].endo.entry(0, 0)
        assert main(["sum", str(path), "S", "S", "--out", str(tmp_path / "sum.json")]) == 0
        assert main(["enlarge", str(path), "S", "-p", "1", "--out", str(tmp_path / "enl.json")]) == 0
        summed = parse(tmp_path / "sum.json").systems["S+S"].endo
        assert summed.entry(0, 0) == summed.entry(1, 1) == z64
        assert parse(tmp_path / "enl.json").systems["G1+S"].endo.entry(1, 1) == z64

    def test_enlarge_adds_leading_block(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "enl.json"
        assert main(["enlarge", fixture_file, "S1", "-p", "2", "--out", str(out)]) == 0
        sf = parse(out)
        sigma = sf.systems["G2+S1"]
        assert sigma.state_rank == 4
        # leading 2x2 identity block in the input matrix
        assert sigma.generators.entry(0, 0) == Q.one()
        assert sigma.generators.entry(1, 1) == Q.one()
        capsys.readouterr()
        assert main(["k0", str(out), "G2+S1"]) == 0
        assert capsys.readouterr().out.strip() == "(2, 1)"

    @pytest.mark.parametrize(
        "argv, report",
        [
            (["sum", "S1", "G1"], {"command": "sum", "system": "S1+G1"}),
            (["enlarge", "S1", "-p", "2"], {"command": "enlarge", "system": "G2+S1", "p": 2}),
        ],
        ids=["sum", "enlarge"],
    )
    def test_json_report(self, argv, report, fixture_file, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main([argv[0], fixture_file, *argv[1:], "--out", str(out), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {**report, "written": str(out)}
        assert report["system"] in parse(out).systems

    def test_enlarge_negative_p_is_usage_error(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "enl.json"
        with pytest.raises(SystemExit) as exc:
            main(["enlarge", fixture_file, "S1", "-p", "-1", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "-p" in captured.err and "nonnegative" in captured.err
        assert not out.exists()

    def test_enlarge_non_integer_p_is_usage_error(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "enl.json"
        with pytest.raises(SystemExit) as exc:
            main(["enlarge", fixture_file, "S1", "-p", "1.5", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "-p: must be a nonnegative integer, got '1.5'" in captured.err
        assert "_nonnegative_int" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name, n, endo, gens",
        [
            (["sum", "S", "E"], "S+E", 2, [["0", "-2"], ["1", "3"]], [["1", "1"], ["0", "0"]]),
            (
                ["enlarge", "S", "-p", "1"],
                "G1+S",
                3,
                [["0", "0", "0"], ["0", "0", "-2"], ["0", "1", "3"]],
                [["1", "0", "0"], ["0", "1", "1"], ["0", "0", "0"]],
            ),
            (["enlarge", "E", "-p", "1"], "G1+E", 1, [["0"]], [["1"]]),
        ],
        ids=["sum", "enlarge", "enlarge-empty"],
    )
    def test_written_bytes_pinned(self, argv, name, n, endo, gens, tmp_path, capsys):
        # S's generators span what the one column (1, 0) spans, and are
        # written back as given, never in canonical form; E has no state
        source = {
            "ring": {"kind": "Z"},
            "systems": {
                "S": {"n": 2, "endo": [["0", "-2"], ["1", "3"]], "input_gens": [["1", "1"], ["0", "0"]]},
                "E": {"n": 0, "endo": [], "input_gens": []},
            },
        }
        path, out = tmp_path / "f.json", tmp_path / "out.json"
        path.write_text(json.dumps(source), encoding="utf-8")
        assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {name} to {out}\n"
        doc = {"ring": {"kind": "Z"}, "systems": {name: {"endo": endo, "input_gens": gens, "n": n}}}
        assert out.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


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

    # An entryless witness cannot spell its shape in the file format, so
    # it is read as the (equally empty) matrix of the expected shape.
    I2 = [["1", "0"], ["0", "1"]]
    EMPTY_CASES = {
        "n = 0": ({"n": 0, "endo": [], "input_gens": []}, {"phi": [], "psi": [], "U": [], "V": [], "Kw": []}),
        "m = 0": ({"n": 2, "endo": [["0", "1"], ["0", "0"]], "input_gens": [[], []]}, {"phi": I2, "psi": I2, "U": [], "V": [], "Kw": []}),
        "Kw 2x0": ({"n": 2, "endo": [["0", "1"], ["0", "0"]], "input_gens": [[], []]}, {"phi": I2, "psi": I2, "U": [], "V": [], "Kw": [[], []]}),
    }

    def _verify(self, tmp_path, system, witnesses):
        doc = {
            "ring": {"kind": "Q"},
            "systems": {"S": system},
            "certificates": {"C": {"source": "S", "target": "S", **witnesses}},
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return main(["verify", str(path), "C"])

    @pytest.mark.parametrize("case", sorted(EMPTY_CASES))
    def test_entryless_witnesses_take_the_expected_shape(self, case, tmp_path, capsys):
        assert self._verify(tmp_path, *self.EMPTY_CASES[case]) == 0
        assert capsys.readouterr().out == "Accept\n"

    def test_wrong_nonempty_shape_is_error(self, tmp_path, capsys):
        system, witnesses = self.EMPTY_CASES["m = 0"]
        assert self._verify(tmp_path, system, {**witnesses, "phi": [["1"]]}) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: phi must be 2x2, got 1x1\n"


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

    @pytest.mark.parametrize("option", ["--max-n", "--max-m", "--bound"])
    def test_negative_size_is_usage_error(self, option, capsys):
        # a negative size would sweep nothing and exit 0, a vacuous pass
        with pytest.raises(SystemExit) as exc:
            main(["orbit-oracle", option, "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option}: must be nonnegative, got -1" in captured.err


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


def _run(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _parse_error(doc):
    with pytest.raises(SystemFileError) as exc:
        parse_text(json.dumps(doc))
    return str(exc.value)


# HOSTILE cases whose fault sits in the entry of system S
ENTRY_FAULTS = sorted(name for name, doc in HOSTILE.items() if isinstance(doc["systems"], dict) and "S" in doc["systems"])
ONE = [["1"]]
IDENTITY = {"phi": ONE, "psi": ONE, "U": ONE, "V": ONE, "Kw": [["0"]]}


def _clean_document(ring):
    """A valid file over ring: system S and its identity certificate C."""
    return {
        "ring": ring,
        "systems": {"S": {"n": 1, "endo": ONE, "input_gens": ONE}},
        "certificates": {"C": {"source": "S", "target": "S", **IDENTITY}},
    }


class TestNamedEntriesOnly:
    """A command builds and validates only the entries it names: a
    malformed entry beside them changes nothing until it is named."""

    def _write(self, tmp_path, doc, name="f.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def _faulty_documents(self, case):
        """The clean file plus the faulty entry of HOSTILE[case], once as
        a system X and once as the phi witness of a certificate X."""
        hostile = HOSTILE[case]
        clean = _clean_document(hostile["ring"])
        with_system = json.loads(json.dumps(clean))
        with_system["systems"]["X"] = hostile["systems"]["S"]
        with_cert = json.loads(json.dumps(clean))
        with_cert["certificates"]["X"] = {"source": "S", "target": "S", **IDENTITY, "phi": hostile["systems"]["S"]["endo"]}
        return clean, with_system, with_cert

    @pytest.mark.parametrize("case", ENTRY_FAULTS)
    def test_unnamed_faulty_entry_changes_nothing(self, case, tmp_path):
        clean, with_system, with_cert = self._faulty_documents(case)
        clean_path = self._write(tmp_path, clean, "clean.json")
        assert _run(["verify", clean_path, "C"]) == (0, "Accept\n", "")
        for doc in (with_system, with_cert):
            path = self._write(tmp_path, doc)
            for argv in (["k0", "S"], ["equiv", "S", "S"], ["verify", "C"], ["invariants", "S", "--json"]):
                assert _run([argv[0], path, *argv[1:]]) == _run([argv[0], clean_path, *argv[1:]]), (case, argv)

    @pytest.mark.parametrize("case", ENTRY_FAULTS)
    def test_named_faulty_entry_reports_the_parse_error(self, case, tmp_path):
        _, with_system, with_cert = self._faulty_documents(case)
        for doc, argv in ((with_system, ["k0", "X"]), (with_system, ["equiv", "S", "X"]), (with_cert, ["verify", "X"])):
            path = self._write(tmp_path, doc)
            start = time.perf_counter()
            assert _run([argv[0], path, *argv[1:]]) == (2, "", f"error: {_parse_error(doc)}\n"), (case, argv)
            assert time.perf_counter() - start < 1.0

    def test_first_faulty_entry_in_document_order_is_reported(self, tmp_path):
        ok = {"n": 1, "endo": ONE, "input_gens": ONE}
        doc = {
            "ring": {"kind": "Z"},
            "systems": {"A": {"n": 1, "endo": [["a"]], "input_gens": ONE}, "S": ok, "B": {"n": -1}},
            "certificates": {
                "C": {"source": "S", "target": "B", **IDENTITY, "phi": [["b"]]},
                "D": {"source": "S", "target": "S", **IDENTITY, "Kw": [["c"]]},
            },
        }
        path = self._write(tmp_path, doc)
        a_error = "error: systems.A.endo[0][0]: bad integer literal 'a'\n"
        b_error = "error: systems.B.n: missing or not a nonnegative integer\n"
        cases = [
            (["equiv", path, "B", "A"], a_error),
            (["equiv", path, "A", "B"], a_error),
            (["sum", path, "B", "A", "--out", str(tmp_path / "sum.json")], a_error),
            (["equiv", path, "S", "B"], b_error),
            (["equiv", path, "missing", "B"], b_error),
            # a certificate's systems are built before its witnesses
            (["verify", path, "C"], b_error),
            (["verify", path, "D"], "error: certificates.D.Kw[0][0]: bad integer literal 'c'\n"),
            (["equiv", path, "S", "missing"], "error: unknown system 'missing' (known: A, B, S)\n"),
            (["verify", path, "E"], "error: unknown certificate 'E' (known: C, D)\n"),
        ]
        for argv, err in cases:
            assert _run(argv) == (2, "", err), argv
        # and the file as a whole fails at A
        assert f"error: {_parse_error(doc)}\n" == a_error
        assert not (tmp_path / "sum.json").exists()


class TestMatricesBuilt:
    """Entry matrices built per command, on a file of two systems and
    four certificates (24 matrices in all)."""

    COUNTS = [
        (["verify", "C3"], 9),
        (["k0", "S"], 2),
        (["invariants", "T"], 2),
        (["canon", "S"], 2),
        (["equiv", "S", "T"], 4),
        (["equiv", "S", "S"], 2),
        (["enlarge", "T", "--out", "out.json"], 2),
        (["sum", "T", "S", "--out", "out.json"], 4),
    ]

    @pytest.mark.parametrize("argv, built", COUNTS, ids=[" ".join(a[:3]) for a, _ in COUNTS])
    def test_only_named_entries_are_built(self, argv, built, tmp_path, monkeypatch):
        doc = json.loads(json.dumps(BASE_DOCUMENTS[0]))  # over Q
        assert doc["ring"] == {"kind": "Q"}
        del doc["systems"]["U"]
        doc["certificates"] = {f"C{k}": doc["certificates"]["C"] for k in range(1, 5)}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return _parse_matrix(*args, **kwargs)

        monkeypatch.setattr("ringsys.sysfile._parse_matrix", counting)
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], str(path), *argv[1:]]) in (0, 1)
        assert len(calls) == built, calls
        parse_text(json.dumps(doc))
        assert len(calls) == built + 24


# Systems whose input_gens are not canonical: S repeats a column at
# twice its size, and the two columns of T span a lattice that is not
# saturated over Z (M_1 = Z + Z/2).
NONCANONICAL = {
    "S": {"n": 3, "endo": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]], "input_gens": [["1", "2"], ["1", "2"], ["0", "0"]]},
    "T": {"n": 3, "endo": [["1", "2", "0"], ["0", "1", "3"], ["2", "0", "1"]], "input_gens": [["3", "1"], ["0", "2"], ["1", "1"]]},
}


class TestGeneratorsAsGiven:
    """The signature commands read the input generators as written; only
    comparisons of generator matrices build their canonical form."""

    RINGS = [{"kind": "Q"}, {"kind": "GF", "p": 101}, {"kind": "Z"}]

    def _write(self, tmp_path, ring, certificates=None):
        path = tmp_path / "f.json"
        doc = {"ring": ring, "systems": NONCANONICAL}
        if certificates:
            doc["certificates"] = certificates
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("ring", RINGS, ids=lambda r: r["kind"])
    def test_signature_commands_build_no_canonical_generators(self, ring, tmp_path, monkeypatch):
        path = self._write(tmp_path, ring)
        argvs = [
            ["equiv", path, "S", "T"],
            ["equiv", path, "T", "T", "--mode", "stable", "--json"],
            ["k0", path, "S"],
            ["k0", path, "T", "--json"],
            ["invariants", path, "S", "--json"],
            ["invariants", path, "T", "--json"],
        ]
        expected = [_run(argv) for argv in argvs]
        assert [code for code, _, _ in expected].count(2) < len(argvs)

        def refused(m):
            raise RuntimeError("canonical generators built")

        monkeypatch.setattr("ringsys.systems.column_canonical", refused)
        assert [_run(argv) for argv in argvs] == expected

    @pytest.mark.parametrize("ring", [{"kind": "Q"}, {"kind": "Z"}], ids=lambda r: r["kind"])
    def test_verify_reads_canonical_generators(self, ring, tmp_path):
        # S spans the line of (1, 1, 0), one canonical column: a
        # certificate with 1x1 U and V is written against that column
        identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        cert = {"source": "S", "target": "S", "phi": identity, "psi": identity, "U": ONE, "V": ONE, "Kw": [["0", "0", "0"]]}
        path = self._write(tmp_path, ring, {"C": cert})
        assert _run(["verify", path, "C"]) == (0, "Accept\n", "")


def _outcome(parse, argv):
    """(namespace, SystemExit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    args = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return args, code, out.getvalue(), err.getvalue()


class TestDispatch:
    """main parses with the named subcommand's parser alone, and that
    parse is indistinguishable from the full parse_args."""

    CORPUS = [
        ["equiv", "f.json", "S", "T"],
        ["equiv", "f.json", "S", "T", "--json"],
        ["equiv", "f.json", "S", "T", "--mode", "stable", "--p-max", "0", "--json"],
        # the call after one with options gets the defaults again
        ["equiv", "f.json", "S", "T"],
        ["equiv", "f.json", "S", "T", "--mode=dyn"],
        ["equiv", "f.json", "S", "T", "--mode=dynamic"],
        ["equiv", "f.json", "S", "T", "--js"],
        ["equiv", "f.json", "S", "T", "--bogus"],
        ["equiv", "f.json", "S", "T", "stray"],
        ["equiv", "f.json", "S", "T", "--p-max", "-1"],
        ["equiv", "f.json", "S", "T", "--p-max", "abc"],
        ["equiv", "f.json", "S", "-h"],
        ["equiv", "f.json", "S", "T", "--"],
        ["equiv", "--", "f.json", "S", "T"],
        ["equiv", "--json", "f.json", "S", "T", "--bogus", "stray"],
        ["k0", "f.json", "S"],
        ["invariants", "f.json", "S", "--json"],
        ["verify", "f.json", "C"],
        ["sum", "f.json", "S", "T"],
        ["enlarge", "f.json", "S", "-p", "2", "--out", "o.json"],
        ["orbit-oracle", "--field", "5"],
        ["canon"],
        [],
        ["bogus"],
        ["-h"],
        ["--help"],
        ["--json", "equiv", "f.json", "S", "T"],
        ["--", "equiv", "f.json", "S", "T"],
    ]

    def test_dispatch_equals_parse_args(self):
        corpus = self.CORPUS + [[name, "--help"] for name in build_parser().subcommands]
        outcomes = {}
        for argv in corpus:
            outcomes[tuple(argv)] = _outcome(_parse, argv)
            assert outcomes[tuple(argv)] == _outcome(build_parser().parse_args, argv), argv
        args = outcomes[("equiv", "f.json", "S", "T")][0]
        assert (args.mode, args.p_max, args.json) == ("feedback", 4, False)
        _, code, out, err = outcomes[("equiv", "f.json", "S", "T", "--bogus")]
        assert (code, out) == (2, "") and err.startswith("usage: ringsys [-h]")
        assert err.splitlines()[-1] == "ringsys: error: unrecognized arguments: --bogus"


# The names each command reads: (systems, certificates).
COMMAND_NAMES = [
    (("S",), ()),
    (("U",), ()),
    (("S", "T"), ()),
    (("T", "S"), ()),
    (("T", "T"), ()),
    (("S", "missing"), ()),
    ((), ("C",)),
    ((), ("missing",)),
]


def _reduced(doc, systems, certificates):
    """doc with its entry maps cut down to the named entries: the named
    systems, the named certificates and the systems those name."""
    out = dict(doc)
    named = set(systems)
    if isinstance(doc.get("certificates"), dict):
        out["certificates"] = {k: v for k, v in doc["certificates"].items() if k in certificates}
        for spec in out["certificates"].values():
            if isinstance(spec, dict):
                named.update(spec.get(key) for key in ("source", "target") if isinstance(spec.get(key), str))
    if isinstance(doc.get("systems"), dict):
        out["systems"] = {k: v for k, v in doc["systems"].items() if k in named}
    return out


def _unknown_name(doc, systems, certificates):
    for kind, key, names in (("system", "systems", systems), ("certificate", "certificates", certificates)):
        known = doc.get(key, {})
        for name in names:
            if name not in known:
                return f"unknown {kind} {name!r} (known: {', '.join(sorted(known)) or 'none'})"
    return None


@settings(max_examples=150)
@given(data=st.data())
def test_named_parse_matches_parse_text_on_the_named_entries(data):
    """sysfile.parse given names, on a mutated valid file: when parse_text
    succeeds, the entries built equal its entries; when a named entry fails, the
    message is the one parse_text raises on the file cut down to the
    named entries; a missing name is reported after those."""
    doc = mutated_document(data, data.draw(st.sampled_from(BASE_DOCUMENTS)))
    try:
        whole = parse_text(json.dumps(doc))
    except SystemFileError:
        whole = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for systems, certificates in COMMAND_NAMES:
            try:
                expected = parse_text(json.dumps(_reduced(doc, systems, certificates)))
                message = _unknown_name(doc, systems, certificates)
            except SystemFileError as exc:
                expected, message = None, str(exc)
            try:
                got = parse(path, systems, certificates)
            except SystemFileError as exc:
                assert str(exc) == message, (systems, certificates)
                continue
            assert message is None, (systems, certificates)
            # systems compare by span; emit also compares the matrices as written
            assert got == expected and emit(got) == emit(expected)
            if whole is not None:
                for k, v in got.systems.items():
                    assert whole.systems[k] == v and whole.systems[k].generators == v.generators
                assert all(whole.certificates[k] == v for k, v in got.certificates.items())
