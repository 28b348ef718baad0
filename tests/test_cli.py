"""Command-line behaviour: exit codes, reports, output determinism."""

from __future__ import annotations

import json

import pytest

from ringsys import Rationals, RingMatrix
from ringsys.cli import main
from ringsys.fixtures import sphere_fixture_path
from ringsys.sysfile import PairEntry, SystemFile, parse, write

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


class TestOrbitOracleCommand:
    def test_small_run(self, capsys):
        assert main(["orbit-oracle", "--max-n", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["disagreements"] == 0
        assert doc["comparisons"] > 0
