"""End-to-end runs of the command line, one subprocess per command.

Each case of CASES is (document, argv, exit code, stdout, stderr): the
document is written to ``doc.json`` in a fresh directory, ``{doc}`` and
``{tmp}`` in argv stand for that file and that directory, and the
command runs as ``python -m ringsys.cli``, so ``__main__`` and the exit
code are real.  An expected stdout is either the exact text or a
predicate on it.  The commands of ``before`` run first, in the same
directory, and must each exit 0.  A new end-to-end check is a row here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

import pytest

import ringsys.cli  # noqa: F401  (the tracer wraps the modules the CLI imports)
from ringsys.fixtures import sphere_fixture_path

ROOT = Path(__file__).resolve().parents[1]


class Case(NamedTuple):
    document: Optional[dict]
    argv: tuple[str, ...]
    code: int
    stdout: Union[str, Callable[[str], bool]]
    stderr: str
    before: tuple[tuple[str, ...], ...] = ()


def json_fields(**expected):
    """Predicate: stdout is one JSON document with these values."""
    return lambda out: {k: json.loads(out)[k] for k in expected} == expected


def starts_with(prefix):
    return lambda out: out.startswith(prefix)


def ends_with(suffix):
    return lambda out: out.endswith(suffix)


def _certificates(ring, system, certificates):
    return {
        "ring": ring,
        "systems": {"S": system},
        "certificates": {name: {"source": "S", "target": "S", **c} for name, c in certificates.items()},
    }


# The 2-state identity certificate "id" and a copy "bad" with psi[0][0] changed.
IDENTITY_2 = {
    "phi": [["1", "0"], ["0", "1"]],
    "psi": [["1", "0"], ["0", "1"]],
    "U": [["1"]],
    "V": [["1"]],
    "Kw": [["0", "0"]],
}
SHIFT_2 = {"n": 2, "endo": [["0", "0"], ["1", "0"]], "input_gens": [["1"], ["0"]]}
IDENTITY_1 = {"phi": [["1"]], "psi": [["1"]], "U": [["1"]], "V": [["1"]], "Kw": [["0"]]}


def _identity_pair(ring):
    bad = {**IDENTITY_2, "psi": [["2", "0"], ["0", "1"]]}
    return _certificates(ring, SHIFT_2, {"id": IDENTITY_2, "bad": bad})


# Over Z, M_1 is free behind the Hermite pivot 2 and M_2 = Z/4 is read
# from a Smith form.
Z_TORSION = {"ring": {"kind": "Z"}, "systems": {"S": {"n": 2, "endo": [["0", "0"], ["1", "0"]], "input_gens": [["2"], ["1"]]}}}
Q_STAIRCASE = {"ring": {"kind": "Q"}, "systems": {"S": {"n": 2, "endo": [["0", "0"], ["1/3", "0"]], "input_gens": [["1/2"], ["0"]]}}}
# S beside a system X with a literal that is not an integer.
Z_BESIDE_BAD = {
    "ring": {"kind": "Z"},
    "systems": {"S": {"n": 1, "endo": [["0"]], "input_gens": [["1"]]}, "X": {"n": 1, "endo": [["1/2"]], "input_gens": [["1"]]}},
}
# Q[x,y,z]/(2*z^2 - x + 1/3): the rewrite rule z^2 -> 1/2*x - 1/6 has the coefficient 1/2.
HALF_RULE = _certificates(
    {"kind": "poly_quotient", "vars": ["x", "y", "z"], "relation": "2*z^2 - x + 1/3"},
    {"n": 1, "endo": [["z^2 + y"]], "input_gens": [["1"]]},
    {"id": IDENTITY_1, "zz": {**IDENTITY_1, "phi": [["z"]], "psi": [["z"]]}},
)
# Q[x,y,z]/(x*z - 1) with S = (y, 1) and T = (y, z^64): phi = z^64 and
# psi = x^64 multiply to a degree-128 product that 64 rewrites reduce to 1.
UNIT_POWER = {
    "ring": {"kind": "poly_quotient", "vars": ["x", "y", "z"], "relation": "x*z - 1"},
    "systems": {"S": {"n": 1, "endo": [["y"]], "input_gens": [["1"]]}, "T": {"n": 1, "endo": [["y"]], "input_gens": [["z^64"]]}},
    "certificates": {
        "inv": {"source": "S", "target": "T", **IDENTITY_1, "phi": [["z^64"]], "psi": [["x^64"]]},
        "short": {"source": "S", "target": "T", **IDENTITY_1, "phi": [["z^64"]], "psi": [["x^63"]]},
    },
}


def _sphere_with_psi_bumped():
    doc = json.loads(sphere_fixture_path().read_text(encoding="utf-8"))
    doc["certificates"]["cert_main"]["psi"][0][0] += " + 1"
    return doc


CASES = {
    "z-invariants-free-then-torsion": Case(
        Z_TORSION,
        ("invariants", "{doc}", "S", "--json"),
        0,
        json_fields(M=[{"free_rank": 1, "torsion": []}, {"free_rank": 0, "torsion": [4]}]),
        "",
    ),
    "z-k0-refuses-torsion": Case(
        Z_TORSION, ("k0", "{doc}", "S"), 2, "", "error: signature classifies locally Brunovsky systems only\n"
    ),
    "q-invariants-staircase-ranks": Case(
        Q_STAIRCASE,
        ("invariants", "{doc}", "S", "--json"),
        0,
        json_fields(chain_dims=[0, 1, 2], M=[1, 0], I=[1, 1], Z=[0, 1], z_signature=[0, 1]),
        "",
    ),
    "subcommand-help": Case(None, ("equiv", "--help"), 0, starts_with("usage: ringsys equiv"), ""),
    # the class of S + S is twice that of S, and that of Gamma_p + S is it plus (p)
    "k0-of-sum": Case(
        Z_BESIDE_BAD, ("k0", "{tmp}/sum.json", "S+S"), 0, "(2)\n", "", (("sum", "{doc}", "S", "S", "--out", "{tmp}/sum.json"),)
    ),
    "k0-of-enlargement": Case(
        Z_BESIDE_BAD, ("k0", "{tmp}/enl.json", "G2+S"), 0, "(3)\n", "", (("enlarge", "{doc}", "S", "-p", "2", "--out", "{tmp}/enl.json"),)
    ),
    **{
        f"{name}-identity-{verdict}": Case(_identity_pair(ring), ("verify", "{doc}", cert), code, out, "")
        for name, ring in (("z", {"kind": "Z"}), ("gf5", {"kind": "GF", "p": 5}))
        for verdict, cert, code, out in (("accept", "id", 0, "Accept\n"), ("reject", "bad", 1, "Reject(inverse)\n"))
    },
    "half-rule-identity-accept": Case(HALF_RULE, ("verify", "{doc}", "id"), 0, "Accept\n", ""),
    "half-rule-z-reject": Case(HALF_RULE, ("verify", "{doc}", "zz"), 1, "Reject(inverse)\n", ""),
    "unit-power-accept": Case(UNIT_POWER, ("verify", "{doc}", "inv"), 0, "Accept\n", ""),
    "unit-power-short-reject": Case(UNIT_POWER, ("verify", "{doc}", "short"), 1, "Reject(inverse)\n", ""),
    "sphere-psi-bumped-reject": Case(_sphere_with_psi_bumped(), ("verify", "{doc}", "cert_main"), 1, "Reject(inverse)\n", ""),
    # exit 0 means the orbit oracle found no disagreement
    "orbit-oracle-gf2": Case(None, ("orbit-oracle", "--field", "2"), 0, ends_with(" 0 disagreements\n"), ""),
    "orbit-oracle-gf3": Case(None, ("orbit-oracle", "--field", "3", "--max-n", "2"), 0, ends_with(" 0 disagreements\n"), ""),
}


def _run(argv, tmp_path):
    """(exit code, stdout, stderr) of ``python -m ringsys.cli`` in tmp_path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    args = [a.format(doc=tmp_path / "doc.json", tmp=tmp_path) for a in argv]
    done = subprocess.run(
        [sys.executable, "-m", "ringsys.cli", *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("name", sorted(CASES))
def test_console(name, tmp_path):
    case = CASES[name]
    if case.document is not None:
        (tmp_path / "doc.json").write_text(json.dumps(case.document), encoding="utf-8")
    for argv in case.before:
        code, _, err = _run(argv, tmp_path)
        assert (code, err) == (0, ""), argv
    code, out, err = _run(case.argv, tmp_path)
    assert (code, err) == (case.code, case.stderr)
    assert out == case.stdout if isinstance(case.stdout, str) else case.stdout(out), out


def test_tracer_installs_and_uninstalls(monkeypatch):
    # bench/tracing.py rebinds functions by name; a traced name that is
    # gone from its module fails here, not only in a traced benchmark run.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        rebound = list(tracer._undo)
        assert rebound
        assert all(owner.__dict__[attr] is not original for owner, attr, original in rebound)
    finally:
        tracer.uninstall()
        sys.modules.pop("tracing", None)
    assert all(owner.__dict__[attr] is original for owner, attr, original in rebound)
