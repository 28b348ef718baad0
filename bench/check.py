"""Output checks for benchmark operations, run outside the timed region.

Each operation from ``gen.generate`` names its expected exit code and
either the exact ``--json`` document, a stderr message, or, for
``canon``, the expected indices and canonical pair.  A ``canon``
certificate is any (P, K, Q) the program chooses, so it is checked by
its defining identities P (A + B K) = A_c P and P B Q = B_c with P and
Q invertible, in the generator's own arithmetic.
"""

from __future__ import annotations

import json

import gen

FIELDS = {R.name: R for R in (gen.Q, gen.GF101)}


def _canon_problem(op, doc) -> str | None:
    want = op["canon"]
    if (doc.get("command"), doc.get("system")) != ("canon", op["args"][2]):
        return f"canon output names {doc.get('command')} {doc.get('system')}"
    for key in ("indices", "canonical_endo", "canonical_input"):
        if doc.get(key) != want[key]:
            return f"{key} {doc.get(key)} != expected {want[key]}"
    R = FIELDS[op["ring"]]
    parse = lambda rows: [[R.parse(x) for x in row] for row in rows]
    a, b = (parse(m) for m in want["pair"])
    p, k, q = (parse(doc[key]) for key in ("P", "K", "Q"))
    ac, bc = parse(want["canonical_endo"]), parse(want["canonical_input"])
    if gen.matmul(R, p, gen.matadd(R, a, gen.matmul(R, b, k))) != gen.matmul(R, ac, p):
        return "certificate fails P (A + B K) = A_c P"
    if gen.matmul(R, gen.matmul(R, p, b), q) != bc:
        return "certificate fails P B Q = B_c"
    if not (gen.field_invertible(R, p) and gen.field_invertible(R, q)):
        return "certificate P or Q is singular"
    return None


def problem(op, rc, out: str, err: str) -> str | None:
    """Why the operation's result is wrong, or None when it is right."""
    if rc != op["rc"]:
        return f"exit {rc}, expected {op['rc']}" + (f" ({err.strip()})" if err.strip() else "")
    if "stderr" in op:
        if op["stderr"] not in err or out:
            return f"expected stderr {op['stderr']!r} and no stdout, got {err.strip()!r}"
        return None
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if "doc" in op:
        if doc != op["doc"]:
            return f"output {doc} != expected {op['doc']}"
        return None
    return _canon_problem(op, doc)
