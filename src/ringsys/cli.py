"""Command-line front end.

Exit codes: 0 for success / Accept / true, 1 for false / Reject, 2 for
errors.  Human-readable output goes to stdout; ``--json`` switches to
a single machine-readable document with stable key order.  Diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .equivalence import (
    MODES,
    k0_class,
    orbit_crosscheck,
    signatures_equivalent,
    verify_certificate,
)
from .errors import RingsysError
from .invariants import canonical_certificate, compute_chain, signature_from_report, z_signature
from .linalg import AbelianGroupStructure
from .sysfile import PairEntry, SystemFile, parse, write
from .systems import enlarged_pair


def _structure_doc(structure):
    if isinstance(structure, AbelianGroupStructure):
        return {"free_rank": structure.free_rank, "torsion": list(structure.torsion)}
    return structure


def _emit(doc, human_lines, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _cmd_invariants(args) -> int:
    sf = parse(args.file)
    sigma = sf.system(args.system)
    report = compute_chain(sigma)
    signature = None
    if report.locally_brunovsky:
        signature = list(signature_from_report(report).entries)
    doc = {
        "command": "invariants",
        "system": args.system,
        "ring": str(sf.ring),
        "state_rank": report.state_rank,
        "chain_dims": list(report.chain_dims),
        "s": report.s,
        "M": [_structure_doc(x) for x in report.M],
        "I": [_structure_doc(x) for x in report.I],
        "Z": [_structure_doc(x) for x in report.Z],
        "reachable": report.reachable,
        "locally_brunovsky": report.locally_brunovsky,
        "z_signature": signature,
    }
    lines = [
        f"system {args.system} over {sf.ring}: state rank {report.state_rank}",
        "chain dims: " + " -> ".join(map(str, report.chain_dims)) + f"  (s = {report.s})",
        "M: " + (", ".join(str(x) for x in report.M) or "-"),
        "I: " + (", ".join(str(x) for x in report.I) or "-"),
        "Z: " + (", ".join(str(x) for x in report.Z) or "-"),
        f"reachable: {'yes' if report.reachable else 'no'}; "
        f"locally Brunovsky: {'yes' if report.locally_brunovsky else 'no'}",
    ]
    if signature is not None:
        lines.append("z-signature: (" + ", ".join(map(str, signature)) + ")")
    _emit(doc, lines, args.json)
    return 0


def _cmd_canon(args) -> int:
    sf = parse(args.file)
    a, b = sf.raw_pair(args.system)
    cert = canonical_certificate(a, b)
    doc = {
        "command": "canon",
        "system": args.system,
        "indices": list(cert.indices),
        "canonical_endo": cert.canonical_endo.to_str_rows(),
        "canonical_input": cert.canonical_input.to_str_rows(),
        "P": cert.P.to_str_rows(),
        "K": cert.K.to_str_rows(),
        "Q": cert.Q.to_str_rows(),
    }
    lines = [
        f"indices: ({', '.join(map(str, cert.indices))})",
        f"canonical endo: {cert.canonical_endo}",
        f"canonical input: {cert.canonical_input}",
        f"P: {cert.P}",
        f"K: {cert.K}",
        f"Q: {cert.Q}",
    ]
    _emit(doc, lines, args.json)
    return 0


def _cmd_equiv(args) -> int:
    sf = parse(args.file)
    s1 = sf.system(args.left)
    s2 = sf.system(args.right)
    sig1, sig2 = z_signature(s1), z_signature(s2)
    verdict = signatures_equivalent(args.mode, sig1, sig2, args.p_max)
    doc = {
        "command": "equiv",
        "mode": args.mode,
        "left": args.left,
        "right": args.right,
        "equivalent": verdict,
        "left_signature": list(sig1.entries),
        "right_signature": list(sig2.entries),
    }
    lines = [
        f"{args.mode} equivalent: {'true' if verdict else 'false'}",
        f"signature {args.left}: {sig1}",
        f"signature {args.right}: {sig2}",
    ]
    _emit(doc, lines, args.json)
    return 0 if verdict else 1


def _cmd_verify(args) -> int:
    sf = parse(args.file)
    entry = sf.certificate(args.certificate)
    result = verify_certificate(
        sf.system(entry.source), sf.system(entry.target), entry.certificate
    )
    doc = {
        "command": "verify",
        "certificate": args.certificate,
        "source": entry.source,
        "target": entry.target,
        "verdict": "Accept" if result.accepted else "Reject",
        "reason": result.reason,
    }
    _emit(doc, [str(result)], args.json)
    return 0 if result.accepted else 1


def _cmd_sum(args) -> int:
    sf = parse(args.file)
    a1, b1 = sf.raw_pair(args.left)
    a2, b2 = sf.raw_pair(args.right)
    name = f"{args.left}+{args.right}"
    entry = PairEntry(a1.rows + a2.rows, a1.block_diag(a2), b1.block_diag(b2))
    out = SystemFile(sf.ring, {name: entry})
    write(out, args.out)
    doc = {"command": "sum", "written": str(args.out), "system": name}
    _emit(doc, [f"wrote {name} to {args.out}"], args.json)
    return 0


def _cmd_enlarge(args) -> int:
    sf = parse(args.file)
    a, b = sf.raw_pair(args.system)
    ea, eb = enlarged_pair(a, b, args.p)
    name = f"G{args.p}+{args.system}"
    out = SystemFile(sf.ring, {name: PairEntry(ea.rows, ea, eb)})
    write(out, args.out)
    doc = {"command": "enlarge", "written": str(args.out), "system": name, "p": args.p}
    _emit(doc, [f"wrote {name} to {args.out}"], args.json)
    return 0


def _cmd_k0(args) -> int:
    sf = parse(args.file)
    cls = k0_class(sf.system(args.system))
    doc = {"command": "k0", "system": args.system, "k0_class": list(cls.entries)}
    _emit(doc, [str(cls)], args.json)
    return 0


def _cmd_orbit_oracle(args) -> int:
    records = orbit_crosscheck(
        p=args.field, max_n=args.max_n, max_m=args.max_m, bound=args.bound
    )
    disagreements = [r for r in records if not r.agree]
    doc = {
        "command": "orbit-oracle",
        "field": args.field,
        "comparisons": len(records),
        "disagreements": len(disagreements),
        "records": [
            {
                "n": r.n,
                "m": r.m,
                "left": list(r.left),
                "right": list(r.right),
                "classifier": r.classifier,
                "oracle": r.oracle,
            }
            for r in records
        ],
    }
    lines = []
    for r in records:
        mark = "ok " if r.agree else "DISAGREE"
        lines.append(
            f"n={r.n} m={r.m} {r.left} vs {r.right}: "
            f"classifier={r.classifier} oracle={r.oracle} [{mark}]"
        )
    lines.append(f"{len(records)} comparisons, {len(disagreements)} disagreements")
    _emit(doc, lines, args.json)
    return 0 if not disagreements else 1


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing keeps no state in the parser, so calls cannot leak into each
    other.  main finds the handler of a subcommand by its name when it
    runs, so a handler rebound in this module (by a test or a tracer)
    takes effect whenever it is rebound.
    """
    parser = argparse.ArgumentParser(
        prog="ringsys",
        description="Classify linear systems over exact rings and verify feedback certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("invariants", "invariant chain and flags of a system")
    p.add_argument("file")
    p.add_argument("system")

    p = add("canon", "Brunovsky indices, canonical pair, and a (P,K,Q) certificate")
    p.add_argument("file")
    p.add_argument("system")

    p = add("equiv", "decide feedback/dynamic/stable equivalence")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=MODES, default="feedback")
    p.add_argument("--p-max", dest="p_max", type=_nonnegative_int, default=4)

    p = add("verify", "verify a named certificate")
    p.add_argument("file")
    p.add_argument("certificate")

    p = add("sum", "write the direct sum of two systems to a new file")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", required=True)

    p = add("enlarge", "write a dynamic enlargement to a new file")
    p.add_argument("file")
    p.add_argument("system")
    p.add_argument("-p", type=_nonnegative_int, default=1)
    p.add_argument("--out", required=True)

    p = add("k0", "class of a system in the group completion")
    p.add_argument("file")
    p.add_argument("system")

    p = add("orbit-oracle", "exhaustive cross-check over a small prime field")
    p.add_argument("--field", type=int, default=2, choices=[2, 3])
    p.add_argument("--max-n", dest="max_n", type=int, default=3)
    p.add_argument("--max-m", dest="max_m", type=int, default=2)
    p.add_argument("--bound", type=int, default=1_000_000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (RingsysError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A built-in exception escaping a command is a failure of this
        # package that no input should reach; it exits 2 like any other
        # error, so that exit 1 keeps meaning "false" or "Reject".
        # Exceptions of other types (an embedding caller's alarm, say)
        # pass through untouched.
        if type(exc).__module__ != "builtins":
            raise
        detail = " ".join(str(exc).split())
        print(f"error: internal failure ({type(exc).__name__}: {detail})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
