"""Per-layer tracing of ringsys from outside the package.

``Tracer.install`` rebinds the public functions of each layer, in every
``ringsys.*`` module namespace that holds them, with wrappers that
record a span (name, parent span, operation id, start, end) and
accumulate call counts and self time; ``uninstall`` puts the originals
back.  Nothing under ``src/`` changes.  The hot scalar and matrix
calls (``RingDescriptor.element``, ``PolyQuotient.reduce``,
``RingMatrix.__matmul__`` and ``RingMatrix.from_rows``) are counted
and timed without span records, which would otherwise number in the
millions.  Self time is a call's duration minus the time of the traced
calls made inside it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# Functions recorded as spans, by layer module.
SPANS = {
    "linalg": ("rref", "column_canonical", "solve_right", "membership", "kernel_basis", "cokernel_structure"),
    "systems": ("from_pair",),
    "invariants": ("compute_chain", "z_signature", "canonical_certificate"),
    "equivalence": ("feedback_equivalent", "dynamic_equivalent", "verify_certificate"),
    "sysfile": ("parse",),
}
COMMANDS = ("equiv", "canon", "invariants", "k0", "verify")

# Per-layer metrics reported by a traced run: name -> unit.
METRICS = {
    "rings.element.calls": "count",
    "rings.reduce.calls": "count",
    "rings.reduce.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.from_rows.self_s": "s",
    "linalg.column_canonical.calls": "count",
    "linalg.column_canonical.self_s": "s",
    "linalg.solve_right.calls": "count",
    "linalg.solve_right.self_s": "s",
    "linalg.membership.calls": "count",
    "linalg.kernel_basis.self_s": "s",
    "linalg.cokernel_structure.self_s": "s",
    "linalg.max_entry_bits": "bits",
    "linalg.matmul.calls": "count",
    "linalg.matmul.self_s": "s",
    "systems.from_pair.calls": "count",
    "systems.from_pair.self_s": "s",
    "invariants.compute_chain.calls": "count",
    "invariants.compute_chain.self_s": "s",
    "invariants.chain_steps": "count",
    "invariants.z_signature.calls": "count",
    "invariants.canonical_certificate.self_s": "s",
    "equivalence.feedback_equivalent.calls": "count",
    "equivalence.dynamic_equivalent.self_s": "s",
    "equivalence.verify_certificate.self_s": "s",
    "sysfile.parse.self_s": "s",
    "sysfile.parse.bytes": "bytes",
    **{f"cli.{c}.{stat}": unit for c in COMMANDS for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "trace.overhead_ratio": "ratio",
}


def _entry_bits(v) -> int:
    if isinstance(v, int):
        return abs(v).bit_length()
    if isinstance(v, Fraction):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    return 0


class Tracer:
    def __init__(self):
        self.op = None  # id of the operation running now
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.totals: Counter = Counter()  # chain steps, parsed bytes
        self.max_bits = 0
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start, end)
        self._stack: list[list] = []  # per active call: [child seconds, span id]
        self._next_id = 0
        self._undo: list[tuple] = []

    def _timed(self, name, fn, record, after=None):
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[0]
                if record:
                    self.spans.append((frame[1], parent, self.op, name, start, end))
                if ok and after is not None:
                    after(args, result)
                if stack:
                    # bookkeeping and hooks count as the child's, not the parent's
                    stack[-1][0] += clock() - start

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bits_of(self, args, result):
        if result is not None:
            self.max_bits = max(self.max_bits, max(map(_entry_bits, result.entries), default=0))

    def _chain(self, args, report):
        self.totals["invariants.chain_steps"] += report.s

    def _parsed(self, args, result):
        self.totals["sysfile.parse.bytes"] += os.path.getsize(args[0])

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from ringsys import cli, linalg, rings

        modules = [m for k, m in sys.modules.items() if k == "ringsys" or k.startswith("ringsys.")]
        hooks = {
            "linalg.column_canonical": self._bits_of,
            "linalg.solve_right": self._bits_of,
            "linalg.kernel_basis": self._bits_of,
            "invariants.compute_chain": self._chain,
            "sysfile.parse": self._parsed,
        }
        for layer, names in SPANS.items():
            home = sys.modules[f"ringsys.{layer}"]
            for fname in names:
                orig = home.__dict__[fname]
                name = f"{layer}.{fname}"
                wrapped = self._timed(name, orig, True, hooks.get(name))
                for mod in modules:
                    if mod.__dict__.get(fname) is orig:
                        self._rebind(mod, fname, wrapped)
        for command in COMMANDS:
            fname = f"_cmd_{command}"
            self._rebind(cli, fname, self._timed(f"cli.{command}", cli.__dict__[fname], True))
        matrix = linalg.RingMatrix
        self._rebind(matrix, "__matmul__", self._timed("linalg.matmul", matrix.__matmul__, False))
        from_rows = matrix.__dict__["from_rows"].__func__
        self._rebind(matrix, "from_rows", staticmethod(self._timed("linalg.from_rows", from_rows, False)))
        self._rebind(rings.PolyQuotient, "reduce", self._timed("rings.reduce", rings.PolyQuotient.reduce, False))
        self._rebind(rings.RingDescriptor, "element", self._counted("rings.element", rings.RingDescriptor.element))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric of ``METRICS`` as {name: {value, unit}}."""
        out = {}
        for name, unit in METRICS.items():
            base, _, stat = name.rpartition(".")
            if stat == "calls":
                value = self.calls[base]
            elif stat == "self_s":
                value = self.self_s[base]
            elif name == "linalg.max_entry_bits":
                value = self.max_bits
            elif name == "trace.overhead_ratio":
                value = overhead_ratio
            else:
                value = self.totals[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent id, op id, name, start and
        duration in seconds, starts relative to the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in sorted(self.spans):
                fh.write(json.dumps([sid, parent, op, name, round(start - t0, 7), round(end - start, 7)]) + "\n")
