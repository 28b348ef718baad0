"""Known-answer input generator for the ringsys benchmark.

Every input is built from a seed by acting with random invertible
transformations on systems whose answers are known in closed form, so
each operation carries its expected exit code and output.  The
generator does its own exact arithmetic (Fraction, residues mod p,
integers and the sphere quotient ring Q[x,y,z]/(x^2+y^2+z^2-1)) and
imports nothing from ringsys, so the expected answers do not depend on
the code under test.  The program only ever sees the system files
written here.

    python3 bench/gen.py --workload field_decide --seed 1 --out /tmp/in

writes the system files and an ``ops.json`` listing every operation
with its expectation.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

RUNGS = ("small", "mid", "large")


# ---------------------------------------------------------------------------
# Scalar rings.  Each ring has a file descriptor, the ring's name as the
# CLI prints it, arithmetic on payloads and literal formatting; the fields
# also invert and parse, for checking canonical forms.


class Rationals:
    descriptor = {"kind": "Q"}
    name = "Q"
    zero, one = Fraction(0), Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return None if a == 0 else 1 / a

    def of(self, n):
        return Fraction(n)

    def fmt(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        return Fraction(text)


class PrimeField:
    def __init__(self, p: int):
        self.p = p
        self.descriptor = {"kind": "GF", "p": p}
        self.name = f"GF({p})"
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return None if a % self.p == 0 else pow(a, self.p - 2, self.p)

    def of(self, n):
        return n % self.p

    def fmt(self, a) -> str:
        return str(a % self.p)

    def parse(self, text: str):
        return int(text) % self.p


class Integers:
    descriptor = {"kind": "Z"}
    name = "Z"
    zero, one = 0, 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def of(self, n):
        return n

    def fmt(self, a) -> str:
        return str(a)


class Sphere:
    """Q[x,y,z]/(x^2+y^2+z^2-1); payloads are {(a,b,c): Fraction} with
    z-degree at most 1, the normal form under z^2 -> 1 - x^2 - y^2."""

    descriptor = {"kind": "poly_quotient", "vars": ["x", "y", "z"], "relation": "x^2 + y^2 + z^2 - 1"}
    name = "Q[x,y,z]/(z^2 + y^2 + x^2 - 1)"
    zero: dict = {}
    one = {(0, 0, 0): Fraction(1)}
    _Z2 = (((0, 0, 0), 1), ((2, 0, 0), -1), ((0, 2, 0), -1))

    def _normal(self, terms):
        out: dict = {}
        work = list(terms)
        while work:
            (a, b, c), k = work.pop()
            if c >= 2:
                work.extend(((a + da, b + db, c - 2), k * s) for (da, db, _), s in self._Z2)
            else:
                out[(a, b, c)] = out.get((a, b, c), 0) + k
        return {m: k for m, k in out.items() if k}

    def add(self, a, b):
        return self._normal(list(a.items()) + list(b.items()))

    def mul(self, a, b):
        return self._normal(
            ((m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2]), k1 * k2)
            for m1, k1 in a.items()
            for m2, k2 in b.items()
        )

    def neg(self, a):
        return {m: -k for m, k in a.items()}

    def var(self, i: int):
        return {tuple(int(j == i) for j in range(3)): Fraction(1)}

    def fmt(self, a) -> str:
        if not a:
            return "0"
        pieces = []
        for mono in sorted(a, key=lambda m: (sum(m), m[::-1]), reverse=True):
            k = a[mono]
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", mono) if e]
            body = "*".join(([str(abs(k))] if abs(k) != 1 or not factors else []) + factors)
            sign = "-" if k < 0 else "+"
            pieces.append(f"{sign} {body}")
        text = " ".join(pieces)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


Q, GF101, Z, SPHERE = Rationals(), PrimeField(101), Integers(), Sphere()


# ---------------------------------------------------------------------------
# Dense matrices as lists of rows of payloads.


def zeros(R, r, c):
    return [[R.zero] * c for _ in range(r)]


def identity(R, n):
    return [[R.one if i == j else R.zero for j in range(n)] for i in range(n)]


def matmul(R, a, b):
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc = R.zero
            for k, x in enumerate(row):
                if x != R.zero and b[k][j] != R.zero:
                    acc = R.add(acc, R.mul(x, b[k][j]))
            new.append(acc)
        out.append(new)
    return out


def matadd(R, a, b):
    return [[R.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def block_diag(R, a, b):
    ca = len(a[0]) if a else 0
    cb = len(b[0]) if b else 0
    return [row + [R.zero] * cb for row in a] + [[R.zero] * ca + row for row in b]


def unit_lower_inverse(R, low):
    """Inverse of a unit lower-triangular matrix by forward substitution."""
    n = len(low)
    x = zeros(R, n, n)
    for i in range(n):
        for j in range(i + 1):
            acc = R.one if i == j else R.zero
            for k in range(j, i):
                if low[i][k] != R.zero and x[k][j] != R.zero:
                    acc = R.add(acc, R.neg(R.mul(low[i][k], x[k][j])))
            x[i][j] = acc
    return x


def rand_unimodular(R, n, rng, span=1):
    """(M, M^-1) for M = L U P with unit triangular L, U and a permutation:
    invertible over every ring here, the integers included."""
    low = [[R.one if i == j else (R.of(rng.randint(-span, span)) if i > j else R.zero) for j in range(n)] for i in range(n)]
    up_t = [[R.one if i == j else (R.of(rng.randint(-span, span)) if i > j else R.zero) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[R.one if perm[i] == j else R.zero for j in range(n)] for i in range(n)]
    up = transpose(up_t)
    m = matmul(R, matmul(R, low, up), pm)
    up_inv = transpose(unit_lower_inverse(R, up_t))
    m_inv = matmul(R, matmul(R, transpose(pm), up_inv), unit_lower_inverse(R, low))
    assert matmul(R, m, m_inv) == identity(R, n)
    return m, m_inv


def rand_matrix(R, r, c, rng, span=2):
    return [[R.of(rng.randint(-span, span)) for _ in range(c)] for _ in range(r)]


def field_invertible(R, a) -> bool:
    """Whether a square matrix over a field is invertible (Gauss)."""
    m = [row[:] for row in a]
    n = len(m)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != R.zero), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        inv = R.inv(m[col][col])
        for i in range(col + 1, n):
            f = R.mul(m[i][col], inv)
            if f != R.zero:
                m[i] = [R.add(x, R.neg(R.mul(f, y))) for x, y in zip(m[i], m[col])]
    return True


def fmt_matrix(R, a):
    return [[R.fmt(x) for x in row] for row in a]


# ---------------------------------------------------------------------------
# Closed-form answers.


def canonical_pair(R, parts, m):
    """Brunovsky shift pair for a partition, input padded to m columns."""
    n = sum(parts)
    a, b = zeros(R, n, n), zeros(R, n, m)
    off = 0
    for j, k in enumerate(parts):
        for l in range(k - 1):
            a[off + l + 1][off + l] = R.one
        b[off][j] = R.one
        off += k
    return a, b


def signature(parts):
    """Z-layer ranks: entry i counts the chains of length exactly i."""
    if not parts:
        return []
    return [sum(1 for k in parts if k == i) for i in range(1, max(parts) + 1)]


def partitions(n, max_parts):
    out = []

    def rec(left, largest, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        if len(acc) == max_parts:
            return
        for k in range(min(left, largest), 0, -1):
            rec(left - k, k, acc + [k])

    rec(n, n, [])
    return out


def invariant_factors(orders):
    """Invariant factors (> 1, each dividing the next) of a direct sum of
    cyclic groups of the given orders."""
    d = sorted(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return [x for x in d if x > 1]


def chain_report(n, parts, scales=None):
    """Expected ``invariants --json`` fields of a system feedback-equivalent
    to the canonical pair of ``parts`` whose j-th input column is scaled
    by ``scales[j]``, plus ``n - sum(parts)`` unreachable state
    coordinates."""
    scales = scales or [1] * len(parts)
    s = max(parts, default=0)
    dims = [sum(min(i, k) for k in parts) for i in range(s + 1)]
    torsion = lambda i: invariant_factors([d for d, k in zip(scales, parts) for _ in range(min(i, k)) if d > 1])
    group = lambda rank, tor=(): {"free_rank": rank, "torsion": list(tor)}
    reachable = dims[-1] == n and all(d == 1 for d in scales)
    return {
        "state_rank": n,
        "chain_dims": dims,
        "s": s,
        "M": [group(n - dims[i], torsion(i)) for i in range(1, s + 1)],
        "I": [group(sum(1 for k in parts if k >= i)) for i in range(1, s + 1)],
        "Z": [group(sum(1 for k in parts if k == i)) for i in range(1, s + 1)],
        "reachable": reachable,
        "locally_brunovsky": reachable,
        "z_signature": signature(parts) if reachable else None,
    }


def feedback_action(R, a, b, rng, span=1):
    """Random (P, K, Q) applied to a pair: (P (A + B K) P^-1, P B Q)."""
    n, m = len(a), len(b[0])
    p, p_inv = rand_unimodular(R, n, rng, span)
    q, _ = rand_unimodular(R, m, rng, span)
    k = rand_matrix(R, m, n, rng, span)
    a2 = matmul(R, matmul(R, p, matadd(R, a, matmul(R, b, k))), p_inv)
    return a2, matmul(R, matmul(R, p, b), q)


# ---------------------------------------------------------------------------
# System files and operations.


class Inputs:
    """Accumulates system files under ``out`` and the operation list."""

    def __init__(self, out: Path):
        self.out = out
        self.ops: list[dict] = []
        out.mkdir(parents=True, exist_ok=True)

    def write_file(self, name, R, systems, certificates=None):
        doc = {
            "ring": R.descriptor,
            "systems": {
                k: {"n": len(a), "endo": fmt_matrix(R, a), "input_gens": fmt_matrix(R, b)}
                for k, (a, b) in systems.items()
            },
        }
        if certificates:
            doc["certificates"] = certificates
        path = self.out / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return path.name

    def op(self, rung, ring, args, rc, **expect):
        self.ops.append({"rung": rung, "ring": ring, "args": args, "rc": rc, **expect})


def _rotate(choices, g, k):
    """k consecutive entries of choices, starting one further along for
    each group g.  Which partitions a group uses is fixed, and only the
    matrices depend on the seed, because the cost of an operation depends
    strongly on the partition."""
    return [choices[(g + 1 + i) % len(choices)] for i in range(k)]


def _equiv_doc(mode, left, right, verdict, sig_l, sig_r):
    return {
        "command": "equiv",
        "mode": mode,
        "left": left,
        "right": right,
        "equivalent": verdict,
        "left_signature": sig_l,
        "right_signature": sig_r,
    }


# field_decide: (state rank n, groups per ring) per rung; m alternates 2, 3.
FIELD_RUNGS = {"small": (3, 5), "mid": (5, 2), "large": (6, 1)}
# A dynamic non-equivalence runs the signature test for every p up to
# --p-max; 2 keeps it within a few times the cost of a feedback decision.
P_MAX = {"feedback": [], "dynamic": ["--p-max", "2"], "stable": []}


def field_decide(inp: Inputs, rng: random.Random) -> None:
    for R in (Q, GF101):
        for rung, (n, groups) in FIELD_RUNGS.items():
            for g in range(groups):
                m = 2 + g % 2
                p1, p2 = _rotate(partitions(n, m), g, 2)
                a1, b1 = canonical_pair(R, p1, m)
                a2, b2 = canonical_pair(R, p2, m)
                systems = {
                    "S": feedback_action(R, a1, b1, rng),
                    "S2": feedback_action(R, a1, b1, rng),
                    "T": feedback_action(R, a2, b2, rng),
                }
                f = inp.write_file(f"fd-{R.descriptor['kind']}-{rung}-{g}", R, systems)
                s1, s2 = signature(p1), signature(p2)
                for mode in ("feedback", "dynamic", "stable"):
                    for right, sig, verdict in (("S2", s1, True), ("T", s2, False)):
                        inp.op(
                            rung,
                            R.name,
                            ["equiv", f, "S", right, "--mode", mode, "--json"] + P_MAX[mode],
                            0 if verdict else 1,
                            doc=_equiv_doc(mode, "S", right, verdict, s1, sig),
                        )
                for name, parts in (("S", p1), ("T", p2)):
                    ac, bc = canonical_pair(R, parts, m)
                    inp.op(
                        rung,
                        R.name,
                        ["canon", f, name, "--json"],
                        0,
                        canon={
                            "indices": list(parts),
                            "canonical_endo": fmt_matrix(R, ac),
                            "canonical_input": fmt_matrix(R, bc),
                            "pair": [fmt_matrix(R, x) for x in systems[name]],
                        },
                    )


# int_invariants: (state rank n, groups) per rung.
# Integer cost depends more and more on the seed as n grows: at n = 12 the
# same operations took 11.4 to 15.9 ops/s across five seeds, and from
# n = 14 on a single operation takes from under a second to minutes.  The
# ladder stops at 10, where many cases average the seed out.
INT_RUNGS = {"small": (5, 5), "mid": (8, 4), "large": (10, 10)}
NOT_LB = "signature classifies locally Brunovsky systems only"


def int_invariants(inp: Inputs, rng: random.Random) -> None:
    R = Z
    for rung, (n, groups) in INT_RUNGS.items():
        for g in range(groups):
            m = 2 + g % 2
            p1, p2, pw = _rotate(partitions(n, m), g, 3)
            # Torsion: scale one input generator of a reachable pattern.
            scales = [1] * len(pw)
            scales[g % len(pw)] = (2, 3, 4)[g % 3]
            # Unreachable: a canonical part plus u free-running coordinates.
            u = 1 + g % 2
            (pu,) = _rotate(partitions(n - u, m), g, 1)
            a1, b1 = canonical_pair(R, p1, m)
            a2, b2 = canonical_pair(R, p2, m)
            aw, bw = canonical_pair(R, pw, m)
            bw = [[x * scales[j] if j < len(scales) else x for j, x in enumerate(row)] for row in bw]
            au, bu = canonical_pair(R, pu, m)
            au = block_diag(R, au, rand_matrix(R, u, u, rng, 1))
            bu = bu + zeros(R, u, m)
            systems = {
                "S": feedback_action(R, a1, b1, rng),
                "S2": feedback_action(R, a1, b1, rng),
                "T": feedback_action(R, a2, b2, rng),
                "W": feedback_action(R, aw, bw, rng),
                "U": feedback_action(R, au, bu, rng),
            }
            f = inp.write_file(f"ii-{rung}-{g}", R, systems)
            reports = {
                "S": chain_report(n, p1),
                "T": chain_report(n, p2),
                "W": chain_report(n, pw, scales),
                "U": chain_report(n, pu),
            }
            for name, rep in reports.items():
                doc = {"command": "invariants", "system": name, "ring": R.name, **rep}
                inp.op(rung, R.name, ["invariants", f, name, "--json"], 0, doc=doc)
            s1, s2 = signature(p1), signature(p2)
            inp.op(rung, R.name, ["equiv", f, "S", "S2", "--json"], 0,
                   doc=_equiv_doc("feedback", "S", "S2", True, s1, s1))
            inp.op(rung, R.name, ["equiv", f, "S", "T", "--json"], 1,
                   doc=_equiv_doc("feedback", "S", "T", False, s1, s2))
            inp.op(rung, R.name, ["equiv", f, "S", "U", "--json"], 2, stderr=NOT_LB)
            inp.op(rung, R.name, ["k0", f, "S2", "--json"], 0,
                   doc={"command": "k0", "system": "S2", "k0_class": s1})
            inp.op(rung, R.name, ["k0", f, "W", "--json"], 2, stderr=NOT_LB)


# cert_verify, per rung: (state rank, cases) for each of Q, Z and GF(101),
# then (copies, cases) for the sphere ring, whose certificates are direct
# sums of copies of the 5-dimensional fixture certificates.
CERT_RUNGS = {"small": (6, 4, 1, 4), "mid": (12, 2, 2, 2), "large": (18, 1, 3, 1)}


def _sphere_fixture():
    """The two enlargement certificates of the packaged sphere fixture:
    (source pair, target pair, (phi, psi, U, V, Kw))."""
    R = SPHERE
    x, y, z = (R.var(i) for i in range(3))
    o, O, neg = R.one, R.zero, R.neg
    shift_src = [[O] * 5 for _ in range(4)] + [[O, o, O, O, O]]
    shift_tgt = [[O] * 5 for _ in range(4)] + [[O, x, y, z, O]]
    g_main = [[o, O, O], [O, x, O], [O, y, O], [O, z, O], [O, O, o]]
    g_lb = [[o, O, O, O], [O, o, O, O], [O, O, o, O], [O, O, O, o], [O, O, O, O]]
    phi = identity(R, 5)
    psi = identity(R, 5)
    for i, v in ((1, x), (2, y), (3, z)):
        phi[i][0], psi[i][0] = v, neg(v)
    main = (
        (shift_src, g_main),
        (shift_tgt, g_main),
        (phi, psi, [[o, O, O], [o, o, O], [O, O, o]], [[o, O, O], [neg(o), o, O], [O, O, o]],
         [[O] * 5, [O] * 5, [o, R.add(x, neg(o)), y, z, O]]),
    )
    a4 = [[x, O, y, z], [O, x, z, neg(y)], [neg(z), y, O, x], [y, z, neg(x), O]]
    a4t = transpose(a4)
    orth = (
        (shift_src, g_lb),
        (shift_tgt, g_lb),
        ([r + [O] for r in a4] + [[O, O, O, O, o]], [r + [O] for r in a4t] + [[O, O, O, O, o]],
         a4, a4t, zeros(R, 4, 5)),
    )
    return main, orth


def _sphere_conjugator(rng, n):
    """Unit lower-triangular state map whose strictly lower part maps the
    first half of the coordinates into the second, so its inverse stays
    linear.  Each of those entries is a sum of two of 1, x, y, z with
    signs, which keeps the cost of a case nearly independent of the seed."""
    R = SPHERE
    h = n // 2
    low = identity(R, n)
    monos = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    for i in range(h, n):
        for j in range(h):
            low[i][j] = {m: Fraction(rng.choice((-1, 1))) for m in rng.sample(monos, 2)}
    return low


def _sphere_case(rng, copies, case):
    R = SPHERE
    main, orth = _sphere_fixture()
    pick = [main if (c + case) % 2 else orth for c in range(copies)]
    (a1, g1), (a2, g2), cert = pick[0]
    for (b1, h1), (b2, h2), c2 in pick[1:]:
        a1, g1 = block_diag(R, a1, b1), block_diag(R, g1, h1)
        a2, g2 = block_diag(R, a2, b2), block_diag(R, g2, h2)
        cert = tuple(block_diag(R, x, y) for x, y in zip(cert, c2))
    n = len(a1)
    l1, l2 = _sphere_conjugator(rng, n), _sphere_conjugator(rng, n)
    l1i, l2i = unit_lower_inverse(R, l1), unit_lower_inverse(R, l2)
    assert matmul(R, l1, l1i) == identity(R, n) and matmul(R, l2, l2i) == identity(R, n)
    phi, psi, u, v, kw = cert
    src = (matmul(R, matmul(R, l1, a1), l1i), matmul(R, l1, g1))
    tgt = (matmul(R, matmul(R, l2, a2), l2i), matmul(R, l2, g2))
    cert = (
        matmul(R, matmul(R, l2, phi), l1i),
        matmul(R, matmul(R, l1, psi), l2i),
        u,
        v,
        matmul(R, kw, l1i),
    )
    return src, tgt, cert


def _linear_case(R, rng, n, m):
    """Pairs (A1, [I; C1]) and (A2, [I; C2]) whose input matrices are
    already in the program's canonical column form, with the certificate
    phi = [[U, 0], [X, Y]], psi = phi^-1, U, V = U^-1, Kw = U K."""
    a1 = rand_matrix(R, n, n, rng)
    c1 = rand_matrix(R, n - m, m, rng)
    u, u_inv = rand_unimodular(R, m, rng)
    y, y_inv = rand_unimodular(R, n - m, rng)
    x = rand_matrix(R, n - m, m, rng)
    phi = block_diag(R, u, y)
    for i in range(n - m):
        phi[m + i][:m] = x[i]
    # phi^-1 = [[U^-1, 0], [-Y^-1 X U^-1, Y^-1]]
    psi = block_diag(R, u_inv, y_inv)
    corner = matmul(R, matmul(R, y_inv, x), u_inv)
    for i in range(n - m):
        psi[m + i][:m] = [R.neg(v) for v in corner[i]]
    assert matmul(R, phi, psi) == identity(R, n)
    c2 = matmul(R, matadd(R, x, matmul(R, y, c1)), u_inv)
    g1, g2 = identity(R, m) + c1, identity(R, m) + c2
    k = rand_matrix(R, m, n, rng)
    a2 = matmul(R, matmul(R, phi, matadd(R, a1, matmul(R, g1, k))), psi)
    return (a1, g1), (a2, g2), (phi, psi, u, u_inv, matmul(R, u, k))


def cert_verify(inp: Inputs, rng: random.Random) -> None:
    names = ("phi", "psi", "U", "V", "Kw")
    for rung, (n, n_cases, copies, sphere_cases) in CERT_RUNGS.items():
        cases = [(R, _linear_case(R, rng, n, 2 + c % 2)) for c in range(n_cases) for R in (Q, Z, GF101)]
        cases += [(SPHERE, _sphere_case(rng, copies, c)) for c in range(sphere_cases)]
        for case, (R, (src, tgt, cert)) in enumerate(cases):
            certs = {}
            for label, which, reason in (
                ("ok", None, None),
                ("bad_inverse", "psi", "inverse"),
                ("bad_U", "U", "U-identity"),
                ("bad_Kw", "Kw", "Kw-identity"),
            ):
                mats = {k: [row[:] for row in v] for k, v in zip(names, cert)}
                if which:
                    mat = mats[which]
                    i, j = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
                    mat[i][j] = R.add(mat[i][j], R.one)
                certs[label] = {"source": "S", "target": "T", **{k: fmt_matrix(R, v) for k, v in mats.items()}}
                doc = {
                    "command": "verify",
                    "certificate": label,
                    "source": "S",
                    "target": "T",
                    "verdict": "Reject" if reason else "Accept",
                    "reason": reason,
                }
                inp.op(rung, R.name, ["verify", None, label, "--json"], 1 if reason else 0, doc=doc)
            f = inp.write_file(f"cv-{rung}-{case}", R, {"S": src, "T": tgt}, certs)
            for op in inp.ops[-4:]:
                op["args"][1] = f


BUILDERS = {"field_decide": field_decide, "int_invariants": int_invariants, "cert_verify": cert_verify}


def generate(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the inputs of one workload under ``out``; return its ops, each
    with ``args`` relative to ``out``, the expected exit code ``rc`` and
    an expected ``doc`` (exact --json output), ``canon`` data or
    ``stderr`` text."""
    rng = random.Random(f"{workload}:{seed}")
    inp = Inputs(out)
    BUILDERS[workload](inp, rng)
    rng.shuffle(inp.ops)
    for i, op in enumerate(inp.ops):
        op["id"] = i
    return inp.ops


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    ops = generate(args.workload, args.seed, args.out)
    (args.out / "ops.json").write_text(json.dumps(ops, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(ops)} ops to {args.out}")


if __name__ == "__main__":
    main()
