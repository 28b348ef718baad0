"""Shared random generators and oracles for the test suite."""

from __future__ import annotations

import copy
import json
import re
from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from ringsys import (
    AbelianGroupStructure,
    CanonicalCertificate,
    DescriptorMismatch,
    ElementSyntaxError,
    Integers,
    InvariantReport,
    IsoCertificate,
    NotReachable,
    Poly,
    PolyQuotient,
    PrimeField,
    Rationals,
    RingMatrix,
    ShapeError,
    UnsupportedRing,
    VerifyResult,
    canonical_pair,
    column_canonical,
    from_pair,
    identity_certificate,
    invert,
    kernel_basis,
    membership,
    rref,
    solve_right,
)
from ringsys.linalg import _hnf_int, _snf_int
from ringsys.rings import MAX_COEFF_BITS, MAX_DEGREE, descriptor_from_dict, grlex_key
from ringsys.sysfile import CertEntry, SystemFile, emit


def rand_matrix(ring, rows, cols, rng, span=3):
    data = [[ring.canonical_payload(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)]
    return RingMatrix.from_rows(ring, data, cols=cols)


def rand_invertible(ring, n, rng, span=2):
    """Unit triangular factors times a permutation: invertible over any
    of the supported rings, integers included."""
    low = [
        [ring.one() if i == j else (ring.canonical_payload(rng.randint(-span, span)) if i > j else ring.zero()) for j in range(n)]
        for i in range(n)
    ]
    up = [
        [ring.one() if i == j else (ring.canonical_payload(rng.randint(-span, span)) if i < j else ring.zero()) for j in range(n)]
        for i in range(n)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[ring.one() if perm[i] == j else ring.zero() for j in range(n)] for i in range(n)]
    return (
        RingMatrix.from_rows(ring, low, cols=n)
        @ RingMatrix.from_rows(ring, up, cols=n)
        @ RingMatrix.from_rows(ring, pm, cols=n)
    )


def rand_partition(rng, n):
    parts = []
    left = n
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    return tuple(sorted(parts, reverse=True))


def rand_system(ring, rng, n_max=4, span=3):
    n = rng.randint(0, n_max)
    m = rng.randint(0, n)
    return from_pair(rand_matrix(ring, n, n, rng, span), rand_matrix(ring, n, m, rng, span))


def rand_locally_brunovsky_pair(ring, rng, n, extra_cols=0):
    """A reachable pair feedback-equivalent to a random canonical one,
    obtained by acting with a random invertible/feedback triple."""
    parts = rand_partition(rng, n)
    a_c, b_c = canonical_pair(ring, parts)
    m = b_c.cols + extra_cols
    b_full = b_c.hstack(RingMatrix.zeros(ring, n, extra_cols))
    p = rand_invertible(ring, n, rng)
    k = rand_matrix(ring, m, n, rng, span=2)
    q = rand_invertible(ring, m, rng)
    a = p @ (a_c + b_full @ k) @ _inverse(p)
    b = p @ b_full @ q
    return parts, a, b


def _inverse(m):
    # Two-sided inverse over a field or over Z, or None.
    if isinstance(m.ring, Integers):
        return solve_right(m, RingMatrix.identity(m.ring, m.rows))
    return invert(m)


def certificate_from_action(a1, b1, p, k, q):
    """Apply the feedback action (P, K, Q) to a pair and package the
    isomorphism it induces as a checkable certificate: the systems
    (A1, B1) and (P(A1 + B1 K)P^-1, P B1 Q) with their IsoCertificate."""
    p_inv = _inverse(p)
    if p_inv is None:
        raise ValueError("P is not invertible over the ring")
    if _inverse(q) is None:
        raise ValueError("Q is not invertible over the ring")
    a2 = p @ (a1 + b1 @ k) @ p_inv
    b2 = p @ b1 @ q
    s1 = from_pair(a1, b1)
    s2 = from_pair(a2, b2)
    g1, g2 = s1.input_gens, s2.input_gens
    u = solve_right(g2, p @ g1)
    v = solve_right(p @ g1, g2)
    kw = solve_right(g2, s2.endo @ p - p @ s1.endo)
    if u is None or v is None or kw is None:
        raise RuntimeError("action certificate witnesses failed to solve")
    return s1, s2, IsoCertificate(p, p_inv, u, v, kw)


def hnf(m):
    """Row Hermite normal form (H, U) of an integer matrix, U @ m = H
    with U unimodular: ``_hnf_int`` with an identity riding along."""
    assert isinstance(m.ring, Integers)
    h, _ = _hnf_int(m.hstack(RingMatrix.identity(m.ring, m.rows)).to_lists(), m.cols)
    return (
        RingMatrix.from_rows(m.ring, [row[: m.cols] for row in h], cols=m.cols),
        RingMatrix.from_rows(m.ring, [row[m.cols :] for row in h], cols=m.rows),
    )


def column_space_sum(a, b):
    """Canonical generators of col(a) + col(b)."""
    return column_canonical(a.hstack(b))


def column_rank(m):
    """Rank of the column span (lattice rank over the integers)."""
    return column_canonical(m).cols


def reference_snf_int(mat, nrows, ncols):
    """``_snf_int`` with a pivot search that always scans the whole
    remaining block for its first entry of least absolute value, the
    oracle for the search that stops at the first unit: D and every
    rider must come out the same."""
    a = [row[:] for row in mat]
    t = 0
    while t < min(nrows, ncols):
        best = None
        where = None
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    where = (i, j)
        if where is None:
            break
        i0, j0 = where
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        piv = a[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t] == 0:
                continue
            q = a[i][t] // piv
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if a[i][t] != 0:
                dirty = True
        for j in range(t + 1, ncols):
            if a[t][j] == 0:
                continue
            q = a[t][j] // piv
            if q:
                for row in a:
                    row[j] -= q * row[t]
            if a[t][j] != 0:
                dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, nrows):
            if any(x % piv for x in a[i][t + 1 : ncols]):
                offender = i
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return a


def reference_cokernel(g, n):
    """Z^n / col(g) from the Smith form alone, the oracle for
    ``cokernel_structure`` and every freeness decision taken without a
    Smith form."""
    d = _snf_int(g.to_lists(), g.rows, g.cols)
    nonzero = [x for x in (d[i][i] for i in range(min(g.rows, g.cols))) if x]
    return AbelianGroupStructure(n - len(nonzero), tuple(x for x in nonzero if x > 1))


def reference_integer_chain(sigma):
    """From-scratch chain, the reference for compute_chain over Z.

    Recanonicalises N_i = B + f(N_{i-1}) through column_space_sum at
    every step until it repeats; works over fields as well.
    """
    chain = [RingMatrix.zeros(sigma.ring, sigma.state_rank, 0)]
    while True:
        nxt = column_space_sum(sigma.input_gens, sigma.endo @ chain[-1])
        if nxt == chain[-1]:
            return tuple(chain)
        chain.append(nxt)


def reference_integer_report(sigma):
    """From-scratch invariant report over Z, the reference for compute_chain.

    Takes the chain from reference_integer_chain and builds every
    structure through the general solvers: relations and induced maps
    by solve_right, the lattice of generators mapping into the next
    layer's relations as the top of a kernel_basis, canonicalised by
    column_canonical, and every structure by reference_cokernel (a
    Smith form, never the saturation test).  The last layer maps to
    I_{s+1} = 0, written as N_s modulo itself.
    """
    ring, n = sigma.ring, sigma.state_rank
    chain = list(reference_integer_chain(sigma))
    s = len(chain) - 1
    m_structs = tuple(reference_cokernel(chain[i], n) for i in range(1, s + 1))
    rel = [None]
    for i in range(1, s + 1):
        x = solve_right(chain[i], chain[i - 1])
        assert x is not None, "chain is not increasing"
        rel.append(x)
    i_structs = tuple(reference_cokernel(rel[i], chain[i].cols) for i in range(1, s + 1))
    z_structs = []
    for i in range(1, s + 1):
        nxt = chain[i + 1] if i < s else chain[s]
        rel_next = rel[i + 1] if i < s else RingMatrix.identity(ring, chain[s].cols)
        f_mat = solve_right(nxt, sigma.endo @ chain[i])
        assert f_mat is not None, "f(N_i) escaped N_{i+1}"
        paired = kernel_basis(f_mat.hstack(-rel_next))
        d = chain[i].cols
        top = RingMatrix(ring, d, paired.cols, paired.entries[: d * paired.cols])
        preimage = column_canonical(top)
        y = solve_right(preimage, rel[i])
        assert y is not None, "relations escaped their preimage lattice"
        z_structs.append(reference_cokernel(y, preimage.cols))
    reachable = chain[s] == RingMatrix.identity(ring, n)
    structures = m_structs + i_structs + tuple(z_structs)
    return InvariantReport(
        ring=ring,
        state_rank=n,
        chain_dims=tuple(c.cols for c in chain),
        s=s,
        M=m_structs,
        I=i_structs,
        Z=tuple(z_structs),
        reachable=reachable,
        locally_brunovsky=reachable and all(st.is_free for st in structures),
    )


def reference_field_chain(sigma):
    """From-scratch chain over a field, the reference for compute_chain.

    Recanonicalises N_i = B + f(N_{i-1}) at every step and takes each
    Z_i as the kernel dimension of the induced map I_i -> I_{i+1},
    written in layer representatives through solve_right.  Returns
    (chain, s, I, Z, reachable).
    """
    ring, n = sigma.ring, sigma.state_rank
    chain = list(reference_integer_chain(sigma))
    s = len(chain) - 1
    reps = [[]]
    for i in range(1, s + 1):
        # columns of N_i independent modulo N_{i-1}
        layer, span = [], chain[i - 1]
        for col in chain[i].columns():
            if not membership(col, span):
                layer.append(col)
                span = column_space_sum(span, col)
        reps.append(layer)
    reps.append([])
    z_dims = []
    for i in range(1, s + 1):
        nxt = reps[i + 1]
        stacked = chain[i]
        for col in reversed(nxt):
            stacked = col.hstack(stacked)
        images = []
        for v in reps[i]:
            sol = solve_right(stacked, sigma.endo @ v)
            assert sol is not None, "f(N_i) escaped N_{i+1}"
            images.append([sol.entry(r, 0) for r in range(len(nxt))])
        rank = rref(RingMatrix.from_columns(ring, images, rows=len(nxt))).rank if nxt else 0
        z_dims.append(len(reps[i]) - rank)
    i_dims = tuple(len(reps[i]) for i in range(1, s + 1))
    return tuple(chain), s, i_dims, tuple(z_dims), chain[s].cols == n


def reference_field_report(sigma):
    """reference_field_chain as an InvariantReport: over a field every
    module is free, so locally Brunovsky means reachable."""
    chain, s, i_dims, z_dims, reachable = reference_field_chain(sigma)
    n = sigma.state_rank
    return InvariantReport(
        ring=sigma.ring,
        state_rank=n,
        chain_dims=tuple(c.cols for c in chain),
        s=s,
        M=tuple(n - c.cols for c in chain[1:]),
        I=i_dims,
        Z=z_dims,
        reachable=reachable,
        locally_brunovsky=reachable,
    )


def pad_family(report, kind, i):
    """Value of the M/I/Z family at index i, extended past stabilisation
    (M stays at its stable value, I and Z vanish)."""
    seq = getattr(report, kind)
    integral = isinstance(report.ring, Integers)
    if 1 <= i <= report.s:
        return seq[i - 1]
    if kind == "M":
        if seq:
            return seq[-1]
        stable = 0 if report.reachable else report.state_rank
        return AbelianGroupStructure(stable, ()) if integral else stable
    return AbelianGroupStructure(0, ()) if integral else 0


def combine_structures(a, b):
    """Direct sum of two module structures: dimensions add, and two
    abelian groups add free ranks and merge their torsion into canonical
    form through the Smith form of a diagonal relations matrix."""
    if not isinstance(a, AbelianGroupStructure):
        return a + b
    merged = a.torsion + b.torsion
    k = len(merged)
    d = _snf_int([[merged[i] if i == j else 0 for j in range(k)] for i in range(k)], k, k)
    return AbelianGroupStructure(a.free_rank + b.free_rank, tuple(d[i][i] for i in range(k) if d[i][i] > 1))


def minors_gcd_invariants(mat):
    """Determinantal-divisor oracle for Smith invariant factors on small
    integer matrices: d_k = gcd of k x k minors, factor_k = d_k/d_{k-1}."""
    import itertools
    import math

    n = len(mat)
    m = len(mat[0]) if n else 0
    factors = []
    prev = 1
    for k in range(1, min(n, m) + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(m), k):
                sub = [[mat[i][j] for j in cols] for i in rows]
                g = math.gcd(g, _det(sub))
        if g == 0:
            factors.append(0)
            prev = 0
        else:
            factors.append(g // prev)
            prev = g
    return factors


def _det(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def reference_reduce(ring, p):
    """Normal form of p modulo ring.relation by plain long division, the
    reference for PolyQuotient.reduce: after every rewrite it re-sorts
    all monomials and rewrites the largest multiple of the leading
    monomial, until none is left.  Every division goes through Fraction,
    so int coefficients stay exact."""
    lead_m, lead_c = ring.relation.leading()
    tail = ring.relation.terms[1:]
    coeffs = dict(p.terms)
    while True:
        target = None
        for m in sorted(coeffs, key=grlex_key, reverse=True):
            if all(a <= b for a, b in zip(lead_m, m)):
                target = m
                break
        if target is None:
            break
        c = coeffs.pop(target)
        shift = tuple(a - b for a, b in zip(target, lead_m))
        # target  ->  -(tail / lead_c) shifted by the quotient monomial
        for m, tc in tail:
            mm = tuple(a + b for a, b in zip(m, shift))
            s = coeffs.get(mm, Fraction(0)) - Fraction(c * tc) / lead_c
            if s:
                coeffs[mm] = s
            else:
                coeffs.pop(mm, None)
    return Poly.from_dict(p.nvars, coeffs)


def fold_dot(ring, xs, ys):
    """Sum of the products of paired payloads, folded through ring.add
    and ring.mul: the reference for every ring's products kernel."""
    acc = ring.zero()
    for x, y in zip(xs, ys):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


def reference_product(p, q):
    """Product of two polynomials term by term in Fraction arithmetic,
    the reference for the integer kernels of Poly and PolyQuotient."""
    coeffs = {}
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            m = tuple(a + b for a, b in zip(m1, m2))
            coeffs[m] = coeffs.get(m, Fraction(0)) + c1 * c2
    return Poly.from_dict(p.nvars, coeffs)


_REFERENCE_SCAN = re.compile(
    r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^])|\s+|(?P<bad>.)", re.DOTALL
)
_SIGNS = (("op", "+"), ("op", "-"))
_END = ("end", "")


def reference_parse_terms(text, variables):
    """Coefficient map of a polynomial literal from a finditer scan into
    (kind, text) tokens, the reference for rings._parse_terms: the same
    grammar, bounds and error messages, with its own checks."""

    def integer(digits):
        try:
            return int(digits)
        except ValueError as exc:
            raise ElementSyntaxError(f"integer literal of {len(digits)} digits is too long") from exc

    def check_bits(num, den):
        if max(num.bit_length(), den.bit_length()) > MAX_COEFF_BITS:
            raise ElementSyntaxError(f"coefficient over MAX_COEFF_BITS = {MAX_COEFF_BITS} bits")

    nvars = len(variables)
    index = {name: i for i, name in enumerate(variables)}
    tokens = []
    for m in _REFERENCE_SCAN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ElementSyntaxError(f"unexpected character at {text[m.start():].strip()[:10]!r}")
        if kind is not None:
            tokens.append((kind, m.group()))
    if not tokens:
        raise ElementSyntaxError("empty polynomial literal")
    tokens.append(_END)

    coeffs = {}
    i = 0
    while tokens[i] != _END:
        num, den = 1, 1
        while tokens[i] in _SIGNS:
            if tokens[i][1] == "-":
                num = -num
            i += 1
        if tokens[i] == _END:
            raise ElementSyntaxError("dangling sign")
        expo = [0] * nvars
        while True:
            kind, tok = tokens[i]
            i += 1
            if kind == "num":
                num *= integer(tok)
                if tokens[i] == ("op", "/") and tokens[i + 1][0] == "num":
                    d = integer(tokens[i + 1][1])
                    if d == 0:
                        raise ElementSyntaxError("zero denominator")
                    den *= d
                    i += 2
                check_bits(num, den)
            elif kind == "name":
                if tok not in index:
                    raise ElementSyntaxError(f"unknown variable {tok!r}")
                if tokens[i] == ("op", "^"):
                    if tokens[i + 1][0] != "num":
                        raise ElementSyntaxError("malformed exponent")
                    expo[index[tok]] += integer(tokens[i + 1][1])
                    i += 2
                else:
                    expo[index[tok]] += 1
            else:
                raise ElementSyntaxError(f"unexpected operator {tok!r}")
            if tokens[i] != ("op", "*"):
                break
            i += 1
            if tokens[i] == _END:
                raise ElementSyntaxError("dangling '*'")
        if tokens[i] != _END and tokens[i] not in _SIGNS:
            raise ElementSyntaxError(f"expected '+', '-' or end, found {tokens[i][1]!r}")
        if sum(expo) > MAX_DEGREE:
            raise ElementSyntaxError(f"monomial of total degree over MAX_DEGREE = {MAX_DEGREE}")
        mono = tuple(expo)
        coeff = Fraction(num, den)
        old = coeffs.get(mono)
        if old is not None:
            coeff = old + coeff
            check_bits(coeff.numerator, coeff.denominator)
        coeffs[mono] = coeff
    return coeffs


def reference_verify(s1, s2, cert):
    """Certificate check with both inverse products phi psi = I and
    psi phi = I, the reference for verify_certificate, which decides the
    inverse identity from phi psi alone."""
    if s1.ring != s2.ring:
        raise DescriptorMismatch("certificate endpoints live in different rings")
    n1, n2 = s1.state_rank, s2.state_rank
    g1, g2 = s1.input_gens, s2.input_gens

    def conform(m, rows, cols, name):
        if m.rows == rows and m.cols == cols:
            return m
        if not m.entries and rows * cols == 0:
            return RingMatrix.zeros(m.ring, rows, cols)
        raise ShapeError(f"{name} must be {rows}x{cols}, got {m.rows}x{m.cols}")

    cert = IsoCertificate(
        conform(cert.phi, n2, n1, "phi"),
        conform(cert.psi, n1, n2, "psi"),
        conform(cert.U, g2.cols, g1.cols, "U"),
        conform(cert.V, g1.cols, g2.cols, "V"),
        conform(cert.Kw, g2.cols, n1, "Kw"),
    )
    ring = s1.ring
    if cert.phi @ cert.psi != RingMatrix.identity(ring, n2) or cert.psi @ cert.phi != RingMatrix.identity(ring, n1):
        return VerifyResult(False, "inverse")
    mapped = cert.phi @ g1
    if mapped != g2 @ cert.U:
        return VerifyResult(False, "U-identity")
    if g2 != mapped @ cert.V:
        return VerifyResult(False, "V-identity")
    defect = s2.endo @ cert.phi - cert.phi @ s1.endo
    if defect != g2 @ cert.Kw:
        return VerifyResult(False, "Kw-identity")
    return VerifyResult(True)


def _reference_krylov_selection(a, b):
    """Level-major greedy selection from the columns of [B, AB, ...] by
    membership tests: the selected (column of b, level) pairs in order,
    and for each column of b the coordinates of its first dependent
    iterate over the columns selected so far, by solve_right, with the
    number selected so far."""
    ring, n = a.ring, a.rows
    selected, columns, rejections = [], [], {}
    span = RingMatrix.zeros(ring, n, 0)
    live, power, level = list(range(b.cols)), b, 0
    while live:
        kept = []
        for j in live:
            col = power.column(j)
            if not membership(col, span):
                selected.append((j, level))
                columns.append(col.entries)
                span = column_space_sum(span, col)
                kept.append(j)
                continue
            sol = solve_right(RingMatrix.from_columns(ring, columns, rows=n), col)
            assert sol is not None, "a member of the span has no coordinates"
            rejections[j] = (list(sol.entries), len(selected))
        live, power, level = kept, a @ power, level + 1
    return selected, rejections


def reference_canonical_certificate(a, b):
    """The canonical certificate by one solve_right per chain on the
    stacked reach matrix [B, AB, ...] and an inverted, permuted root
    block for Q, the reference for canonical_certificate, which reads
    the same triple from the rank staircase's selection and one
    inversion of the selected Krylov columns."""
    if not a.ring.is_field:
        raise UnsupportedRing("canonical certificates need a field")
    if a.rows != a.cols or b.rows != a.rows:
        raise ShapeError("expected an n x n endomorphism and an n-row input matrix")
    ring = a.ring
    n, m = a.rows, b.cols
    # Level-major greedy basis selection from the columns of [B, AB, ...];
    # mu[j] is the length of input column j's chain.
    selected, rejections = _reference_krylov_selection(a, b)
    if len(selected) < n:
        raise NotReachable("pair is not reachable")
    mu = Counter(j for j, _ in selected)

    chains = sorted((j for j in range(m) if mu[j] > 0), key=lambda j: (-mu[j], j))
    indices = tuple(mu[j] for j in chains)

    # Purified chain roots: strip components along still-growing chains
    # (basis members selected at the same level the chain died).
    v_columns: list[RingMatrix] = []
    k_values: list[RingMatrix] = []
    powers_b = [b]
    for _ in range(max(indices, default=0)):
        powers_b.append(a @ powers_b[-1])
    for j in chains:
        depth = mu[j]
        coeffs, upto = rejections[j]
        root = b.column(j)
        for k in range(upto):
            owner, lvl = selected[k]
            if lvl == depth:
                root = root - b.column(owner).scale(coeffs[k])
        # Solve A^depth root = sum_l A^l B u_l over the reach stack.
        target = root
        for _ in range(depth):
            target = a @ target
        stack = powers_b[0]
        for l in range(1, depth):
            stack = stack.hstack(powers_b[l])
        sol = solve_right(stack, target)
        if sol is None:
            raise RuntimeError("rejected iterate escaped the reachability span")
        u = [RingMatrix(ring, m, 1, sol.entries[l * m : (l + 1) * m]) for l in range(depth)]
        # v_{l+1} = A^{l+1} root - sum_t A^t B u_{depth-(l+1)+t}; the
        # closed loop then shifts v_l to v_{l+1} and kills the chain top.
        vec = root
        for l in range(depth):
            v_columns.append(vec)
            k_values.append(-u[depth - 1 - l])
            if l + 1 < depth:
                acc = root
                for _ in range(l + 1):
                    acc = a @ acc
                correction = RingMatrix.zeros(ring, n, 1)
                for t in range(l + 1):
                    correction = correction + (powers_b[t] @ u[depth - (l + 1) + t])
                vec = acc - correction

    v_mat = RingMatrix.zeros(ring, n, 0)
    for col in v_columns:
        v_mat = v_mat.hstack(col)
    if v_mat.cols != n:
        raise RuntimeError("straightened chain vectors do not fill the state module")
    if n == 0:
        v_mat = RingMatrix.identity(ring, 0)
    p = invert(v_mat)
    if p is None:
        raise RuntimeError("straightened chain vectors failed to form a basis")
    u_mat = RingMatrix.zeros(ring, m, 0)
    for col in k_values:
        u_mat = u_mat.hstack(col)
    k = u_mat @ p

    a_c, b_c = canonical_pair(ring, indices)
    b_c_padded = b_c.hstack(RingMatrix.zeros(ring, n, m - b_c.cols))

    # Column transform: root columns become the block units, all other
    # input columns are combinations of roots and get cleared.
    coords = p @ b
    offsets = []
    off = 0
    for kk in indices:
        offsets.append(off)
        off += kk
    r = len(indices)
    c_rows = [[coords.entry(o, j) for j in range(m)] for o in offsets]
    c_mat = RingMatrix._of_rows(ring, c_rows, m)
    others = [j for j in range(m) if j not in chains]
    perm = list(chains) + others
    pi_rows = [[ring.one() if perm[t] == i else ring.zero() for t in range(m)] for i in range(m)]
    pi = RingMatrix._of_rows(ring, pi_rows, m)
    cp = c_mat @ pi
    t_mat = RingMatrix._of_rows(ring, [[cp.entry(i, j) for j in range(r)] for i in range(r)], r)
    c_rest = RingMatrix._of_rows(ring, [[cp.entry(i, j) for j in range(r, m)] for i in range(r)], m - r)
    t_inv = invert(t_mat)
    if t_inv is None:
        raise RuntimeError("root coordinate block is singular")
    q_top = t_inv.hstack(-(t_inv @ c_rest))
    q_bottom = RingMatrix.zeros(ring, m - r, r).hstack(RingMatrix.identity(ring, m - r))
    q = pi @ q_top.vstack(q_bottom)

    closed = p @ (a + b @ k) @ v_mat
    if closed != a_c or (p @ b @ q) != b_c_padded:
        raise RuntimeError("canonical certificate failed internal verification")
    return CanonicalCertificate(p, k, q, a_c, b_c_padded, indices)


def reference_det_expansion(m):
    """Determinant by Laplace expansion organised as a subset DP, 2^n
    states, the reference for the Berkowitz determinant; reduction
    happens inside every ring multiplication, so it is exact in any
    commutative ring, zero divisors included."""
    ring = m.ring
    n = m.rows
    dp = {0: ring.one()}
    for i in range(n):
        ndp = {}
        for mask, val in dp.items():
            if ring.is_zero(val):
                continue
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                entry = m.entry(i, j)
                if ring.is_zero(entry):
                    continue
                below = bin(mask & (bit - 1)).count("1")
                term = ring.mul(val, entry)
                if (i + below) % 2:
                    term = ring.neg(term)
                nmask = mask | bit
                if nmask in ndp:
                    ndp[nmask] = ring.add(ndp[nmask], term)
                else:
                    ndp[nmask] = term
        dp = ndp
    full = (1 << n) - 1
    return dp.get(full, ring.zero())


def reference_gauss_jordan(ring, a, ncols):
    """Gauss-Jordan through the ring's own operations, the reference for
    linalg._gauss_jordan: same contract (rows reduced in place, pivots
    among the first ncols columns, riders follow), one ring.mul, ring.neg
    and ring.add per entry and step."""
    piv_row = 0
    pivots = []
    for col in range(ncols):
        sel = None
        for i in range(piv_row, len(a)):
            if not ring.is_zero(a[i][col]):
                sel = i
                break
        if sel is None:
            continue
        a[piv_row], a[sel] = a[sel], a[piv_row]
        inv = ring.try_invert_payload(a[piv_row][col])
        a[piv_row] = [ring.mul(inv, x) for x in a[piv_row]]
        for i in range(len(a)):
            if i == piv_row or ring.is_zero(a[i][col]):
                continue
            f = a[i][col]
            a[i] = [ring.add(x, ring.neg(ring.mul(f, y))) for x, y in zip(a[i], a[piv_row])]
        pivots.append(col)
        piv_row += 1
    return pivots


SPHERE_RING = {"kind": "poly_quotient", "vars": ["x", "y", "z"], "relation": "x^2 + y^2 + z^2 - 1"}


def fuzz_base_documents():
    """Small valid system files as JSON objects, one per ring kind.

    Each holds a reachable system S, its image T under a feedback
    action, an unreachable system U, and a certificate C from S to T.
    Over the sphere ring, where the action's witnesses cannot be
    solved for, T is S and C the identity certificate.
    """
    docs = []
    for ring in (Rationals(), Integers(), PrimeField(7), descriptor_from_dict(SPHERE_RING)):
        m = lambda rows: RingMatrix.from_rows(ring, [[ring.canonical_payload(x) for x in r] for r in rows])
        a, b = m([[1, 2], [0, 1]]), m([[0], [1]])
        if isinstance(ring, PolyQuotient):
            s = t = from_pair(a, b)
            cert = identity_certificate(s)
        else:
            s, t, cert = certificate_from_action(a, b, m([[1, 1], [0, 1]]), m([[1, 0]]), m([[-1]]))
        systems = {
            "S": from_pair(a, b),
            "T": from_pair(t.endo, t.input_gens),
            "U": from_pair(m([[0, 0], [0, 0]]), m([[1], [0]])),
        }
        sf = SystemFile(ring, systems, {"C": CertEntry("S", "T", cert)})
        docs.append(json.loads(emit(sf)))
    return docs


_LITERALS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "6", "1/2", "-2/3", "x", "y*z - 1"]),
    st.text(alphabet="0123456789-+*/^ xyzab().", max_size=10),
    st.sampled_from(["", "1/0", "--1", "1e3", "0x10", " 7 ", "x^65", "x^2*y^2*z^2", "3/4", "9" * 400]),
)
_WRONG_VALUES = st.sampled_from(
    [None, True, 0, -1, 3, 2.5, "", "S", "Q", [], {}, [[]], [["1"]], [["1", "2"], ["3"]], {"kind": "Q"}, 10**30 + 57]
).map(copy.deepcopy)


def _nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated_document(data, doc):
    """A deep copy of doc after one to three random mutations drawn from
    hypothesis ``data``: a matrix entry replaced by a random string, any
    value replaced by one of a wrong JSON type, a key dropped, a key
    added, or a matrix row lengthened or shortened."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        kind = data.draw(st.sampled_from(["literal", "type", "drop", "extra", "ragged"]))
        if kind == "literal":
            targets = [p for p, v in nodes if isinstance(v, str) and isinstance(p[-1], int)]
        elif kind == "type":
            targets = [p for p, v in nodes if p]
        elif kind == "ragged":
            targets = [p for p, v in nodes if isinstance(v, list) and any(isinstance(r, list) for r in v)]
        else:
            targets = [p for p, v in nodes if isinstance(v, dict)]
        if not targets:
            continue
        path = data.draw(st.sampled_from(targets))
        node = _at(doc, path)
        if kind == "literal":
            _at(doc, path[:-1])[path[-1]] = data.draw(_LITERALS)
        elif kind == "type":
            _at(doc, path[:-1])[path[-1]] = data.draw(_WRONG_VALUES)
        elif kind == "drop" and node:
            del node[data.draw(st.sampled_from(sorted(node)))]
        elif kind == "extra":
            key = data.draw(st.sampled_from(["extra", "n", "ring", "systems", "certificates", "V", "S2"]))
            node[key] = data.draw(st.one_of(_WRONG_VALUES, st.sampled_from(list(node.values()) or [0]).map(copy.deepcopy)))
        elif kind == "ragged":
            row = data.draw(st.sampled_from([r for r in node if isinstance(r, list)]))
            if row and data.draw(st.booleans()):
                row.pop()
            else:
                row.append(data.draw(_LITERALS))
    return doc
