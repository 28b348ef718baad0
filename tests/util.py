"""Shared random generators and oracles for the test suite."""

from __future__ import annotations

from fractions import Fraction

from ringsys import (
    AbelianGroupStructure,
    Integers,
    InvariantReport,
    Poly,
    RingMatrix,
    canonical_pair,
    cokernel_structure,
    column_canonical,
    column_space_sum,
    from_pair,
    invert,
    kernel_basis,
    membership,
    rref,
    solve_right,
)
from ringsys.rings import grlex_key


def rand_matrix(ring, rows, cols, rng, span=3):
    data = [[ring.from_int(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)]
    return RingMatrix.from_rows(ring, data, cols=cols)


def rand_invertible(ring, n, rng, span=2):
    """Unit triangular factors times a permutation: invertible over any
    of the supported rings, integers included."""
    low = [
        [ring.one() if i == j else (ring.from_int(rng.randint(-span, span)) if i > j else ring.zero()) for j in range(n)]
        for i in range(n)
    ]
    up = [
        [ring.one() if i == j else (ring.from_int(rng.randint(-span, span)) if i < j else ring.zero()) for j in range(n)]
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
    p_inv = solve_right(p, RingMatrix.identity(ring, n)) if isinstance(ring, Integers) else invert(p)
    a = p @ (a_c + b_full @ k) @ p_inv
    b = p @ b_full @ q
    return parts, a, b


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
    column_canonical.  The last layer maps to I_{s+1} = 0, written as
    N_s modulo itself.
    """
    ring, n = sigma.ring, sigma.state_rank
    chain = list(reference_integer_chain(sigma))
    s = len(chain) - 1
    m_structs = tuple(cokernel_structure(chain[i], n) for i in range(1, s + 1))
    rel = [None]
    for i in range(1, s + 1):
        x = solve_right(chain[i], chain[i - 1])
        assert x is not None, "chain is not increasing"
        rel.append(x)
    i_structs = tuple(cokernel_structure(rel[i], chain[i].cols) for i in range(1, s + 1))
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
        z_structs.append(cokernel_structure(y, preimage.cols))
    reachable = chain[s] == RingMatrix.identity(ring, n)
    structures = m_structs + i_structs + tuple(z_structs)
    return InvariantReport(
        ring=ring,
        state_rank=n,
        chain=tuple(chain),
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
    if isinstance(a, AbelianGroupStructure):
        return a.direct_sum(b)
    return a + b


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
    monomial, until none is left."""
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
            s = coeffs.get(mm, Fraction(0)) - c * tc / lead_c
            if s:
                coeffs[mm] = s
            else:
                coeffs.pop(mm, None)
    return Poly.from_dict(p.nvars, coeffs)
