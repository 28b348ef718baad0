"""Ring axioms, canonical forms, and the element grammar."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringsys import (
    DescriptorMismatch,
    ElementSyntaxError,
    Integers,
    Poly,
    PolyQuotient,
    PrimeField,
    Rationals,
    RingDescriptor,
    RingMatrix,
    parse_polynomial,
    solve_right,
    try_invert,
)
from ringsys.rings import MAX_COEFF_BITS, MAX_DEGREE, MAX_REDUCE_COST, _parse_terms
from util import reference_product, reference_reduce

VARS = ("x", "y", "z")
SPHERE_REL = parse_polynomial("x^2+y^2+z^2-1", VARS)


def sphere_ring():
    return PolyQuotient(VARS, SPHERE_REL)


def all_rings():
    return [Rationals(), PrimeField(5), Integers(), sphere_ring()]


def rand_element(ring, rng):
    if isinstance(ring, Rationals):
        return ring.element(Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
    if isinstance(ring, PrimeField):
        return ring.element(rng.randrange(ring.p))
    if isinstance(ring, Integers):
        return ring.element(rng.randint(-50, 50))
    coeffs = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(rng.randint(0, 2) for _ in VARS)
        coeffs[mono] = Fraction(rng.randint(-3, 3))
    return ring.element(Poly.from_dict(len(VARS), coeffs))


@pytest.mark.parametrize("ring", all_rings(), ids=str)
def test_ring_axioms_on_random_triples(ring):
    rng = random.Random(20240517)
    zero, one = ring.element(0), ring.element(1)
    for _ in range(1000):
        a, b, c = (rand_element(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero


@pytest.mark.parametrize("ring", all_rings(), ids=str)
def test_try_invert_roundtrip(ring):
    rng = random.Random(99)
    one = ring.element(1)
    for _ in range(300):
        a = rand_element(ring, rng)
        inv = try_invert(a)
        if inv is not None:
            assert a * inv == one
        if ring.is_field:
            assert (inv is None) == a.is_zero


def test_descriptor_mismatch_is_typed():
    with pytest.raises(DescriptorMismatch):
        Rationals().element("1/2") + Integers().element("1")


def test_rational_and_residue_arithmetic_examples():
    q = Rationals()
    assert q.element("1/2") + q.element("1/3") == q.element("5/6")
    f5 = PrimeField(5)
    assert f5.element(3) * f5.element(4) == f5.element(2)
    assert try_invert(q.element("2/3")) == q.element("3/2")
    assert try_invert(Integers().element(2)) is None
    assert try_invert(Integers().element(-1)) == Integers().element(-1)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_primality_matches_trial_division():
    from ringsys.rings import _is_prime

    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 20000) if _is_prime(n)] == [n for n in range(-3, 20000) if trial(n)]


def test_prime_field_large_moduli():
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    # Carmichael numbers and strong pseudoprimes to the smallest bases
    for composite in (561, 2047, 3215031751, 3825123056546413051, (2**61 - 1) * 10007):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(composite)
    with pytest.raises(ValueError, match="below"):
        PrimeField(10**30 + 57)


def test_over_long_literal_is_a_syntax_error():
    digits = "7" * 5000
    for ring, text in ((Integers(), digits), (Rationals(), f"1/{digits}"), (PrimeField(5), digits)):
        with pytest.raises(ElementSyntaxError, match="5000 digits"):
            ring.parse_payload(text)
    with pytest.raises(ElementSyntaxError, match="5000 digits"):
        sphere_ring().parse_payload(f"{digits}*x")


def test_coefficient_bits_bound():
    ring = sphere_ring()
    # 2^32767 (the largest coefficient allowed) as a product of literals
    # within the int-string limit, then one bit more as a product, a
    # denominator, or the sum of a repeated monomial
    top = f"{2**14000}*{2**14000}*{2**4767}"
    assert ring.parse_payload(f"{top}*x") == ring.reduce(Poly.from_dict(3, {(1, 0, 0): Fraction(2**32767)}))
    for text in (f"{top}*2*x", f"1/{2**14000}*1/{2**14000}*1/{2**4768}*x", f"{top}*x + {top}*x"):
        with pytest.raises(ElementSyntaxError, match=f"over MAX_COEFF_BITS = {MAX_COEFF_BITS} bits"):
            ring.parse_payload(text)
    assert ring.parse_payload(f"{top}*x - {top}*x") == ring.zero()


class TestReduce:
    def test_sphere_relation_collapses(self):
        ring = sphere_ring()
        assert ring.element("x^2+y^2+z^2") == ring.element("1")
        assert ring.element("x*x + y*y + z*z") == ring.element("1")

    def test_already_reduced(self):
        ring = sphere_ring()
        assert str(ring.element("x*y")) == "x*y"

    def test_single_division_step(self):
        # z^2 rewrites to 1 - x^2 - y^2; frozen from long division by hand.
        ring = sphere_ring()
        assert ring.element("z^2*y") == ring.element("y - x^2*y - y^3")

    def test_idempotent_and_homomorphic(self):
        ring = sphere_ring()
        rng = random.Random(5)
        for _ in range(300):
            p = rand_element(ring, rng)
            q = rand_element(ring, rng)
            lifted = p.value * q.value
            assert ring.reduce(lifted) == ring.reduce(ring.reduce(lifted))
            assert ring.reduce(lifted) == (p * q).value

    def test_normal_form_has_no_leading_monomial_multiple(self):
        ring = sphere_ring()
        rng = random.Random(17)
        lead = SPHERE_REL.leading()[0]
        for _ in range(200):
            p = rand_element(ring, rng)
            for mono, _ in p.value.terms:
                assert not all(a <= b for a, b in zip(lead, mono))


def test_x_is_not_a_unit_by_bounded_degree_search():
    # Oracle: solve x*q = 1 over monomials of degree <= 4 by exact linear
    # algebra; no solution means x has no inverse of that degree.  The
    # sound-but-incomplete unit test must agree.
    ring = sphere_ring()
    x = ring.element("x")
    assert try_invert(x) is None
    monos = []
    for i in range(5):
        for j in range(5):
            for k in range(5):
                if i + j + k <= 4:
                    monos.append((i, j, k))
    images = []
    for mono in monos:
        prod = ring.reduce(Poly.from_dict(3, {mono: Fraction(1)}) * x.value)
        images.append(dict(prod.terms))
    target_rows = sorted({m for img in images for m in img} | {(0, 0, 0)})
    q = Rationals()
    a = RingMatrix.from_rows(
        q,
        [[img.get(row, Fraction(0)) for img in images] for row in target_rows],
        cols=len(monos),
    )
    b = RingMatrix.from_rows(
        q,
        [[Fraction(1) if row == (0, 0, 0) else Fraction(0)] for row in target_rows],
        cols=1,
    )
    assert solve_right(a, b) is None


class TestQuotientDescriptor:
    def test_relation_must_be_nonconstant(self):
        with pytest.raises(ValueError):
            PolyQuotient(("x",), parse_polynomial("2", ("x",)))
        with pytest.raises(ValueError):
            PolyQuotient(("x",), Poly.zero(1))

    def test_variable_order_is_part_of_the_descriptor(self):
        r1 = PolyQuotient(VARS, SPHERE_REL)
        r2 = PolyQuotient(("z", "y", "x"), SPHERE_REL)
        assert r1 != r2


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        ["x^2*y - 3/2*z + 1", "1", "-x", "x*y*z", "2*x^3 - y", "x - x", "7/3"],
    )
    def test_parse_format_roundtrip(self, text):
        ring = sphere_ring()
        e = ring.element(text)
        assert ring.element(str(e)) == e

    @pytest.mark.parametrize(
        "text",
        ["x^", "x^-2", "w + 1", "x^2.5", "3..2", "x**2", "", "x^y", "1/0", "x 2"],
    )
    def test_malformed_literals_rejected(self, text):
        with pytest.raises(ElementSyntaxError):
            sphere_ring().parse_payload(text)

    # Messages pinned byte for byte; they are part of the one-line error
    # a malformed system file produces.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("x $ y", "unexpected character at '$ y'"),
            ("", "empty polynomial literal"),
            ("   ", "empty polynomial literal"),
            ("x^", "malformed exponent"),
            ("x^-2", "malformed exponent"),
            ("2*", "dangling '*'"),
            ("- ", "dangling sign"),
            ("x+", "dangling sign"),
            ("w", "unknown variable 'w'"),
            ("1/0", "zero denominator"),
            ("x**2", "unexpected operator '*'"),
            ("x 2", "expected '+', '-' or end, found '2'"),
            ("1/", "expected '+', '-' or end, found '/'"),
            ("x^2^3", "expected '+', '-' or end, found '^'"),
            ("3..2", "unexpected character at '..2'"),
            ("x\n$", "unexpected character at '$'"),
            ("x + 12345678901234 $", "unexpected character at '$'"),
            ("x $ y + z + 1 + 2", "unexpected character at '$ y + z + '"),
        ],
    )
    def test_error_messages_pinned(self, text, message):
        with pytest.raises(ElementSyntaxError) as err:
            sphere_ring().parse_payload(text)
        assert str(err.value) == message

    def test_degree_bound(self):
        ring = sphere_ring()
        assert ring.parse_payload(f"x^{MAX_DEGREE - 1}*y") == ring.reduce(
            Poly.from_dict(3, {(MAX_DEGREE - 1, 1, 0): Fraction(1)})
        )
        for text in (f"x^{MAX_DEGREE + 1}", f"x^{MAX_DEGREE}*y", "1 + z^100000000", "x*" * MAX_DEGREE + "x"):
            with pytest.raises(ElementSyntaxError, match=f"over MAX_DEGREE = {MAX_DEGREE}"):
                ring.parse_payload(text)
            with pytest.raises(ElementSyntaxError, match="MAX_DEGREE"):
                parse_polynomial(text, VARS)

    def test_reduce_cost_bound(self):
        ring = sphere_ring()
        z4 = Poly.from_dict(3, {(0, 0, 4): Fraction(1)})
        # z^4 takes four rewrites by the three-term rule x^2+y^2+z^2-1
        assert ring.reduce(z4, max_cost=12) == ring.reduce(z4)
        with pytest.raises(ElementSyntaxError, match="over MAX_REDUCE_COST = 11"):
            ring.reduce(z4, max_cost=11)
        # a rule coefficient past 4096 bits doubles the cost of a rewrite
        wide = PolyQuotient(VARS, parse_polynomial(f"z^2 - {2**5000}*x", VARS))
        z2 = Poly.from_dict(3, {(0, 0, 2): Fraction(1)})
        assert wide.reduce(z2, max_cost=2) == wide.reduce(z2)
        with pytest.raises(ElementSyntaxError):
            wide.reduce(z2, max_cost=1)
        # the literal parser applies MAX_REDUCE_COST: z^64 is cheap over
        # the sphere, but not over nine variables or with wide coefficients
        assert ring.parse_payload("z^64") == ring.reduce(Poly.from_dict(3, {(0, 0, 64): Fraction(1)}))
        nine = tuple("abcdefghz")
        hostile = [
            PolyQuotient(nine, parse_polynomial("z^2 - a^2 - b^2 - c^2 - d^2 - e^2 - f^2 - g^2 - h^2", nine)),
            PolyQuotient(VARS, parse_polynomial("7" * 1000 + "*z^2 + 3*y^2 + 5*x^2 - 1", VARS)),
        ]
        for quotient in hostile:
            start = time.perf_counter()
            with pytest.raises(ElementSyntaxError, match=f"over MAX_REDUCE_COST = {MAX_REDUCE_COST}"):
                quotient.parse_payload("z^64")
            assert time.perf_counter() - start < 1.0
        assert hostile[0].parse_payload("z^8") == hostile[0].reduce(Poly.from_dict(9, {(0,) * 8 + (8,): Fraction(1)}))

    def test_integers_reject_fractions(self):
        with pytest.raises(ElementSyntaxError):
            Integers().parse_payload("1/2")

    def test_residues_parse_canonically(self):
        assert PrimeField(5).element("7") == PrimeField(5).element("2")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-5, max_value=5),
        ),
        max_size=6,
    )
)
def test_reduce_is_idempotent_hypothesis(terms):
    ring = sphere_ring()
    coeffs = {}
    for mono, c in terms:
        coeffs[mono] = coeffs.get(mono, Fraction(0)) + c
    p = Poly.from_dict(3, coeffs)
    once = ring.reduce(p)
    assert ring.reduce(once) == once


# Quotient rings for the reduction and dot-product references: the monic
# sphere relation and a non-monic one, each under two variable orders.
REFERENCE_RINGS = [
    PolyQuotient(order, parse_polynomial(rel, order))
    for rel in ("x^2+y^2+z^2-1", "2*x^2*y - z + 1/3")
    for order in (VARS, ("z", "y", "x"))
]

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), fractions, max_size=6
).map(lambda coeffs: Poly.from_dict(3, coeffs))


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=str)
@settings(max_examples=150, deadline=None)
@given(p=polys)
def test_reduce_matches_reference(ring, p):
    expected = reference_reduce(ring, p)
    assert ring.reduce(p) == expected
    # a coefficient map in any order, with zeros, has the same normal form
    coeffs = dict(reversed(p.terms))
    coeffs.setdefault((0, 0, 5), Fraction(0))
    assert ring.reduce(coeffs) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(fractions, fractions), max_size=8))
@example([])
@example([(Fraction(0), Fraction(1, 3)), (Fraction(-5, 6), Fraction(2, 5))])
def test_rational_dot_matches_fold(pairs):
    ring = Rationals()
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    got = ring.dot(xs, ys)
    assert got == RingDescriptor.dot(ring, xs, ys)
    assert type(got) is Fraction


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=str)
@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(polys, polys), max_size=4))
@example(pairs=[])
@example(pairs=[(Poly.zero(3), Poly.const(3, Fraction(1, 2))), (Poly.variable(2, 3), Poly.const(3, Fraction(-2, 3)))])
def test_quotient_dot_matches_fold(ring, pairs):
    xs = [ring.reduce(x) for x, _ in pairs]
    ys = [ring.reduce(y) for _, y in pairs]
    assert ring.dot(xs, ys) == RingDescriptor.dot(ring, xs, ys)
    if xs:
        assert ring.mul(xs[0], ys[0]) == reference_reduce(ring, xs[0] * ys[0])


# Rings for the matrix-product kernels: the default fold (Z, GF(p)), the
# cleared-denominator kernels over Q and over quotient rings, whose
# rewrite rule is integral (sphere) or not (the non-monic relation).
PRODUCT_RINGS = [Rationals(), Integers(), PrimeField(101), sphere_ring(), REFERENCE_RINGS[2]]


def product_elements(ring):
    if isinstance(ring, Rationals):
        elems = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    elif isinstance(ring, Integers):
        elems = st.integers(-50, 50)
    elif isinstance(ring, PrimeField):
        elems = st.integers(0, ring.p - 1)
    else:
        elems = polys.map(ring.reduce)
    return st.one_of(st.just(ring.zero()), elems)


def assert_products_match_fold(a, b):
    ring = a.ring
    got = a @ b
    cols = [b.column(j).entries for j in range(b.cols)]
    expected = [RingDescriptor.dot(ring, a.row_list(i), c) for i in range(a.rows) for c in cols]
    assert got == RingMatrix(ring, a.rows, b.cols, tuple(expected))
    for i in range(a.rows):
        for j, c in enumerate(cols):
            v = got.entry(i, j)
            if isinstance(ring, PolyQuotient):
                # independent of the integer kernels: Fraction products, long division
                total = Poly.zero(ring.relation.nvars)
                for x, y in zip(a.row_list(i), c):
                    total = total + reference_product(x, y)
                assert v == reference_reduce(ring, total)
                assert all(type(coeff) is Fraction for _, coeff in v.terms)
            elif isinstance(ring, Rationals):
                assert type(v) is Fraction
            else:
                assert type(v) is int


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_match_fold(ring, data):
    rows, inner, cols = (data.draw(st.integers(0, 3)) for _ in range(3))
    elems = product_elements(ring)
    a = data.draw(st.lists(elems, min_size=rows * inner, max_size=rows * inner))
    b = data.draw(st.lists(elems, min_size=inner * cols, max_size=inner * cols))
    assert_products_match_fold(RingMatrix(ring, rows, inner, tuple(a)), RingMatrix(ring, inner, cols, tuple(b)))


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=str)
def test_products_edge_cases(ring):
    rng = random.Random(61)

    def element():
        if isinstance(ring, Rationals):
            return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
        if isinstance(ring, PolyQuotient):
            coeffs = {tuple(rng.randint(0, 2) for _ in VARS): Fraction(rng.randint(-4, 4), rng.randint(1, 6))}
            return ring.reduce(Poly.from_dict(3, coeffs))
        return ring.from_int(rng.randint(-9, 9))

    def matrix(rows, cols, zero_rows=()):
        entries = [ring.zero() if i in zero_rows else element() for i in range(rows) for _ in range(cols)]
        return RingMatrix(ring, rows, cols, tuple(entries))

    # 0-row, 0-column and inner-dimension-0 shapes: the zero matrix
    for r, k, w in ((0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 0), (0, 3, 0)):
        assert matrix(r, k) @ matrix(k, w) == RingMatrix.zeros(ring, r, w)
        assert_products_match_fold(matrix(r, k), matrix(k, w))
    # all-zero rows and columns among rows with several distinct denominators
    a, b = matrix(3, 3, zero_rows=(1,)), matrix(3, 4, zero_rows=(0, 2))
    assert_products_match_fold(a, b)
    assert_products_match_fold(b.transpose(), a.transpose())
    assert_products_match_fold(RingMatrix.zeros(ring, 2, 3), matrix(3, 2))
    if isinstance(ring, Rationals):
        row = RingMatrix(ring, 1, 3, (Fraction(1, 2), Fraction(1, 3), Fraction(5, 7)))
        col = RingMatrix(ring, 3, 1, (Fraction(2, 5), Fraction(-3, 4), Fraction(1, 6)))
        assert (row @ col).entries == (Fraction(1, 5) - Fraction(1, 4) + Fraction(5, 42),)


# Rational constants skip the tokenizer; the result, or the error, must
# be the tokenizer's.
CONSTANT_LITERALS = ["0", "-3", "5/10", "+7", " 1 ", "1/0", "-0", "0/4", "\t12/8\n"]
CONSTANT_LITERALS += ["7" * 5000, "-" + "7" * 5000, "1/" + "7" * 5000, "7" * 5000 + "/0"]


@pytest.mark.parametrize("ring", REFERENCE_RINGS[::2], ids=str)
@pytest.mark.parametrize("text", CONSTANT_LITERALS, ids=lambda t: t if len(t) < 10 else f"{len(t)} chars")
def test_constant_literals_match_tokenizer(ring, text):
    def outcome(parse):
        try:
            return parse(), None
        except ElementSyntaxError as exc:
            return None, str(exc)

    expected = outcome(lambda: ring.reduce(_parse_terms(text, ring.variables), MAX_REDUCE_COST))
    assert outcome(lambda: ring.parse_payload(text)) == expected
    value, error = expected
    if text == "1/0":
        assert error == "zero denominator"
    elif len(text) >= 5000:
        assert "5000 digits is too long" in error
    else:
        assert error is None and value.is_constant and all(type(c) is Fraction for _, c in value.terms)
