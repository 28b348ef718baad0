"""Ring axioms, canonical forms, and the element grammar."""

from __future__ import annotations

import random
import sys
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
    RingMatrix,
    parse_polynomial,
    solve_right,
    try_invert,
)
from ringsys.rings import (
    DEGREE_CAP,
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_REDUCE_COST,
    MAX_TERMS,
    _packing,
    _parse_terms,
    descriptor_from_dict,
    descriptor_to_dict,
    grlex_key,
)
from util import fold_dot, reference_parse_terms, reference_product, reference_reduce

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


def test_element_passes_its_own_ring_through():
    q = Rationals()
    half = q.element("1/2")
    assert q.element(half) is half
    with pytest.raises(DescriptorMismatch):
        Integers().element(half)
    with pytest.raises(DescriptorMismatch):
        PrimeField(5).element(PrimeField(7).element(3))


@pytest.mark.parametrize("ring", [Integers(), PrimeField(5)], ids=str)
def test_integral_values_are_stored_as_plain_ints(ring):
    for value, payload in ((Fraction(4, 2), 2), (True, 1), (False, 0), (-7, ring.canonical_payload(-7)), (3.0, 3)):
        got = ring.element(value).value
        assert type(got) is int and got == payload
    m = RingMatrix.from_rows(ring, [[True, Fraction(6, 3)]])
    assert m.to_str_rows() == [["1", "2"]]
    assert RingMatrix.from_rows(ring, m.to_str_rows()) == m


@pytest.mark.parametrize("ring", [Integers(), PrimeField(5)], ids=str)
@pytest.mark.parametrize(
    "value", [Fraction(1, 2), 2.5, float("inf"), float("nan"), Poly.zero(3)], ids=["1/2", "2.5", "inf", "nan", "poly"]
)
def test_values_outside_the_ring_are_refused(ring, value):
    with pytest.raises(ValueError):
        ring.element(value)
    with pytest.raises(ValueError):
        RingMatrix.from_rows(ring, [[1, value]])


def test_kind_is_a_class_constant():
    """A ring's kind is fixed by its class: no descriptor takes it as a
    constructor argument, and each ring reads back from its dict form
    as an equal ring with the same name."""
    for make in (
        lambda: Rationals("Z"),
        lambda: Integers("Q"),
        lambda: Integers(kind="Q"),
        lambda: PrimeField(5, "Q"),
        lambda: PolyQuotient(VARS, SPHERE_REL, "x"),
    ):
        with pytest.raises(TypeError):
            make()
    for ring, name in (
        (Rationals(), "Q"),
        (Integers(), "Z"),
        (PrimeField(2), "GF(2)"),
        (PrimeField(101), "GF(101)"),
        (sphere_ring(), "Q[x,y,z]/(z^2 + y^2 + x^2 - 1)"),
    ):
        assert descriptor_from_dict(descriptor_to_dict(ring)) == ring
        assert str(ring) == name
    assert Rationals.is_field and PrimeField.is_field
    assert not Integers.is_field and not PolyQuotient.is_field


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

    def test_term_bound(self):
        # terms are counted in normal form, after reduction
        ring = sphere_ring()
        normal = [f"x^{a}*y^{b}*z^{c}" for d in range(41) for c in (0, 1) for a in range(d - c + 1) for b in [d - a - c]]
        text = " + ".join(normal[:MAX_TERMS])
        at_bound = ring.parse_payload(text)
        assert len(at_bound.terms) == MAX_TERMS
        # a product of two literals at the bound stays cheap
        other = ring.parse_payload(" - ".join(f"{k % 7 + 2}*{m}" for k, m in enumerate(normal[-MAX_TERMS:])))
        start = time.perf_counter()
        ring.mul(at_bound, other)
        assert time.perf_counter() - start < 1.0
        # written terms that merge or cancel do not count
        assert ring.parse_payload(" + ".join(["x"] * 1000)) == ring.reduce({(1, 0, 0): 1000})
        assert ring.parse_payload(text + " - " + " - ".join(normal[:MAX_TERMS]) + " + z") == ring.reduce({(0, 0, 1): 1})
        # four written terms that reduce to 1 035
        expanding = "z^44 + x*z^43 + y*z^43 + x*y*z^42"
        assert len(ring.reduce(_parse_terms(expanding, VARS), MAX_REDUCE_COST).terms) == 1035
        for text in (" + ".join(normal[: MAX_TERMS + 1]), expanding):
            with pytest.raises(ElementSyntaxError) as err:
                ring.parse_payload(text)
            assert str(err.value) == f"literal of more than MAX_TERMS = {MAX_TERMS} terms in normal form"
        # a ring relation is not a literal of the ring: no term bound
        assert len(parse_polynomial(" + ".join(normal[: MAX_TERMS + 1]), VARS).terms) == MAX_TERMS + 1

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

# A relation whose leading monomial x*y has two variables, so
# divisibility by it is decided in two exponent fields of the packing.
XY_RING = PolyQuotient(VARS, parse_polynomial("x*y - z - 1", VARS))

# One variable, and nine (monomials of 160 bits), whose leading monomial
# a*e*z spans the lowest, a middle and the highest exponent field; both
# rules have a fractional coefficient.
NINE = tuple("abcdefghz")
WIDTH_RINGS = [
    PolyQuotient(("t",), parse_polynomial("2*t^3 - t + 1/3", ("t",))),
    PolyQuotient(NINE, parse_polynomial("a*e*z - 3*b^2 + c - 1/2", NINE)),
]

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def polys_in(nvars):
    """Polynomials in nvars variables of up to six terms; exponents up to
    12 in one variable, 4 in three and 2 in nine."""
    top = {1: 12, 3: 4}.get(nvars, 2)
    monomials = st.tuples(*[st.integers(0, top)] * nvars)
    return st.dictionaries(monomials, fractions, max_size=6).map(lambda coeffs: Poly.from_dict(nvars, coeffs))


polys = polys_in(3)


def assert_coefficient_rule(p):
    """Every coefficient is an int when integral and otherwise a
    Fraction with denominator above 1, never a float."""
    for _, c in p.terms:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=str)
def test_coefficients_are_ints_when_integral(ring):
    nvars = len(ring.variables)
    x = Poly.variable(ring.variables.index("x"), nvars)
    twice_half = ring.parse_payload("1/2*x + 1/2*x")
    assert twice_half == x and type(twice_half.terms[0][1]) is int
    rng = random.Random(23)
    values = [ring.parse_payload(t) for t in ("0", "4/2", "-3/6*x*y + 2*z^3 - 1/3", "6/4*x^2*y^2*z^2 + 8/4", "z^9")]
    for _ in range(40):
        monos = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(4)]
        coeffs = {m: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for m in monos}
        values.append(ring.reduce(coeffs))
        values.append(ring.reduce(Poly.from_dict(nvars, coeffs)))
    values += [ring.canonical_payload(-4), ring.element(Fraction(6, 3)).value, ring.element(Fraction(1, 3)).value, ring.one()]
    for a in values:
        assert_coefficient_rule(a)
        for c in (2, Fraction(2, 3), Fraction(3, 2), -1):
            assert_coefficient_rule(a.scale(c))
        inv = ring.try_invert_payload(a)
        if inv is not None:
            assert_coefficient_rule(inv)
            assert ring.mul(a, inv) == ring.one()
    for a, b in zip(values, reversed(values)):
        for got in (ring.mul(a, b), next(ring.products([[a, b]], [[b, a]])), a * b, a + b, -a):
            assert_coefficient_rule(got)
        assert_coefficient_rule(ring.reduce(a * b))
    for c in (Fraction(2), Fraction(1, 2), Fraction(-3, 1), 5):
        (_, inv), = ring.try_invert_payload(Poly.const(nvars, c)).terms
        assert inv == 1 / Fraction(c)
        assert (type(inv) is int) == ((1 / Fraction(c)).denominator == 1)


def assert_reduce_matches_reference(ring, p):
    expected = reference_reduce(ring, p)
    assert ring.reduce(p) == expected
    # a coefficient map in any order, with zeros, has the same normal form
    coeffs = dict(reversed(p.terms))
    coeffs.setdefault((0,) * (p.nvars - 1) + (5,), Fraction(0))
    assert ring.reduce(coeffs) == expected


@pytest.mark.parametrize("ring", REFERENCE_RINGS + [XY_RING] + WIDTH_RINGS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reduce_matches_reference(ring, data):
    assert_reduce_matches_reference(ring, data.draw(polys_in(len(ring.variables))))


@pytest.mark.parametrize("ring", REFERENCE_RINGS + [XY_RING], ids=str)
def test_reduce_matches_reference_past_the_relation_degree(ring):
    p = Poly.from_dict(3, {(3, 30, 9): Fraction(2, 3), (20, 1, 0): Fraction(-1), (0, 0, 0): Fraction(5)})
    assert_reduce_matches_reference(ring, p)


# Every ring subtracts by adding the negation, add(a, neg(b)).
@pytest.mark.parametrize("ring", [Rationals(), Integers(), PrimeField(5), REFERENCE_RINGS[0], REFERENCE_RINGS[2]], ids=str)
def test_sub_is_adding_the_negation(ring):
    rng = random.Random(18)
    zero = ring.element(0)
    for _ in range(200):
        a, b = rand_element(ring, rng), rand_element(ring, rng)
        assert a - b == a + (-b)
        assert (a - b) + b == a
        assert a - a == zero and b - zero == b


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(fractions, fractions), max_size=8))
@example([])
@example([(Fraction(0), Fraction(1, 3)), (Fraction(-5, 6), Fraction(2, 5))])
def test_rational_dot_matches_fold(pairs):
    ring = Rationals()
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    got = next(ring.products([xs], [ys]))
    assert got == fold_dot(ring, xs, ys)
    assert type(got) is Fraction


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=str)
@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(polys, polys), max_size=4))
@example(pairs=[])
@example(pairs=[(Poly.zero(3), Poly.const(3, Fraction(1, 2))), (Poly.variable(2, 3), Poly.const(3, Fraction(-2, 3)))])
def test_quotient_dot_matches_fold(ring, pairs):
    xs = [ring.reduce(x) for x, _ in pairs]
    ys = [ring.reduce(y) for _, y in pairs]
    assert next(ring.products([xs], [ys])) == fold_dot(ring, xs, ys)
    if xs:
        assert ring.mul(xs[0], ys[0]) == reference_reduce(ring, xs[0] * ys[0])


# Rings for the matrix-product kernels: the integer dot products over Z
# and GF(p) (the smallest modulus too), the cleared-denominator kernels
# over Q and over quotient rings, whose rewrite rule is integral
# (sphere) or not (the non-monic relation).  XY_RING's leading monomial
# has two variables; WIDTH_RINGS have one variable and nine.
PRODUCT_RINGS = [
    Rationals(), Integers(), PrimeField(2), PrimeField(101), sphere_ring(), REFERENCE_RINGS[2], XY_RING, *WIDTH_RINGS
]


def product_elements(ring):
    if isinstance(ring, Rationals):
        elems = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    elif isinstance(ring, Integers):
        elems = st.integers(-50, 50)
    elif isinstance(ring, PrimeField):
        elems = st.integers(0, ring.p - 1)
    else:
        elems = polys_in(len(ring.variables)).map(ring.reduce)
    return st.one_of(st.just(ring.zero()), elems)


def assert_products_match_fold(a, b):
    ring = a.ring
    got = a @ b
    cols = [b.column(j).entries for j in range(b.cols)]
    expected = [fold_dot(ring, a.row_list(i), c) for i in range(a.rows) for c in cols]
    assert got == RingMatrix(ring, a.rows, b.cols, tuple(expected))
    for i in range(a.rows):
        for j, c in enumerate(cols):
            v = got.entry(i, j)
            if isinstance(ring, PolyQuotient):
                # independent of the integer kernels: Fraction products, long division
                total = Poly.zero(len(ring.variables))
                for x, y in zip(a.row_list(i), c):
                    total = total + reference_product(x, y)
                assert v == reference_reduce(ring, total)
                assert_coefficient_rule(v)
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


def test_poly_public_behaviour():
    """A Poly is stored packed, but reads as it always has: terms in
    descending graded-lex order with exponent tuples as monomials, the
    same repr, and equality, hash, degree and leading term independent
    of the order a dict lists its terms in."""
    p = Poly.from_dict(3, {(0, 0, 1): 2, (1, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(-6, 3), (2, 1, 0): 0})
    assert p.terms == (((0, 0, 1), 2), ((1, 0, 0), Fraction(1, 2)), ((0, 0, 0), -2))
    assert repr(p) == "Poly(nvars=3, terms=(((0, 0, 1), 2), ((1, 0, 0), Fraction(1, 2)), ((0, 0, 0), -2)))"
    assert repr(Poly.zero(2)) == "Poly(nvars=2, terms=())"
    assert (p.degree, p.leading(), p.is_constant) == (1, ((0, 0, 1), 2), False)
    assert Poly.const(3, Fraction(4, 2)).is_constant and Poly.zero(3).is_constant and Poly.zero(3).degree == 0
    rng = random.Random(47)
    for nvars in (1, 3, 9):
        for _ in range(30):
            monos = {tuple(rng.randint(0, 5) for _ in range(nvars)) for _ in range(rng.randint(0, 8))}
            coeffs = {m: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for m in monos}
            items = list(coeffs.items())
            rng.shuffle(items)
            p, q = Poly.from_dict(nvars, coeffs), Poly.from_dict(nvars, dict(items))
            assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
            nonzero = sorted((m for m, c in coeffs.items() if c), key=grlex_key, reverse=True)
            assert [m for m, _ in p.terms] == nonzero
            assert all(c == coeffs[m] for m, c in p.terms)
            assert_coefficient_rule(p)
            assert p.degree == max(map(sum, nonzero), default=0)
            assert p.is_constant == all(sum(m) == 0 for m in nonzero)
            if nonzero:
                assert p.leading() == (nonzero[0], coeffs[nonzero[0]])
            # the packed codes decode back to the terms, in the same order
            monomial = _packing(nvars).monomial
            assert tuple((monomial(k), c) for k, c in p.packed) == p.terms
            assert [k for k, _ in p.packed] == sorted((k for k, _ in p.packed), reverse=True)


CAP_MESSAGE = f"over DEGREE_CAP = {DEGREE_CAP}"


def power(nvars, e, c=1):
    """c times the e-th power of the first of nvars variables."""
    return Poly.from_dict(nvars, {(e,) + (0,) * (nvars - 1): c})


@pytest.mark.parametrize("nvars", [1, 3, 9])
def test_degree_cap_is_refused(nvars):
    """Monomials are packed in fields that hold a total degree up to
    DEGREE_CAP: a Poly past it, or a product that would be, raises
    ValueError naming the cap instead of wrapping into another monomial."""
    at_cap = power(nvars, DEGREE_CAP, 3) + Poly.const(nvars, 1)
    assert at_cap.degree == DEGREE_CAP and at_cap.leading() == ((DEGREE_CAP,) + (0,) * (nvars - 1), 3)
    bad = [{(DEGREE_CAP + 1,) + (0,) * (nvars - 1): 1}]
    if nvars > 1:  # no exponent past the cap, but their sum
        bad.append({(DEGREE_CAP, 1) + (0,) * (nvars - 2): 1})
    for coeffs in bad:
        with pytest.raises(ValueError, match=CAP_MESSAGE):
            Poly.from_dict(nvars, coeffs)
    for coeffs in ({(-1,) + (0,) * (nvars - 1): 1}, {(0,) * (nvars + 1): 1}):
        with pytest.raises(ValueError, match="nonnegative integer exponents"):
            Poly.from_dict(nvars, coeffs)
    low, high = power(nvars, 16383), power(nvars, 16384) - power(nvars, 1)
    # up to the cap the product is exact, term by term
    assert low * high == power(nvars, DEGREE_CAP) - power(nvars, 16384) == reference_product(low, high)
    assert at_cap * Poly.const(nvars, 5) == at_cap.scale(5)
    for x, y in ((high, high), (at_cap, power(nvars, 1)), (at_cap, at_cap)):
        with pytest.raises(ValueError, match=CAP_MESSAGE):
            x * y


@pytest.mark.parametrize("ring", [XY_RING] + WIDTH_RINGS, ids=str)
def test_products_refuse_a_degree_past_the_cap(ring):
    """PolyQuotient.products and mul refuse an entry whose term products
    would pass DEGREE_CAP before anything is reduced; below the cap they
    match the reference."""
    nvars = len(ring.variables)
    one, zero = ring.one(), ring.zero()
    high = power(nvars, 16384)
    for x, y in ((high, high), (power(nvars, DEGREE_CAP), power(nvars, 1))):
        with pytest.raises(ValueError, match=CAP_MESSAGE):
            ring.mul(x, y)
        with pytest.raises(ValueError, match=CAP_MESSAGE):
            next(ring.products([[one, x]], [[zero, y]]))
        with pytest.raises(ValueError, match=CAP_MESSAGE):
            RingMatrix(ring, 2, 2, (x, one, one, one)) @ RingMatrix(ring, 2, 2, (y, one, one, one))
    if nvars > 1:
        # the first variable is not a multiple of the leading monomial,
        # so its powers up to the cap are normal forms
        low = power(nvars, 16383)
        assert ring.mul(low, high) == power(nvars, DEGREE_CAP) == reference_reduce(ring, reference_product(low, high))
        a = RingMatrix(ring, 2, 2, (low, one, one, one))
        assert_products_match_fold(a, RingMatrix(ring, 2, 2, (high, one, zero, one)))


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=str)
def test_products_edge_cases(ring):
    rng = random.Random(61)

    def element():
        if isinstance(ring, Rationals):
            return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
        if isinstance(ring, PolyQuotient):
            nvars = len(ring.variables)
            coeffs = {tuple(rng.randint(0, 2) for _ in range(nvars)): Fraction(rng.randint(-4, 4), rng.randint(1, 6))}
            return ring.reduce(Poly.from_dict(nvars, coeffs))
        return ring.canonical_payload(rng.randint(-9, 9))

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


# Quotient-ring products multiply only pairs of nonzero operands; these
# rings take the sparse kernel with an integral and a non-integral rule.
SPARSE_RINGS = [sphere_ring(), REFERENCE_RINGS[2]]


@pytest.mark.parametrize("ring", SPARSE_RINGS + WIDTH_RINGS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_products_match_fold(ring, data):
    nonzero_elems = polys_in(len(ring.variables)).map(ring.reduce).filter(lambda p: not p.is_zero)

    def sparse(rows, cols):
        # up to 30% nonzero entries, so most entries have at most one
        # nonzero pair and many rows and columns are all zero
        size = rows * cols
        density = data.draw(st.sampled_from((0, 0.1, 0.2, 0.3)))
        positions = data.draw(st.sets(st.integers(0, max(size - 1, 0)), max_size=int(density * size)))
        entries = [data.draw(nonzero_elems) if k in positions else ring.zero() for k in range(size)]
        return RingMatrix(ring, rows, cols, tuple(entries))

    rows, inner, cols = (data.draw(st.integers(0, 6)) for _ in range(3))
    assert_products_match_fold(sparse(rows, inner), sparse(inner, cols))


@pytest.mark.parametrize("ring", SPARSE_RINGS, ids=str)
def test_sparse_products_edge_cases(ring):
    p = ring.reduce(Poly.from_dict(3, {(1, 1, 0): Fraction(2, 3), (0, 0, 1): Fraction(-1)}))
    q = ring.reduce(Poly.from_dict(3, {(2, 0, 1): Fraction(5), (0, 0, 0): Fraction(1, 7)}))
    o = ring.zero()
    a = RingMatrix(ring, 3, 3, (p, p, o, o, o, o, o, q, o))
    b = RingMatrix(ring, 3, 3, (q, o, o, -q, o, p, o, o, o))
    got = a @ b
    # (p, p, 0) . (q, -q, 0) cancels; column 1 and row 1 are all zero;
    # (p, p, 0) . (0, p, 0) and (0, q, 0) . (0, p, 0) have one nonzero pair
    assert got.row_list(0) == [o, o, reference_reduce(ring, reference_product(p, p))]
    assert got.row_list(1) == [o, o, o]
    assert got.row_list(2) == [reference_reduce(ring, reference_product(q, -q)), o, ring.mul(q, p)]
    assert ring.mul(q, p) == reference_reduce(ring, reference_product(q, p)) != o
    assert_products_match_fold(a, b)
    assert_products_match_fold(b.transpose(), a.transpose())


# Rational constants take the tokenizer-and-reduce path of every other
# literal: each gives a constant normal form, or the tokenizer's error.
CONSTANT_LITERALS = ["0", "-3", "5/10", "+7", " 1 ", "1/0", "-0", "0/4", "\t12/8\n"]
CONSTANT_LITERALS += ["7" * 5000, "-" + "7" * 5000, "1/" + "7" * 5000, "7" * 5000 + "/0"]


def outcome(parse):
    try:
        return parse(), None
    except ElementSyntaxError as exc:
        return None, str(exc)


@pytest.mark.parametrize("ring", REFERENCE_RINGS[::2], ids=str)
@pytest.mark.parametrize("text", CONSTANT_LITERALS, ids=lambda t: t if len(t) < 10 else f"{len(t)} chars")
def test_constant_literals_match_tokenizer(ring, text):
    expected = outcome(lambda: ring.reduce(_parse_terms(text, ring.variables), MAX_REDUCE_COST))
    assert outcome(lambda: ring.parse_payload(text)) == expected
    value, error = expected
    if text == "1/0":
        assert error == "zero denominator"
    elif len(text) >= 5000:
        assert "5000 digits is too long" in error
    else:
        assert error is None and value.is_constant
        assert_coefficient_rule(value)


# Past the default int-string limit a constant's digits convert, and the
# coefficient bound must refuse it as the tokenizer does: 9 800 sevens
# are 32 555 bits, 12 000 are 39 863.
WIDE_BITS = f"coefficient over MAX_COEFF_BITS = {MAX_COEFF_BITS} bits"
WIDE_CONSTANT_LITERALS = [
    ("7" * 9800, None),
    ("-1/" + "7" * 9800, None),
    ("7" * 12000, WIDE_BITS),
    ("1/" + "7" * 12000, WIDE_BITS),
    ("-" + "7" * 12000 + "/3", WIDE_BITS),
    ("3/" + "7" * 12000 + " ", WIDE_BITS),
    ("7" * 12000 + "/0", "zero denominator"),
]


@pytest.fixture
def unlimited_int_strings():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-string limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("ring", REFERENCE_RINGS[::2], ids=str)
@pytest.mark.parametrize(
    "text, error", WIDE_CONSTANT_LITERALS, ids=[f"{len(t)} chars" for t, _ in WIDE_CONSTANT_LITERALS]
)
def test_wide_constant_literals_match_tokenizer(ring, text, error, unlimited_int_strings):
    expected = outcome(lambda: ring.reduce(_parse_terms(text, ring.variables), MAX_REDUCE_COST))
    assert outcome(lambda: ring.parse_payload(text)) == expected
    value, got = expected
    assert got == error
    if error is None:
        assert value.is_constant and value.terms[0][1] == Fraction(text)


# The tokenizer against the finditer reference: the same coefficient map,
# or the same exception type and message, on text over the grammar's
# alphabet and characters just outside it, and on literals with huge
# exponents and wide factors.
WIDE = str(7**4700)  # 3 972 digits: three factors pass MAX_COEFF_BITS
LITERAL_CHARS = "xyzw0123456789+-*/^ .$\n\t_٣²"
literal_factors = st.one_of(
    st.sampled_from(["x", "y", "z", "w", "xy", "_", "0", "3", "12", "٣", "²"]),
    st.builds("{}^{}".format, st.sampled_from("xyz"), st.sampled_from(["0", "2", "64", "65", "9" * 30, "7" * 5000])),
    st.builds("{}/{}".format, st.sampled_from(["1", "7", WIDE]), st.sampled_from(["0", "3", WIDE, "7" * 5000])),
    st.sampled_from([WIDE, "7" * 5000]),
)
literal_terms = st.lists(literal_factors, min_size=1, max_size=4).map("*".join)
literals = st.lists(st.tuples(st.sampled_from(["", "+", "-", " - ", "--", "+ "]), literal_terms), max_size=4).map(
    lambda pieces: "".join(sign + term for sign, term in pieces)
)


def tokenizer_outcome(parse, text):
    try:
        return parse(text, VARS)
    except Exception as exc:  # the type is part of the outcome
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(LITERAL_CHARS, max_size=16), literals))
@example(f"{WIDE}*{WIDE}*{WIDE}*x")
@example(f"1/{WIDE}*1/{WIDE}*y*1/{WIDE}")
@example(f"{WIDE}*{WIDE}*x + {WIDE}*{WIDE}*x")
@example("x^" + "9" * 30 + " + 1")
@example("7" * 5000 + "*x")
@example("x\n٣ $²")
def test_tokenizer_matches_reference(text):
    assert tokenizer_outcome(decoded_parse_terms, text) == tokenizer_outcome(reference_parse_terms, text)


def decoded_parse_terms(text, variables):
    """_parse_terms with its packed codes decoded to exponent tuples."""
    monomial = _packing(len(variables)).monomial
    return {monomial(k): c for k, c in _parse_terms(text, variables).items()}
