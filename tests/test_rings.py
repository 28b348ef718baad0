"""Ring axioms, canonical forms, and the element grammar."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
