"""Exact scalar arithmetic for the supported coefficient rings.

Four ring families sit behind one descriptor interface: the rationals,
prime fields GF(p), the integers, and quotients Q[x1,...,xk]/(g) of a
rational polynomial ring by a single relation.  Values are immutable
and kept canonical, so equality of elements is equality of payloads:
fractions are reduced with positive denominator, residues lie in
[0, p), and quotient-ring polynomials carry no monomial divisible by
the relation's leading monomial, with each coefficient an int when
integral and a Fraction otherwise.  A polynomial stores each monomial
packed into one int, under the one _Packing of its variable count, so
parsing, products and reduction never convert a monomial; its tuple
terms are a view.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterator, Optional

from .errors import DescriptorMismatch, ElementSyntaxError

Monomial = tuple[int, ...]
Coeff = int | Fraction


def grlex_key(monomial: Monomial) -> tuple:
    """Sort key realising the graded-lex order.

    Monomials compare by total degree first; ties are broken
    lexicographically with later-declared variables taking precedence.
    Under this order z^2 is the leading monomial of x^2+y^2+z^2-1 over
    variables (x, y, z).  Packed codes (_Packing) sort the same way.
    """
    return (sum(monomial), monomial[::-1])


def _coeff(c) -> Coeff:
    """c as a polynomial coefficient: an int when integral, otherwise a
    Fraction (with denominator above 1)."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# Bits of each field of a packed monomial, and the largest total degree
# a field holds with its guard bit clear (see _Packing).
_WIDTH = 16
DEGREE_CAP = (1 << (_WIDTH - 1)) - 1


class _Packing:
    """Monomials in nvars variables, of total degree at most DEGREE_CAP,
    each packed into one int: the one packing of every Poly in nvars
    variables.

    Every exponent and the total degree get a field of _WIDTH bits; the
    total degree is the top field and the last variable the next one
    down, so integer order is graded-lex order and a product of
    monomials is a sum.  Values stay below 2^(_WIDTH-1), so the top bit
    of every field (the guard) is clear: d divides m exactly when
    m - d borrows into no guard bit, that is (m - d) & guard == 0.  A
    sum of two codes keeps every field apart, and its total degree is
    past DEGREE_CAP exactly when the sum reaches `limit`.
    """

    __slots__ = ("nvars", "top", "guard", "limit", "weights")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.top = nvars * _WIDTH
        self.guard = sum(1 << (i * _WIDTH + _WIDTH - 1) for i in range(nvars + 1))
        self.limit = (DEGREE_CAP + 1) << self.top
        # the total degree is the sum of the exponents, so each exponent
        # adds into its own field and into the top one
        self.weights = tuple((1 << (i * _WIDTH)) | (1 << self.top) for i in range(nvars))

    def code(self, monomial: Monomial) -> int:
        if len(monomial) != self.nvars or not all(isinstance(e, int) and e >= 0 for e in monomial):
            raise ValueError(f"monomial {monomial!r} is not {self.nvars} nonnegative integer exponents")
        if sum(monomial) > DEGREE_CAP:
            raise ValueError(f"monomial of total degree over DEGREE_CAP = {DEGREE_CAP}")
        return sum(map(operator.mul, monomial, self.weights))

    def monomial(self, code: int) -> Monomial:
        mask = (1 << _WIDTH) - 1
        return tuple([(code >> s) & mask for s in range(0, self.top, _WIDTH)])


@functools.cache
def _packing(nvars: int) -> _Packing:
    """The packing of monomials in nvars variables, built on first use."""
    return _Packing(nvars)


@dataclass(frozen=True, repr=False, slots=True)
class Poly:
    """Multivariate polynomial with rational coefficients.

    Stored packed: `packed` holds (code, coefficient) pairs, each
    monomial one int under the _Packing of nvars variables, sorted by
    descending code (descending graded-lex order) with zero coefficients
    dropped.  Each coefficient is an int when integral and a Fraction
    otherwise, which makes structural equality semantic equality.
    `terms` is the same list with exponent tuples, computed on demand.
    Build a Poly with from_dict, zero, const or variable; a total degree
    above DEGREE_CAP raises ValueError.
    """

    nvars: int
    packed: tuple[tuple[int, Coeff], ...]

    @staticmethod
    def from_dict(nvars: int, coeffs: dict[Monomial, Coeff]) -> "Poly":
        code = _packing(nvars).code
        return Poly(nvars, tuple(sorted(((code(m), _coeff(c)) for m, c in coeffs.items() if c), reverse=True)))

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, ())

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = _coeff(c)
        return Poly(nvars, ((0, c),) if c else ())

    @staticmethod
    def variable(index: int, nvars: int) -> "Poly":
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return Poly.from_dict(nvars, {mono: Fraction(1)})

    @property
    def terms(self) -> tuple[tuple[Monomial, Coeff], ...]:
        """The terms with exponent tuples as monomials, in stored order."""
        monomial = _packing(self.nvars).monomial
        return tuple([(monomial(k), c) for k, c in self.packed])

    def __repr__(self) -> str:
        return f"Poly(nvars={self.nvars!r}, terms={self.terms!r})"

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def is_constant(self) -> bool:
        # the constant monomial has the smallest code, 0
        return not self.packed or self.packed[0][0] == 0

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return self.packed[0][0] >> (self.nvars * _WIDTH) if self.packed else 0

    def constant_value(self) -> Coeff:
        if self.is_zero:
            return 0
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.packed[0][1]

    def leading(self) -> tuple[Monomial, Coeff]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        k, c = self.packed[0]
        return _packing(self.nvars).monomial(k), c

    def __add__(self, other: "Poly") -> "Poly":
        coeffs = dict(self.packed)
        get = coeffs.get
        for k, c in other.packed:
            coeffs[k] = get(k, 0) + c
        return Poly(self.nvars, _packed_terms(coeffs))

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, tuple([(k, -c) for k, c in self.packed]))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.packed or not other.packed:
            return Poly.zero(self.nvars)
        (x,), xd = _cleared((self,))
        (y,), yd = _cleared((other,))
        return Poly(self.nvars, _packed_terms(_product_terms([(x, y)], _packing(self.nvars).limit), xd * yd))

    def scale(self, c) -> "Poly":
        c = _coeff(c)
        if c == 0:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, tuple([(k, _coeff(coef * c)) for k, coef in self.packed]))


def _cleared(polys) -> tuple[list, int]:
    """The polynomials' packed terms over one denominator, the lcm of all
    their coefficients' denominators: for each, its (code, integer
    numerator) pairs in stored order; and that lcm."""
    den = math.lcm(*[c.denominator for p in polys for _, c in p.packed])
    if den == 1:  # every coefficient is an int
        return [p.packed for p in polys], 1
    return [[(k, c.numerator * (den // c.denominator)) for k, c in p.packed] for p in polys], den


def _product_terms(pairs, limit: int) -> dict[int, int]:
    """Coefficients of the sum of the products of paired integer term
    lists with packed monomials, each nonempty and sorted as in Poly,
    unsorted and unreduced; cancelled monomials keep a zero.  A pair
    whose leading codes add up to limit or more (_Packing.limit: a total
    degree past DEGREE_CAP) raises ValueError before anything wraps."""
    coeffs: dict[int, int] = {}
    get = coeffs.get
    for x, y in pairs:
        if x[0][0] + y[0][0] >= limit:
            raise ValueError(f"product of total degree over DEGREE_CAP = {DEGREE_CAP}")
        for m1, c1 in x:
            for m2, c2 in y:
                m = m1 + m2
                coeffs[m] = get(m, 0) + c1 * c2
    return coeffs


def _reduce_packed(coeffs: dict, rewrite: tuple, max_cost: int | None = None) -> None:
    """Rewrite the packed coefficient map in place to its normal form
    modulo a quotient ring's ``_rewrite`` (packing, lead, rule,
    rule_bits): the rule lead -> rule in packed monomials and
    coefficients, under the packing's guard bits.  It is the one
    reduction core behind PolyQuotient.reduce and PolyQuotient.products.
    Zeros may be left in the map.

    The pending multiples of the leading monomial are rewritten largest
    first, so each is rewritten once: a rewrite only produces smaller
    monomials.  With max_cost, a reduction that would cost more (counted
    as for MAX_REDUCE_COST, with rule_bits the size of the rule's widest
    coefficient) raises ElementSyntaxError instead.
    """
    pk, lead, rule, rule_bits = rewrite
    guard = pk.guard
    heap = [-m for m in coeffs if not (m - lead) & guard]
    if not heap:
        return
    heapq.heapify(heap)
    heappop, heappush, get = heapq.heappop, heapq.heappush, coeffs.get
    cost = 0
    while heap:
        m = -heappop(heap)
        c = coeffs.pop(m)
        if not c:
            continue
        if max_cost is not None:
            b = (c.numerator.bit_length() + c.denominator.bit_length() + rule_bits) >> 12
            cost += len(rule) * (1 + b * b)
            if cost > max_cost:
                raise ElementSyntaxError(f"literal costs over MAX_REDUCE_COST = {max_cost} to reduce")
        shift = m - lead
        for rm, rc in rule:
            mm = rm + shift
            old = get(mm)
            if old is not None:
                coeffs[mm] = old + c * rc
            else:
                coeffs[mm] = c * rc
                if not (mm - lead) & guard:
                    heappush(heap, -mm)


def _packed_terms(coeffs: dict, den: int = 1) -> tuple[tuple[int, Coeff], ...]:
    """The stored terms of a coefficient map keyed by packed codes (zeros
    allowed): sorted by descending code, every coefficient divided by the
    positive integer den and normalised as in Poly."""
    terms = []
    for k in sorted(coeffs, reverse=True):
        c = coeffs[k]
        if not c:
            continue
        if den != 1:
            c = Fraction(c, den) if type(c) is int else Fraction(c.numerator, c.denominator * den)
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        terms.append((k, c))
    return tuple(terms)


def _cleared_fractions(xs) -> tuple[list[int], int]:
    """The rationals as integer numerators over the lcm of their denominators."""
    den = math.lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


# Miller-Rabin with the first 13 prime bases is exact for every n below
# this bound (Sorenson and Webster, 2015); larger moduli are refused.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic primality test, exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integral(value) -> int:
    """The plain int an integral number equals; ValueError for anything else."""
    try:
        q = Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:  # not a number, NaN, infinity
        raise ValueError(f"{value!r} is not an integer") from exc
    if q.denominator != 1:
        raise ValueError(f"{value!r} is not an integer")
    return q.numerator


def _int_literal(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # past the interpreter's int-string limit
        raise ElementSyntaxError(f"integer literal of {len(digits)} digits is too long") from exc


_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
_INT_LIT = re.compile(r"[+-]?\d+\Z")
_RAT_LIT = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")


class RingDescriptor:
    """Common interface of all supported rings.

    Payloads are plain Python values (Fraction, int, or Poly); the
    descriptor supplies the operations.  All methods are pure and
    descriptors are immutable, so instances may be shared freely.
    ``kind`` and ``is_field`` are constants of each ring class.
    """

    kind: ClassVar[str]
    is_field: ClassVar[bool] = False

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def products(self, rows, cols) -> Iterator:
        """Row-major entries of a matrix product, streamed: the dot
        product of each row with each column, both given as sequences of
        payloads.  A row is multiplied only when the stream reaches it,
        so a caller that stops at a differing entry skips the rows after
        it.  rows may be any iterable; cols is read once per row."""
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def try_invert_payload(self, a):
        """Inverse payload, or None when no inverse is certified."""
        raise NotImplementedError

    def canonical_payload(self, value):
        """The payload a number (or, over a quotient ring, a Poly) stands for."""
        raise NotImplementedError

    def parse_payload(self, text: str):
        raise NotImplementedError

    def format_payload(self, a) -> str:
        raise NotImplementedError

    def element(self, value) -> "RingElement":
        """Wrap a payload, a number, or a literal string as an element.
        Over Z and GF(p) a number that is not an integer raises ValueError."""
        if isinstance(value, RingElement):
            if value.ring != self:
                raise DescriptorMismatch(f"element of {value.ring} used in {self}")
            return value
        if isinstance(value, str):
            return RingElement(self, self.parse_payload(value))
        return RingElement(self, self.canonical_payload(value))

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True)
class Rationals(RingDescriptor):
    kind = "Q"
    is_field = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def products(self, rows, cols):
        # denominators are cleared once per column up front and once per
        # row as the stream reaches it, so each entry is an integer dot
        # product and one Fraction
        cols = [_cleared_fractions(c) for c in cols]
        mul = operator.mul
        for rn, rd in map(_cleared_fractions, rows):
            for cn, cd in cols:
                yield Fraction(sum(map(mul, rn, cn)), rd * cd)

    def neg(self, a):
        return -a

    def try_invert_payload(self, a):
        if a == 0:
            return None
        return 1 / Fraction(a)

    def canonical_payload(self, value):
        return Fraction(value)

    def parse_payload(self, text: str):
        m = _RAT_LIT.match(text.strip())
        if not m:
            raise ElementSyntaxError(f"bad rational literal {text!r}")
        num = _int_literal(m.group(1))
        den = _int_literal(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ElementSyntaxError(f"zero denominator in {text!r}")
        return Fraction(num, den)

    def format_payload(self, a) -> str:
        return str(a)


@dataclass(frozen=True)
class Integers(RingDescriptor):
    kind = "Z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def products(self, rows, cols):
        mul = operator.mul
        for r in rows:
            for c in cols:
                yield sum(map(mul, r, c))

    def neg(self, a):
        return -a

    def try_invert_payload(self, a):
        if a in (1, -1):
            return a
        return None

    def canonical_payload(self, value):
        return _integral(value)

    def parse_payload(self, text: str):
        if not _INT_LIT.match(text.strip()):
            raise ElementSyntaxError(f"bad integer literal {text!r}")
        return _int_literal(text)

    def format_payload(self, a) -> str:
        return str(a)


@dataclass(frozen=True)
class PrimeField(RingDescriptor):
    p: int
    kind = "GF"
    is_field = True

    def __post_init__(self):
        if self.p >= PRIME_BOUND:
            raise ValueError(f"GF(p) needs p below {PRIME_BOUND}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def products(self, rows, cols):
        mul, p = operator.mul, self.p
        for r in rows:
            for c in cols:
                yield sum(map(mul, r, c)) % p

    def neg(self, a):
        return (-a) % self.p

    def try_invert_payload(self, a):
        if a % self.p == 0:
            return None
        return pow(a, self.p - 2, self.p)

    def canonical_payload(self, value):
        return _integral(value) % self.p

    def parse_payload(self, text: str):
        if not _INT_LIT.match(text.strip()):
            raise ElementSyntaxError(f"bad residue literal {text!r}")
        return _int_literal(text) % self.p

    def format_payload(self, a) -> str:
        return str(a % self.p)

    def __str__(self) -> str:
        return f"GF({self.p})"


# One findall tokenizes a whole literal.  Each token is a tuple of the
# four groups (digits, name, operator, stray character), exactly one of
# them nonempty; whitespace matches nothing.
_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^])|(\S)")
_STRAY = operator.itemgetter(3)

# Largest total degree of a monomial in a polynomial literal.  Without a
# bound a literal such as "z^100000000" never returns.
MAX_DEGREE = 64

# Largest cost of reducing one literal modulo the relation.  A rewrite
# that multiplies a rule of t terms by a coefficient of b bits (rule
# coefficient included) costs t * (1 + (b >> 12)^2): one per term, plus
# the quadratic arithmetic of coefficients past 4096 bits.  The degree
# bound alone leaves the work to grow with the number of variables and
# the size of the relation's coefficients (z^64 over nine variables, or
# over the sphere relation with 1000-digit coefficients, takes minutes).
MAX_REDUCE_COST = 30_000

# Largest bit size of a numerator or denominator built while parsing a
# quotient-ring literal: a product of factors, or the sum of a monomial's
# repeated terms.  Two integer literals at the interpreter's default
# int-string limit (4300 digits, 14 284 bits) multiply to less.  Without
# it the work grows quadratically with the literal's length: 200 factors
# of 4000 digits, or 100 terms ``1/<4000 digits>*x`` with distinct
# denominators, take seconds.
MAX_COEFF_BITS = 32_768

# Largest number of terms of a quotient-ring literal in normal form,
# counted after reduction, so that whatever a file holds re-parses when
# written back.  A product multiplies every term of one operand by every
# term of the other, so its work grows with the square of the terms: two
# random sphere literals of 600 terms multiply in at most 0.2 s on a
# 2-vCPU Xeon with integer coefficients of up to 30 digits or 2-digit
# fractions, two of 1 681 terms in 0.4 s, with monomials packed in 64
# bits (160 bits over nine variables).  It is no lower because z^64 over
# the sphere is 561 terms in normal form.  Wide fractional coefficients
# still cost more.
MAX_TERMS = 600


@dataclass(frozen=True)
class PolyQuotient(RingDescriptor):
    """Q[x1,...,xk]/(g) with a fixed graded-lex monomial order.

    Variables are declared in increasing precedence: the last name is
    the largest, so the order (and hence every normal form) is pinned
    by the descriptor itself.  Unit detection is sound but incomplete:
    only nonzero constants are certified invertible.  Invertibility of
    anything else must be witnessed by an explicit inverse.
    """

    variables: tuple[str, ...]
    relation: Poly
    kind = "poly_quotient"

    def __post_init__(self):
        if not self.variables:
            raise ValueError("quotient ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        for name in self.variables:
            if not _IDENT.match(name):
                raise ValueError(f"bad variable name {name!r}")
        if self.relation.nvars != len(self.variables):
            raise ValueError("relation arity does not match the variable list")
        if self.relation.is_zero or self.relation.is_constant:
            raise ValueError("relation must be nonzero and non-constant")
        # The leading coefficient is a nonzero rational, hence invertible:
        # lead -> sum of rule terms is the rewrite that reduce applies,
        # packed once, under the ring's one packing.  An integral rule is
        # kept as ints, so reducing an integer coefficient map stays in
        # integer arithmetic.
        (lead, lead_c), *tail = self.relation.packed
        rule = tuple((k, _coeff(Fraction(-c) / lead_c)) for k, c in tail)
        rule_bits = max((c.numerator.bit_length() + c.denominator.bit_length() for _, c in rule), default=0)
        object.__setattr__(self, "_rewrite", (_packing(len(self.variables)), lead, rule, rule_bits))

    def zero(self):
        return Poly.zero(len(self.variables))

    def one(self):
        return Poly.const(len(self.variables), 1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return next(self.products(((a,),), ((b,),)))

    def products(self, rows, cols):
        # Denominators are cleared once per column up front and once per
        # row as the stream reaches it.  Every term product of an entry
        # goes into one integer coefficient map, reduced once (reduction
        # is Q-linear and a ring homomorphism, so the normal form is the
        # same) and divided once.  Only pairs of nonzero operands are
        # multiplied (Gustavson's sparse product): an entry with no such
        # pair is zero and is not reduced; a row or a column with no
        # nonzero entry gives zeros without looking for pairs.  Monomials
        # stay packed as the payloads store them, from the operands to
        # the result.
        cols = [c if any(c[0]) else None for c in map(_cleared, cols)]
        rewrite = self._rewrite
        pk = rewrite[0]
        nvars, zero = len(self.variables), self.zero()
        for row in rows:
            rn, rd = _cleared(row)
            nonzero = [(k, x) for k, x in enumerate(rn) if x]
            for col in cols:
                if col is None or not nonzero:
                    yield zero
                    continue
                cn, cd = col
                pairs = [(x, cn[k]) for k, x in nonzero if cn[k]]
                if pairs:
                    coeffs = _product_terms(pairs, pk.limit)
                    _reduce_packed(coeffs, rewrite)
                    yield Poly(nvars, _packed_terms(coeffs, rd * cd))
                else:
                    yield zero

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a.is_zero

    def reduce(self, p: Poly | dict, max_cost: int | None = None) -> Poly:
        """Normal form modulo the relation of p: a polynomial, or a map
        to rational or integer coefficients (in any order, zeros allowed)
        from monomials, given as exponent tuples or as the packed codes
        of _parse_terms.
        With max_cost, a reduction that would cost more (counted as for
        MAX_REDUCE_COST) raises ElementSyntaxError instead.

        Division by a single polynomial is confluent, so the result
        does not depend on the reduction strategy; reduce is idempotent
        and a ring homomorphism.  The work is _reduce_packed's.
        """
        pk = self._rewrite[0]
        if isinstance(p, Poly):
            if p.nvars != pk.nvars:
                raise ValueError("polynomial arity does not match the ring")
            coeffs = dict(p.packed)
        else:
            coeffs = dict(p)
            if coeffs and type(next(iter(coeffs))) is not int:
                coeffs = {pk.code(m): c for m, c in coeffs.items()}
        _reduce_packed(coeffs, self._rewrite, max_cost)
        return Poly(pk.nvars, _packed_terms(coeffs))

    def try_invert_payload(self, a):
        if a.is_zero:
            return None
        if a.is_constant:
            return Poly.const(a.nvars, Fraction(1) / a.constant_value())
        return None

    def canonical_payload(self, value):
        if isinstance(value, Poly):
            return self.reduce(value)
        return Poly.const(len(self.variables), value)

    def parse_payload(self, text: str):
        value = self.reduce(_parse_terms(text, self.variables), MAX_REDUCE_COST)
        if len(value.packed) > MAX_TERMS:
            raise ElementSyntaxError(f"literal of more than MAX_TERMS = {MAX_TERMS} terms in normal form")
        return value

    def format_payload(self, a) -> str:
        return format_polynomial(a, self.variables)

    def __str__(self) -> str:
        rel = format_polynomial(self.relation, self.variables)
        return f"Q[{','.join(self.variables)}]/({rel})"


@dataclass(frozen=True)
class RingElement:
    """A scalar tagged with its ring.

    Arithmetic between elements of different rings raises
    DescriptorMismatch rather than coercing.
    """

    ring: RingDescriptor
    value: object

    def _check(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement):
            raise TypeError("expected a RingElement")
        if other.ring != self.ring:
            raise DescriptorMismatch(f"cannot mix {self.ring} with {other.ring}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, self.ring.add(self.value, other.value))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, self.ring.add(self.value, self.ring.neg(other.value)))

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.ring, self.ring.mul(self.value, other.value))

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, self.ring.neg(self.value))

    @property
    def is_zero(self) -> bool:
        return self.ring.is_zero(self.value)

    def __str__(self) -> str:
        return self.ring.format_payload(self.value)


def try_invert(a: RingElement) -> Optional[RingElement]:
    """Inverse of a, or None when the ring cannot certify a unit."""
    inv = a.ring.try_invert_payload(a.value)
    if inv is None:
        return None
    return RingElement(a.ring, inv)


def parse_polynomial(text: str, variables: tuple[str, ...]) -> Poly:
    """Parse an expanded polynomial like ``x^2*y - 3/2*z + 1``.

    Unknown variables, malformed exponents, stray tokens and monomials
    of total degree above MAX_DEGREE are rejected.  No parentheses:
    input must already be a sum of terms.
    """
    return Poly(len(variables), _packed_terms(_parse_terms(text, variables)))


def _parse_terms(text: str, variables: tuple[str, ...]) -> dict[int, Coeff]:
    """Coefficient map of a polynomial literal, keyed by the packed codes
    of its monomials (_packing(len(variables))), unsorted, zeros allowed,
    with coefficients normalised as in Poly."""
    pk = _packing(len(variables))
    weights = dict(zip(variables, pk.weights))
    # The top field reads the total degree while every exponent fits its
    # field; an exponent that does not carries into the top field too, so
    # a code is over MAX_DEGREE exactly when it reaches this bound.
    past_max_degree = (MAX_DEGREE + 1) << pk.top
    tokens = _TOKEN.findall(text)
    if any(map(_STRAY, tokens)):
        at = next(m.start() for m in _TOKEN.finditer(text) if m.group(4))
        raise ElementSyntaxError(f"unexpected character at {text[at:].strip()[:10]!r}")
    if not tokens:
        raise ElementSyntaxError("empty polynomial literal")
    end = len(tokens)
    tokens.append(("", "", "", ""))

    coeffs: dict[int, Coeff] = {}
    i = 0
    while i < end:
        num, den = 1, 1
        op = tokens[i][2]
        while op == "+" or op == "-":
            if op == "-":
                num = -num
            i += 1
            op = tokens[i][2]
        if i == end:
            raise ElementSyntaxError("dangling sign")
        code = 0
        while True:
            digits, name, op, _ = tokens[i]
            i += 1
            if digits:
                num *= _int_literal(digits)
                if tokens[i][2] == "/" and tokens[i + 1][0]:
                    d = _int_literal(tokens[i + 1][0])
                    if d == 0:
                        raise ElementSyntaxError("zero denominator")
                    den *= d
                    i += 2
                _check_coeff_bits(num, den)
            elif name:
                w = weights.get(name)
                if w is None:
                    raise ElementSyntaxError(f"unknown variable {name!r}")
                if tokens[i][2] == "^":
                    if not tokens[i + 1][0]:
                        raise ElementSyntaxError("malformed exponent")
                    code += w * _int_literal(tokens[i + 1][0])
                    i += 2
                else:
                    code += w
            else:
                raise ElementSyntaxError(f"unexpected operator {op!r}")
            if tokens[i][2] != "*":
                break
            i += 1
            if i == end:
                raise ElementSyntaxError("dangling '*'")
        op = tokens[i][2]
        if i != end and op != "+" and op != "-":
            raise ElementSyntaxError(f"expected '+', '-' or end, found {''.join(tokens[i])!r}")
        if code >= past_max_degree:
            raise ElementSyntaxError(f"monomial of total degree over MAX_DEGREE = {MAX_DEGREE}")
        coeff = num if den == 1 else _coeff(Fraction(num, den))
        old = coeffs.get(code)
        if old is not None:
            coeff = _coeff(old + coeff)
            _check_coeff_bits(coeff.numerator, coeff.denominator)
        coeffs[code] = coeff
    return coeffs


def _check_coeff_bits(num: int, den: int) -> None:
    if max(num.bit_length(), den.bit_length()) > MAX_COEFF_BITS:
        raise ElementSyntaxError(f"coefficient over MAX_COEFF_BITS = {MAX_COEFF_BITS} bits")


def format_polynomial(p: Poly, variables: tuple[str, ...]) -> str:
    """Canonical text form, descending graded-lex, e.g. ``z^2 - x*y + 1``."""
    if p.is_zero:
        return "0"
    pieces = []
    for n, (mono, coeff) in enumerate(p.terms):
        factors = []
        for name, e in zip(variables, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([str(mag)] + factors)
        else:
            body = str(mag)
        if n == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"{' - ' if coeff < 0 else ' + '}{body}")
    return "".join(pieces)


def descriptor_to_dict(ring: RingDescriptor) -> dict:
    """JSON-able form of a descriptor; inverse of descriptor_from_dict."""
    if isinstance(ring, Rationals):
        return {"kind": "Q"}
    if isinstance(ring, Integers):
        return {"kind": "Z"}
    if isinstance(ring, PrimeField):
        return {"kind": "GF", "p": ring.p}
    if isinstance(ring, PolyQuotient):
        return {
            "kind": "poly_quotient",
            "vars": list(ring.variables),
            "relation": format_polynomial(ring.relation, ring.variables),
        }
    raise TypeError(f"unknown descriptor {ring!r}")


def descriptor_from_dict(data: dict) -> RingDescriptor:
    kind = data.get("kind")
    if kind == "Q":
        return Rationals()
    if kind == "Z":
        return Integers()
    if kind == "GF":
        p = data.get("p")
        if type(p) is not int:
            raise ElementSyntaxError("GF needs an integer p")
        return PrimeField(p)
    if kind == "poly_quotient":
        variables, relation = data.get("vars"), data.get("relation")
        if not isinstance(variables, list) or not isinstance(relation, str):
            raise ElementSyntaxError("poly_quotient needs a list 'vars' and a string 'relation'")
        if not all(isinstance(name, str) for name in variables):
            raise ElementSyntaxError("poly_quotient 'vars' must be strings")
        variables = tuple(variables)
        return PolyQuotient(variables, parse_polynomial(relation, variables))
    raise ElementSyntaxError(f"unknown ring kind {kind!r}")
