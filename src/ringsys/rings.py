"""Exact scalar arithmetic for the supported coefficient rings.

Four ring families sit behind one descriptor interface: the rationals,
prime fields GF(p), the integers, and quotients Q[x1,...,xk]/(g) of a
rational polynomial ring by a single relation.  Values are immutable
and kept canonical, so equality of elements is equality of payloads:
fractions are reduced with positive denominator, residues lie in
[0, p), and quotient-ring polynomials carry no monomial divisible by
the relation's leading monomial.
"""

from __future__ import annotations

import heapq
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DescriptorMismatch, ElementSyntaxError

Monomial = tuple[int, ...]


def grlex_key(monomial: Monomial) -> tuple:
    """Sort key realising the graded-lex order.

    Monomials compare by total degree first; ties are broken
    lexicographically with later-declared variables taking precedence.
    Under this order z^2 is the leading monomial of x^2+y^2+z^2-1 over
    variables (x, y, z).
    """
    return (sum(monomial), monomial[::-1])


def _descending_key(monomial: Monomial) -> tuple:
    # grlex_key with every component negated: the smallest key belongs
    # to the largest monomial, as a min-heap needs.
    return (-sum(monomial), tuple(map(operator.neg, monomial[::-1])))


@dataclass(frozen=True)
class Poly:
    """Multivariate polynomial with rational coefficients.

    Terms are stored sorted in descending graded-lex order with zero
    coefficients dropped, which makes structural equality semantic
    equality.
    """

    nvars: int
    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def from_dict(nvars: int, coeffs: dict[Monomial, Fraction]) -> "Poly":
        terms = []
        for m in sorted(coeffs, key=grlex_key, reverse=True):
            c = coeffs[m]
            if c:
                terms.append((m, c if type(c) is Fraction else Fraction(c)))
        return Poly(nvars, tuple(terms))

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, ())

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = c if type(c) is Fraction else Fraction(c)
        return Poly(nvars, (((0,) * nvars, c),) if c else ())

    @staticmethod
    def variable(index: int, nvars: int) -> "Poly":
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return Poly.from_dict(nvars, {mono: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m, _ in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms[0][1]

    def leading(self) -> tuple[Monomial, Fraction]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def __add__(self, other: "Poly") -> "Poly":
        coeffs = dict(self.terms)
        for m, c in other.terms:
            old = coeffs.get(m)
            coeffs[m] = c if old is None else old + c
        return Poly.from_dict(self.nvars, coeffs)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        (x,), xd = _cleared((self,))
        (y,), yd = _cleared((other,))
        return _divided(Poly.from_dict(self.nvars, _product_terms([(x, y)])), xd * yd)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, tuple((m, coef * c) for m, coef in self.terms))


def _cleared(polys) -> tuple[list[list[tuple[Monomial, int]]], int]:
    """The polynomials as integer term lists over one denominator, the
    lcm of all their coefficients' denominators."""
    den = math.lcm(*[c.denominator for p in polys for _, c in p.terms])
    return [[(m, c.numerator * (den // c.denominator)) for m, c in p.terms] for p in polys], den


def _product_terms(pairs) -> dict[Monomial, int]:
    """Coefficients of the sum of the products of paired integer term
    lists, unsorted and unreduced; cancelled monomials keep a zero."""
    coeffs: dict[Monomial, int] = {}
    get, add = coeffs.get, operator.add
    for x, y in pairs:
        for m1, c1 in x:
            for m2, c2 in y:
                m = tuple(map(add, m1, m2))
                coeffs[m] = get(m, 0) + c1 * c2
    return coeffs


def _divided(p: Poly, den: int) -> Poly:
    """p with every coefficient divided by the positive integer den."""
    if den == 1:
        return p
    return Poly(p.nvars, tuple((m, Fraction(c.numerator, c.denominator * den)) for m, c in p.terms))


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
    """

    kind: str

    @property
    def is_field(self) -> bool:
        return False

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def dot(self, xs, ys):
        """Sum of the products of paired payloads."""
        add, mul = self.add, self.mul
        acc = self.zero()
        for x, y in zip(xs, ys):
            acc = add(acc, mul(x, y))
        return acc

    def products(self, rows, cols) -> list:
        """Row-major entries of a matrix product: the dot product of each
        row with each column, both given as sequences of payloads."""
        dot = self.dot
        return [dot(r, c) for r in rows for c in cols]

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def try_invert_payload(self, a):
        """Inverse payload, or None when no inverse is certified."""
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def parse_payload(self, text: str):
        raise NotImplementedError

    def format_payload(self, a) -> str:
        raise NotImplementedError

    def element(self, value) -> "RingElement":
        """Wrap a payload, an int, or a literal string as an element."""
        if isinstance(value, RingElement):
            if value.ring != self:
                raise DescriptorMismatch(f"element of {value.ring} used in {self}")
            return value
        if isinstance(value, str):
            return RingElement(self, self.parse_payload(value))
        if isinstance(value, int):
            return RingElement(self, self.from_int(value))
        return RingElement(self, self.canonical_payload(value))

    def canonical_payload(self, value):
        return value

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True)
class Rationals(RingDescriptor):
    kind: str = "Q"

    @property
    def is_field(self) -> bool:
        return True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def dot(self, xs, ys):
        return self.products((xs,), (ys,))[0]

    def products(self, rows, cols):
        # denominators are cleared once per row and per column, so each
        # entry is an integer dot product and one Fraction
        rows = [_cleared_fractions(r) for r in rows]
        cols = [_cleared_fractions(c) for c in cols]
        mul = operator.mul
        return [Fraction(sum(map(mul, rn, cn)), rd * cd) for rn, rd in rows for cn, cd in cols]

    def neg(self, a):
        return -a

    def try_invert_payload(self, a):
        if a == 0:
            return None
        return 1 / Fraction(a)

    def from_int(self, n: int):
        return Fraction(n)

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
    kind: str = "Z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys))

    def neg(self, a):
        return -a

    def try_invert_payload(self, a):
        if a in (1, -1):
            return a
        return None

    def from_int(self, n: int):
        return n

    def parse_payload(self, text: str):
        if not _INT_LIT.match(text.strip()):
            raise ElementSyntaxError(f"bad integer literal {text!r}")
        return _int_literal(text)

    def format_payload(self, a) -> str:
        return str(a)


@dataclass(frozen=True)
class PrimeField(RingDescriptor):
    p: int
    kind: str = "GF"

    def __post_init__(self):
        if self.p >= PRIME_BOUND:
            raise ValueError(f"GF(p) needs p below {PRIME_BOUND}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_field(self) -> bool:
        return True

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def try_invert_payload(self, a):
        if a % self.p == 0:
            return None
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def canonical_payload(self, value):
        return int(value) % self.p

    def parse_payload(self, text: str):
        if not _INT_LIT.match(text.strip()):
            raise ElementSyntaxError(f"bad residue literal {text!r}")
        return _int_literal(text) % self.p

    def format_payload(self, a) -> str:
        return str(a % self.p)

    def __str__(self) -> str:
        return f"GF({self.p})"


# One scan covers the whole literal: whitespace matches no named group,
# and any other character outside the grammar is a "bad" token.
_POLY_SCAN = re.compile(
    r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^])|\s+|(?P<bad>.)", re.DOTALL
)

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
    kind: str = "poly_quotient"

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
        # lead -> sum of rule terms is the rewrite that reduce applies.
        # An integral rule is kept as ints, so reducing an integer
        # coefficient map stays in integer arithmetic.
        (lead_m, lead_c), *tail = self.relation.terms
        rule = tuple((m, -c / lead_c) for m, c in tail)
        rule = tuple((m, c.numerator if c.denominator == 1 else c) for m, c in rule)
        rule_bits = max((c.numerator.bit_length() + c.denominator.bit_length() for _, c in rule), default=0)
        object.__setattr__(self, "_rewrite", (lead_m, rule, rule_bits))

    def zero(self):
        return Poly.zero(len(self.variables))

    def one(self):
        return Poly.const(len(self.variables), 1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return self.products(((a,),), ((b,),))[0]

    def dot(self, xs, ys):
        return self.products((xs,), (ys,))[0]

    def products(self, rows, cols):
        # Denominators are cleared once per row and per column.  Every
        # term product of an entry goes into one integer coefficient map,
        # reduced once (reduction is Q-linear and a ring homomorphism, so
        # the normal form is the same) and divided once.
        rows = [_cleared(r) for r in rows]
        cols = [_cleared(c) for c in cols]
        reduce = self.reduce
        return [_divided(reduce(_product_terms(zip(rn, cn))), rd * cd) for rn, rd in rows for cn, cd in cols]

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a.is_zero

    def reduce(self, p: Poly | dict[Monomial, Fraction | int], max_cost: int | None = None) -> Poly:
        """Normal form modulo the relation of p, a polynomial or a map
        from monomials to rational or integer coefficients (in any
        order, zeros allowed).
        With max_cost, a reduction that would cost more (counted as for
        MAX_REDUCE_COST) raises ElementSyntaxError instead.

        Division by a single polynomial is confluent, so the result
        does not depend on the reduction strategy; reduce is idempotent
        and a ring homomorphism.  The pending multiples of the leading
        monomial are rewritten largest first, so each is rewritten once:
        a rewrite only produces smaller monomials.
        """
        if isinstance(p, Poly):
            if p.nvars != len(self.variables):
                raise ValueError("polynomial arity does not match the ring")
            coeffs = dict(p.terms)
        else:
            coeffs = dict(p)
        lead_m, rule, rule_bits = self._rewrite
        ge, add, sub = operator.ge, operator.add, operator.sub
        heap = [(_descending_key(m), m) for m in coeffs if all(map(ge, m, lead_m))]
        heapq.heapify(heap)
        cost = 0
        while heap:
            m = heapq.heappop(heap)[1]
            c = coeffs.pop(m)
            if not c:
                continue
            if max_cost is not None:
                b = (c.numerator.bit_length() + c.denominator.bit_length() + rule_bits) >> 12
                cost += len(rule) * (1 + b * b)
                if cost > max_cost:
                    raise ElementSyntaxError(f"literal costs over MAX_REDUCE_COST = {max_cost} to reduce")
            shift = tuple(map(sub, m, lead_m))
            for rm, rc in rule:
                mm = tuple(map(add, rm, shift))
                old = coeffs.get(mm)
                if old is not None:
                    coeffs[mm] = old + c * rc
                else:
                    coeffs[mm] = c * rc
                    if all(map(ge, mm, lead_m)):
                        heapq.heappush(heap, (_descending_key(mm), mm))
        return Poly.from_dict(len(self.variables), coeffs)

    def try_invert_payload(self, a):
        if a.is_zero:
            return None
        if a.is_constant:
            return Poly.const(a.nvars, 1 / a.constant_value())
        return None

    def from_int(self, n: int):
        return Poly.const(len(self.variables), n)

    def canonical_payload(self, value):
        if isinstance(value, Poly):
            return self.reduce(value)
        return Poly.const(len(self.variables), Fraction(value))

    def parse_payload(self, text: str):
        # A rational constant is already in normal form.  Any other
        # literal, and a constant that fails, goes through the tokenizer,
        # which owns the error messages.
        m = _RAT_LIT.match(text.strip())
        if m:
            try:
                return Poly.const(len(self.variables), Fraction(int(m.group(1)), int(m.group(2) or 1)))
            except (ValueError, ZeroDivisionError):
                pass
        return self.reduce(_parse_terms(text, self.variables), MAX_REDUCE_COST)

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
        return RingElement(self.ring, self.ring.sub(self.value, other.value))

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
    return Poly.from_dict(len(variables), _parse_terms(text, variables))


_SIGNS = (("op", "+"), ("op", "-"))
_END = ("end", "")


def _parse_terms(text: str, variables: tuple[str, ...]) -> dict[Monomial, Fraction]:
    """Coefficient map of a polynomial literal, unsorted, zeros allowed."""
    nvars = len(variables)
    index = {name: i for i, name in enumerate(variables)}
    tokens: list[tuple[str, str]] = []
    for m in _POLY_SCAN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ElementSyntaxError(f"unexpected character at {text[m.start():].strip()[:10]!r}")
        if kind is not None:
            tokens.append((kind, m.group()))
    if not tokens:
        raise ElementSyntaxError("empty polynomial literal")
    tokens.append(_END)

    coeffs: dict[Monomial, Fraction] = {}
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
                num *= _int_literal(tok)
                if tokens[i] == ("op", "/") and tokens[i + 1][0] == "num":
                    d = _int_literal(tokens[i + 1][1])
                    if d == 0:
                        raise ElementSyntaxError("zero denominator")
                    den *= d
                    i += 2
                _check_coeff_bits(num, den)
            elif kind == "name":
                if tok not in index:
                    raise ElementSyntaxError(f"unknown variable {tok!r}")
                if tokens[i] == ("op", "^"):
                    if tokens[i + 1][0] != "num":
                        raise ElementSyntaxError("malformed exponent")
                    expo[index[tok]] += _int_literal(tokens[i + 1][1])
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
        coeff = Fraction(num) if den == 1 else Fraction(num, den)
        old = coeffs.get(mono)
        if old is not None:
            coeff = old + coeff
            _check_coeff_bits(coeff.numerator, coeff.denominator)
        coeffs[mono] = coeff
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
        variables = tuple(variables)
        return PolyQuotient(variables, parse_polynomial(relation, variables))
    raise ElementSyntaxError(f"unknown ring kind {kind!r}")
