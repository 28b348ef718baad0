"""Linear systems over a commutative ring and their morphisms.

A system is a state module R^n, an endomorphism, and an input
submodule given by a generator matrix.  The matrix is kept as given;
its canonical form is built only where two generator matrices are
compared (system equality, morphism and certificate checks), since the
invariants depend on the submodule alone.  Systems form a symmetric
monoidal category under direct sum, with the zero system as unit; the
constructions here (direct sum, trivial systems, dynamic enlargement,
projections/injections of the biproduct) are all matrix-level and
exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import DescriptorMismatch, ShapeError, UnsupportedRing
from .linalg import RingMatrix, column_canonical
from .rings import PolyQuotient, RingDescriptor


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """State rank, endomorphism, and input-submodule generators.

    ``generators`` is the generator matrix as given; the chain, the
    signature and the K_0 class read it, as they depend on its span
    alone.  ``input_gens`` is the canonical generator matrix of that
    span over the rationals, prime fields, and the integers, built on
    first use, and systems compare by it, so two systems with the same
    input submodule are equal.  Over polynomial quotient rings
    submodule equality is undecidable here and ``input_gens`` is the
    generator matrix verbatim.
    """

    ring: RingDescriptor
    state_rank: int
    endo: RingMatrix
    generators: RingMatrix

    def __post_init__(self):
        n = self.state_rank
        if self.endo.rows != n or self.endo.cols != n:
            raise ShapeError(f"endomorphism must be {n}x{n}")
        if self.generators.rows != n:
            raise ShapeError("input generators must have state_rank rows")
        if self.endo.ring != self.ring or self.generators.ring != self.ring:
            raise DescriptorMismatch("system parts live in different rings")

    @functools.cached_property
    def input_gens(self) -> RingMatrix:
        if isinstance(self.ring, PolyQuotient):
            return self.generators
        return column_canonical(self.generators)

    def _key(self) -> tuple:
        return (self.ring, self.state_rank, self.endo, self.input_gens)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def from_pair(a: RingMatrix, b: RingMatrix) -> LinearSystem:
    """System of a matrix pair: state R^n, endomorphism a, inputs col(b).

    The correspondence is many-to-one: pairs whose input matrices span
    the same submodule give equal systems.  The shapes and rings are
    checked as for any LinearSystem.
    """
    return LinearSystem(a.ring, a.rows, a, b)


def gamma(ring: RingDescriptor, p: int) -> LinearSystem:
    """Trivial ancillary system (R^p, 0, R^p)."""
    if p < 0:
        raise ValueError("rank must be nonnegative")
    return LinearSystem(ring, p, RingMatrix.zeros(ring, p, p), RingMatrix.identity(ring, p))


def zero_system(ring: RingDescriptor) -> LinearSystem:
    """The monoidal unit (0, 0, 0)."""
    return gamma(ring, 0)


def direct_sum(s1: LinearSystem, s2: LinearSystem) -> LinearSystem:
    """Block-diagonal sum of states, endomorphisms, and inputs."""
    if s1.ring != s2.ring:
        raise DescriptorMismatch("cannot sum systems over different rings")
    return LinearSystem(
        s1.ring,
        s1.state_rank + s2.state_rank,
        s1.endo.block_diag(s2.endo),
        s1.generators.block_diag(s2.generators),
    )


def dynamic_enlarge(sigma: LinearSystem, p: int) -> LinearSystem:
    """Adjoin p free ancillary state variables in front of sigma.

    The ancillary block comes first, so the enlarged input matrix
    starts with an identity block; ``enlarge`` writes systems in this
    order.
    """
    return direct_sum(gamma(sigma.ring, p), sigma)


def is_morphism(phi: RingMatrix, source: LinearSystem, target: LinearSystem) -> bool:
    """Whether phi maps source into target compatibly.

    Checks phi(B1) inside B2 and Im(f2 phi - phi f1) inside B2.  Both
    hold exactly when appending those columns leaves the canonical
    generators of B2 (the target's ``input_gens``) unchanged.  Needs
    decidable membership, so quotient rings are rejected; use
    certificate verification there instead.
    """
    if source.ring != target.ring:
        raise DescriptorMismatch("morphism endpoints live in different rings")
    if isinstance(source.ring, PolyQuotient):
        raise UnsupportedRing("membership is undecidable here; verify a certificate instead")
    if phi.rows != target.state_rank or phi.cols != source.state_rank:
        raise ShapeError("morphism matrix has the wrong shape")
    g2 = target.input_gens
    defect = target.endo @ phi - phi @ source.endo
    return column_canonical(g2.hstack(phi @ source.input_gens).hstack(defect)) == g2


@dataclass(frozen=True)
class SystemMorphism:
    """A checked homomorphism of linear systems.

    Construction validates the defining conditions, so holding a
    SystemMorphism is proof of morphism-hood.
    """

    source: LinearSystem
    target: LinearSystem
    matrix: RingMatrix

    def __post_init__(self):
        if not is_morphism(self.matrix, self.source, self.target):
            raise ValueError("matrix does not define a morphism of systems")

    def compose(self, earlier: "SystemMorphism") -> "SystemMorphism":
        """self after earlier (matrix product on the state spaces)."""
        if earlier.target != self.source:
            raise ShapeError("composition endpoints do not match")
        return SystemMorphism(earlier.source, self.target, self.matrix @ earlier.matrix)


def identity_morphism(sigma: LinearSystem) -> SystemMorphism:
    return SystemMorphism(sigma, sigma, RingMatrix.identity(sigma.ring, sigma.state_rank))


def swap_matrix(s1: LinearSystem, s2: LinearSystem) -> RingMatrix:
    """Block swap witnessing s1 + s2 = s2 + s1."""
    ring = s1.ring
    n1, n2 = s1.state_rank, s2.state_rank
    top = RingMatrix.zeros(ring, n2, n1).hstack(RingMatrix.identity(ring, n2))
    bottom = RingMatrix.identity(ring, n1).hstack(RingMatrix.zeros(ring, n1, n2))
    return top.vstack(bottom)


def biproduct_witnesses(
    s1: LinearSystem, s2: LinearSystem
) -> tuple[SystemMorphism, SystemMorphism, SystemMorphism, SystemMorphism]:
    """Projections and injections (pi1, pi2, iota1, iota2) of s1 + s2."""
    total = direct_sum(s1, s2)
    ring = s1.ring
    n1, n2 = s1.state_rank, s2.state_rank
    i1 = RingMatrix.identity(ring, n1)
    i2 = RingMatrix.identity(ring, n2)
    z12 = RingMatrix.zeros(ring, n1, n2)
    z21 = RingMatrix.zeros(ring, n2, n1)
    pi1 = SystemMorphism(total, s1, i1.hstack(z12))
    pi2 = SystemMorphism(total, s2, z21.hstack(i2))
    iota1 = SystemMorphism(s1, total, i1.vstack(z21))
    iota2 = SystemMorphism(s2, total, z12.vstack(i2))
    return pi1, pi2, iota1, iota2
