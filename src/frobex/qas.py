"""Quantum affine space at a root of unity and a filtered q-Weyl fixture.

Quantum affine space on generators x_1, ..., x_n satisfies
x_i x_j = q_{i,j} x_j x_i with q_{i,j} = zeta^{C[i][j]} for an antisymmetric
integer matrix C.  Monomials are written in normal order x_1^{a_1}...x_n^{a_n}
and indexed by their exponent vectors.  The subalgebra generated by the
ell-th powers of the generators is central; the restricted monomials (all
exponents below ell) form a free basis over it, and projection onto the top
restricted slot is the distinguished form whose Frobenius property the
``frobenius`` module certifies.

The q-Weyl algebra (x*y = q*y*x + 1, filtered by total degree) is the
package's genuinely filtered test bed: its associated graded algebra is the
quantum plane, and the centrality of x^ell and y^ell is verified by tests
against a word-rewriting oracle rather than assumed.
"""

from __future__ import annotations

import itertools
from operator import add, mul
from typing import Optional

from .algcore import BasedAlgebra, Element, RootField, default_prime
from .algcore import check_commutation_matrix, exponent_algebra
from .errors import DimensionMismatch, DomainError
from .grpdeg import GroupElement, in_positive_cone


class QuantumAffineSpace:
    """k_q[x_1,...,x_n] at an ell-th root of unity, graded by Z^m; the
    generators are named x1..xn unless names are given."""

    def __init__(self, field: RootField, cmatrix, degrees, names: Optional[tuple] = None):
        self.field = field
        self.n = len(cmatrix)
        self.cmatrix = tuple(tuple(int(c) for c in row) for row in cmatrix)
        self.degrees = tuple(degrees)
        self.names = tuple(names) if names is not None else tuple(
            f"x{i + 1}" for i in range(self.n)
        )
        self._validate()
        self._degree_columns = tuple(zip(*(d.coords for d in self.degrees)))
        self._algebra = self._build_algebra()

    def _validate(self):
        n, C = self.n, self.cmatrix
        if any(len(row) != n for row in C):
            raise DimensionMismatch("commutation matrix is not square")
        check_commutation_matrix(C)
        if len(self.degrees) != n:
            raise DimensionMismatch("need one degree vector per generator")
        if len(self.names) != n:
            raise DimensionMismatch("need one name per generator")
        if len(set(self.names)) != n:
            raise DomainError("generator names must be distinct")
        dims = {len(d) for d in self.degrees}
        if len(dims) > 1:
            raise DimensionMismatch("degree vectors of mixed dimension")
        if not all(in_positive_cone(d) for d in self.degrees):
            raise DomainError("generator degrees must be non-negative")
        if all(d.is_zero() for d in self.degrees):
            raise DomainError("at least one generator degree must be nonzero")

    @property
    def degree_dim(self) -> int:
        return len(self.degrees[0])

    def monomial_degree(self, exps) -> GroupElement:
        return GroupElement(sum(map(mul, exps, column)) for column in self._degree_columns)

    def _build_algebra(self) -> BasedAlgebra:
        fld, ell = self.field, self.field.ell
        # column j below the diagonal, C[j+1..n-1][j], padded to length n
        cols = tuple(
            tuple(row[j] if i > j else 0 for i, row in enumerate(self.cmatrix))
            for j in range(self.n - 1)
        )
        powers = [fld.zeta_pow(k) for k in range(ell)]
        rmod = ell.__rmod__
        twists: dict = {}  # restricted left factor -> its twist vector

        def product(a, b):
            # Normal-ordering x^a * x^b moves each letter x_j of the right
            # factor leftward past the letters x_i (i > j) of the left
            # factor: a_i * b_j single swaps, each contributing C[i][j], so
            # the zeta-exponent is twist(a) . b with twist(a) the sum over
            # i of a_i * C[i][:i].  Only its value mod ell matters, and that
            # depends on a only mod ell, so the table holds the twists of
            # restricted left factors, at most ell^n of them, and any other
            # left factor reads the twist of its residue.  Tests validate
            # this against a free-algebra rewriting oracle.
            twist = twists.get(a)
            if twist is None:
                r = tuple(map(rmod, a))
                twist = twists.get(r)
                if twist is None:
                    twist = twists[r] = tuple(sum(map(mul, r, col)) for col in cols)
            # zeta is a unit, so its power is never 0 mod p
            return {tuple(map(add, a, b)): powers[sum(map(mul, twist, b)) % ell]}

        weights = None
        if self.degree_dim == 1 and all(d.coords[0] > 0 for d in self.degrees):
            weights = tuple(d.coords[0] for d in self.degrees)
        name = f"qas(n={self.n}, ell={fld.ell}, p={fld.p})"
        return exponent_algebra(fld, self.names, product, self.monomial_degree, name, weights=weights)

    def algebra(self) -> BasedAlgebra:
        return self._algebra

    def __repr__(self):
        return self._algebra.name


class RestrictedBasisEngine:
    """Free decomposition of an exponent-indexed algebra over its ell-centre.

    Works for any based algebra whose indices are exponent tuples and whose
    ell-th generator powers are central with x^(ell*s) * x^r = x^(ell*s + r)
    up to the oracle's scalar.  Each monomial index e splits as e = r + ell*s
    with r componentwise in [0, ell); slot r receives the central monomial
    x^(ell*s) scaled so that reassembly is exact.

    ``graded`` records whether the product is graded by exponents, so that
    x^b * x^c is supported on {b + c}.  Ordered monomials are a basis of
    these algebras (Bergman's diamond lemma, Adv. Math. 29, 1978) and x^a
    is the ordered product of generator powers, so the grading holds
    exactly when every generator-pair product x_i * x_j is supported on
    {e_i + e_j}: any word then sorts into normal order one homogeneous
    swap at a time.  The n^2 pairs are checked once, here.  The Gram build
    and the Nakayama solve read it through ``CentralFreeExtension.partners``.
    """

    def __init__(self, algebra: BasedAlgebra, ell: int):
        self.algebra = algebra
        self.ell = ell
        self.width = len(algebra.one)
        self.basis = tuple(itertools.product(range(ell), repeat=self.width))
        # x_i^ell, listed in generator order
        self.subring_generators = tuple(
            tuple(ell if j == i else 0 for j in range(self.width))
            for i in range(self.width)
        )
        gens = algebra.generator_indices
        self.graded = all(
            algebra.mul_indices(g, h).keys() <= {tuple(map(add, g, h))}
            for g in gens
            for h in gens
        )
        # index -> (r, s, 1/c) from split; only indices that split are kept
        self._splits: dict = {}

    def top_slot(self) -> tuple:
        return (self.ell - 1,) * self.width

    def decompose(self, y: Element) -> dict:
        """{r: z_r} with y = sum over r of z_r * b_r, each z_r a nonzero
        element of the central subring; one ``split`` per term of y."""
        fld = self.algebra.field
        slots: dict = {}
        for idx, c in y.terms.items():
            r, s, inv = self.split(idx)
            acc = slots.setdefault(r, {})
            acc[s] = (acc.get(s, 0) + c * inv) % fld.p
        return {r: z for r, acc in slots.items() if (z := Element(fld, acc))}

    def split(self, idx) -> tuple:
        """(r, s, 1/c) with x^s * x^r = c * x^idx, memoized; raises
        DomainError, and keeps nothing, if idx does not split."""
        split = self._splits.get(idx)
        if split is None:
            A = self.algebra
            r = tuple(e % self.ell for e in idx)
            s = tuple(e - e % self.ell for e in idx)
            prod = A.mul_indices(s, r)
            if len(prod) != 1 or idx not in prod:
                raise DomainError(
                    f"index {idx} does not split over the ell-centre in {A.name}"
                )
            split = self._splits[idx] = (r, s, A.field.inv(prod[idx]))
        return split

    def exponents(self, idx) -> tuple:
        """The central monomial x^idx as a monomial in the x_i^ell."""
        return tuple(e // self.ell for e in idx)

    def partners(self, slot) -> Optional[list]:
        """For each basis element b, in basis order, the position of the
        one basis element c = (slot - b) mod ell with b * c able to reach
        the slot; None unless the grading is proved and the slot is a
        basis element."""
        if not self.graded:
            return None
        position = {b: i for i, b in enumerate(self.basis)}
        if slot not in position:
            return None
        ell = self.ell
        return [position[tuple((r - e) % ell for r, e in zip(slot, b))] for b in self.basis]

    def random_index(self, rng) -> tuple:
        """A uniform index in [0, 2 ell)^n: one draw, read in base 2 ell."""
        base = 2 * self.ell
        k = rng.randrange(base**self.width)
        return tuple(k // base**i % base for i in range(self.width))


def standard_cmatrix(n: int) -> tuple[tuple[int, ...], ...]:
    """The default commutation data: x_i x_j = zeta * x_j x_i for i < j."""
    return tuple(
        tuple(1 if i < j else (-1 if i > j else 0) for j in range(n)) for i in range(n)
    )


def make_qas(
    n: int,
    ell: int,
    p: Optional[int] = None,
    cmatrix=None,
    degrees=None,
    seed: int = 0,
    zeta: Optional[int] = None,
    names: Optional[tuple] = None,
) -> QuantumAffineSpace:
    """Convenience constructor with all-ones degrees in Z, default scalars
    and generators x1..xn; n must be at least 1."""
    fld = RootField(p if p is not None else default_prime(ell), ell, zeta=zeta, seed=seed)
    if n < 1:
        raise DomainError(f"n = {n}: quantum affine space needs at least one generator")
    if cmatrix is None:
        cmatrix = standard_cmatrix(n)
    if degrees is None:
        degrees = tuple(GroupElement((1,)) for _ in range(n))
    return QuantumAffineSpace(fld, cmatrix, degrees, names)


def quantum_weyl(ell: int, p: Optional[int] = None, seed: int = 0) -> BasedAlgebra:
    """The q-Weyl algebra on normal-ordered monomials y^a x^b.

    Defining relation x*y = q*y*x + 1 with q = zeta.  Indices are pairs
    (a, b) meaning y^a x^b; the algebra is filtered by total degree a + b
    over Z.  Right multiplication by y is expanded through
    x^b y = q^b y x^b + [b]_q x^(b-1), which follows from the defining
    relation by induction and is cross-checked against a word-rewriting
    oracle in the tests.

    The normal-ordered expansion of x^b * y^a, as a tuple of (a', b', coeff)
    term triples, and the degree of each index are memoized in dicts owned
    by this one algebra object, filled as products ask for them; nothing is
    shared between algebras.  A product shifts the cached triples into its
    fresh dict in one plain loop.
    """
    if ell < 2:
        raise DomainError("the q-Weyl fixture needs ell >= 2")
    fld = RootField(p if p is not None else default_prime(ell), ell, seed=seed)
    qint_cache: dict = {}
    expansions: dict = {}  # b -> [(a', b', coeff) triples of x^b * y^a for a = 0, 1, ...]
    degrees: dict = {}  # index -> GroupElement of its total degree

    def qint(k: int) -> int:
        if k not in qint_cache:
            qint_cache[k] = fld.qint(k)
        return qint_cache[k]

    def rmul_y(terms: tuple) -> tuple:
        out: dict = {}
        for a, b, c in terms:
            # (y^a x^b) * y = q^b y^(a+1) x^b + [b]_q y^a x^(b-1)
            top = c * fld.zeta_pow(b) % fld.p
            out[(a + 1, b)] = (out.get((a + 1, b), 0) + top) % fld.p
            if b:
                low = c * qint(b) % fld.p
                out[(a, b - 1)] = (out.get((a, b - 1), 0) + low) % fld.p
        # [ell]_q = 0 and cancelling terms leave zeros; products hand out
        # these entries' coefficients as they are, so they must hold none
        return tuple((a, b, c) for (a, b), c in out.items() if c)

    def expand(b, a) -> tuple:
        """Normal-ordered x^b * y^a, extending the cached chain for b."""
        chain = expansions.get(b)
        if chain is None:
            chain = expansions[b] = [((0, b, 1),)]
        while len(chain) <= a:
            chain.append(rmul_y(chain[-1]))
        return chain[a]

    def mul(i, j):
        (a1, b1), (a2, b2) = i, j
        chain = expansions.get(b1)
        terms = chain[a2] if chain is not None and a2 < len(chain) else expand(b1, a2)
        # a plain loop: on Python 3.11 a comprehension costs a function frame
        out = {}
        for a, b, c in terms:
            out[(a1 + a, b + b2)] = c
        return out

    def degree_of(idx) -> GroupElement:
        g = degrees.get(idx)
        if g is None:
            g = degrees[idx] = GroupElement((idx[0] + idx[1],))
        return g

    name = f"qweyl(ell={ell}, p={fld.p})"
    return exponent_algebra(fld, ("y", "x"), mul, degree_of, name, "filtered", (1, 1))


def quantum_plane_of_weyl(W: BasedAlgebra) -> QuantumAffineSpace:
    """The quantum plane matching gr of the q-Weyl fixture.

    Generators ordered (y, x) so that indices line up with the fixture's
    (a, b) pairs; the relation x*y = q*y*x forces C[2][1] = 1.
    """
    fld = W.field
    return QuantumAffineSpace(
        fld,
        cmatrix=((0, -1), (1, 0)),
        degrees=(GroupElement((1,)), GroupElement((1,))),
    )
