"""Coefficient fields, sparse elements and based algebras.

Scalars live in a prime field F_p carrying a distinguished element zeta of
exact multiplicative order ell.  Every identity verified by this package is
an equality of basis monomials scaled by powers of zeta, so a prime field
with such an element is an exact stand-in for cyclotomic coefficients; no
floating point or big cyclotomic arithmetic is involved anywhere.

Algebras are presented through an indexed monomial basis and a product
oracle on basis indices.  The degree function on indices measures either an
exact grading (mode ``graded``) or an upper bound (mode ``filtered``); the
associated graded algebra is obtained by truncating products to the exact
degree sum.
"""

from __future__ import annotations

import configparser
import io
import random
from dataclasses import dataclass, field, replace
from itertools import product
from operator import add
from typing import Callable, Iterable, Iterator, Optional

from .errors import AlgebraDefinitionError, ConfigError, DomainError, UnsupportedStructure
from .grpdeg import GroupElement

# Rewriting oracles abort after this many steps rather than truncate silently.
DEFAULT_STEP_BUDGET = 10**6

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12, the least strong pseudoprime to all twelve witnesses above
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
MR_PROOF_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first twelve primes, a proof for
    every n < MR_PROOF_BOUND; a larger n raises DomainError."""
    if n >= MR_PROOF_BOUND:
        raise DomainError(
            f"cannot decide whether {n} is prime: the test is a proof only below {MR_PROOF_BOUND}"
        )
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def default_prime(ell: int) -> int:
    """Smallest prime p >= 5 with ell dividing p - 1, found by search."""
    if ell < 1:
        raise DomainError("ell must be positive")
    p = 5
    while True:
        if is_prime(p) and (p - 1) % ell == 0:
            return p
        p += 1


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class RootField:
    """Prime field F_p with a primitive ell-th root of unity zeta.

    zeta is located by raising random nonzero elements to (p-1)/ell until
    the result has exact order ell; the search is seeded so a given
    (p, ell, seed) triple always yields the same field.
    """

    __slots__ = ("p", "ell", "zeta")

    def __init__(self, p: int, ell: int, zeta: Optional[int] = None, seed: int = 0):
        if not is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        if ell < 1 or (p - 1) % ell != 0:
            raise DomainError(f"ell = {ell} does not divide p - 1 = {p - 1}")
        self.p = p
        self.ell = ell
        if zeta is None:
            zeta = self._find_zeta(p, ell, seed)
        zeta %= p
        if not self._has_exact_order(zeta, ell, p):
            raise DomainError(f"zeta = {zeta} does not have exact order {ell} mod {p}")
        self.zeta = zeta

    @staticmethod
    def _has_exact_order(z: int, ell: int, p: int) -> bool:
        if z == 0 or pow(z, ell, p) != 1:
            return False
        return all(pow(z, ell // q, p) != 1 for q in _prime_factors(ell))

    @classmethod
    def _find_zeta(cls, p: int, ell: int, seed: int) -> int:
        if ell == 1:
            return 1
        rng = random.Random(seed)
        while True:
            g = rng.randrange(1, p)
            z = pow(g, (p - 1) // ell, p)
            if cls._has_exact_order(z, ell, p):
                return z

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RootField)
            and (self.p, self.ell, self.zeta) == (other.p, other.ell, other.zeta)
        )

    def __hash__(self):
        return hash((self.p, self.ell, self.zeta))

    def __repr__(self):
        return f"F_{self.p}(zeta_{self.ell}={self.zeta})"

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def zeta_pow(self, k: int) -> int:
        return pow(self.zeta, k % self.ell, self.p)

    def qint(self, k: int) -> int:
        """The q-integer 1 + zeta + ... + zeta^(k-1) mod p."""
        total, z = 0, 1
        for _ in range(k):
            total = (total + z) % self.p
            z = z * self.zeta % self.p
        return total


class Element:
    """Sparse linear combination of basis indices over a RootField.

    Zero coefficients are never stored; the zero element has empty terms.
    """

    __slots__ = ("field", "terms")

    def __init__(self, fld: RootField, terms: Optional[dict] = None):
        _set_field(self, fld)
        clean = {}
        if terms:
            for idx, c in terms.items():
                c %= fld.p
                if c:
                    clean[idx] = c
        _set_terms(self, clean)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __add__(self, other: "Element") -> "Element":
        if self.field != other.field:
            raise DomainError("elements live over different fields")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, 0) + c
        return Element(self.field, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar: int) -> "Element":
        scalar %= self.field.p
        return Element(self.field, {idx: scalar * c for idx, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = [f"{c}*[{idx}]" for idx, c in sorted(self.terms.items(), key=lambda t: repr(t[0]))]
        return " + ".join(parts)


# the slot setters, which bypass the refusing __setattr__
_set_field = Element.field.__set__
_set_terms = Element.terms.__set__


@dataclass(frozen=True)
class BasedAlgebra:
    """An algebra presented by an indexed monomial basis and a product oracle.

    mode ``graded``: products of basis elements land exactly in the degree
    sum component.  mode ``filtered``: products land at or below the degree
    sum.  Degree functions are non-negative on indices; the unit index has
    degree zero.  The oracle must be a pure, total, terminating function of
    its two indices.  It returns the product's terms as a fresh plain dict
    {index: coefficient in [1, p)}, which the caller owns and may change;
    the zero product is the empty dict.
    """

    field: RootField
    mode: str
    one: object
    degree_of: Callable[[object], GroupElement]
    mul_indices: Callable[[object, object], dict]
    index_str: Callable[[object], str]
    generator_indices: tuple = ()
    generator_names: tuple = ()
    name: str = "algebra"
    enumerate_up_to: Optional[Callable[[GroupElement], Iterator[object]]] = None
    index_key: Callable[[object], object] = field(default=lambda idx: idx)

    def monomial(self, idx, coeff: int = 1) -> Element:
        return Element(self.field, {idx: coeff})

    def format_element(self, el: Element) -> str:
        if el.is_zero():
            return "0"
        parts = []
        for idx in sorted(el.terms, key=self.index_key):
            c = el.terms[idx]
            mono = self.index_str(idx)
            if mono == "1":
                parts.append(f"{c}")
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)


def weighted_exponents(weights, limit: int) -> Iterator[tuple]:
    """Every exponent tuple e with sum(e_i * w_i) <= limit, in lexicographic
    order; the weights must be positive."""
    prefixes = [((), limit)]  # (exponents so far, degree left)
    for w in weights:
        prefixes = [(p + (e,), rest - e * w) for p, rest in prefixes for e in range(rest // w + 1)]
    return iter([p for p, _ in prefixes])


def exponent_algebra(
    field: RootField, names: tuple, mul_indices, degree_of, name: str,
    mode: str = "graded", weights: Optional[tuple] = None,
) -> BasedAlgebra:
    """The based algebra whose indices are exponent tuples over the named
    generators: unit index (0, ..., 0), unit-vector generators and monomials
    written x1*x3^2.  Positive weights of a rank-one degree also let it
    enumerate every index up to a degree bound."""
    n = len(names)

    def index_str(exps):
        return "*".join(nm if e == 1 else f"{nm}^{e}" for nm, e in zip(names, exps) if e) or "1"

    def enumerate_up_to(bound: GroupElement) -> Iterator[tuple]:
        if len(bound) != 1:
            raise UnsupportedStructure(f"{name} enumerates up to rank-one bounds, not {bound}")
        return weighted_exponents(weights, bound.coords[0])

    return BasedAlgebra(
        field, mode, (0,) * n, degree_of, mul_indices, index_str,
        generator_indices=tuple(tuple(int(j == i) for j in range(n)) for i in range(n)),
        generator_names=tuple(names),
        name=name,
        enumerate_up_to=enumerate_up_to if weights is not None else None,
    )


def check_commutation_matrix(C) -> None:
    """Raise DomainError unless the square matrix C has zero diagonal and is
    antisymmetric."""
    n = len(C)
    for i in range(n):
        if C[i][i] != 0:
            raise DomainError("commutation matrix has nonzero diagonal")
        for j in range(n):
            if C[i][j] != -C[j][i]:
                raise DomainError("commutation matrix is not antisymmetric")


def mul_terms(A: BasedAlgebra, a: dict, b: dict) -> dict:
    """The product of two term dicts: ``mul_pairs`` over every pair of
    terms of a and b."""
    return mul_pairs(A, product(a.items(), b.items()))


def mul_pairs(A: BasedAlgebra, pairs: Iterable) -> dict:
    """The product kernel: the oracle's dicts for the given term pairs
    ((ia, ca), (ib, cb)) (any int coefficients), scaled and summed, reduced
    into a fresh dict."""
    mul, p = A.mul_indices, A.field.p
    acc: dict = {}
    for (ia, ca), (ib, cb) in pairs:
        scale = ca * cb
        for idx, c in mul(ia, ib).items():
            acc[idx] = acc.get(idx, 0) + scale * c
    # a plain loop: on Python 3.11 a comprehension costs a function frame
    out = {}
    for idx, v in acc.items():
        if c := v % p:
            out[idx] = c
    return out


def multiply(A: BasedAlgebra, a: Element, b: Element) -> Element:
    """Bilinear extension of the index oracle to sparse elements."""
    if a.field != A.field or b.field != A.field:
        raise DomainError("elements do not live over the algebra's field")
    return Element(A.field, mul_terms(A, a.terms, b.terms))


def filtered_degree(A: BasedAlgebra, a: Element) -> GroupElement:
    """Max degree over the support; the zero element has none."""
    if a.is_zero():
        raise DomainError("filtered degree of 0")
    return max(A.degree_of(idx) for idx in a.terms)


def gr_of(A: BasedAlgebra) -> BasedAlgebra:
    """Associated graded algebra: same basis, products truncated to the
    exact degree sum.  A graded algebra is returned unchanged."""
    if A.mode == "graded":
        return A

    degree_of = A.degree_of

    def mul(i, j):
        # compared as coordinates, so no GroupElement is made per product
        target = tuple(map(add, degree_of(i).coords, degree_of(j).coords))
        out = {}
        for t, c in A.mul_indices(i, j).items():
            if degree_of(t).coords == target:
                out[t] = c
        return out

    return replace(A, mode="graded", mul_indices=mul, name=f"gr({A.name})")


def check_associativity(A: BasedAlgebra, triples: Iterable[tuple]) -> None:
    """Raise AlgebraDefinitionError if (ab)c != a(bc) on any sampled triple."""
    for i, j, k in triples:
        a, b, c = A.monomial(i), A.monomial(j), A.monomial(k)
        left = multiply(A, multiply(A, a, b), c)
        right = multiply(A, a, multiply(A, b, c))
        if left != right:
            raise AlgebraDefinitionError(
                f"associativity fails on indices {i}, {j}, {k} in {A.name}"
            )


def check_degree_law(A: BasedAlgebra, pairs: Iterable[tuple]) -> None:
    """Check exact additivity (graded) or submultiplicativity (filtered)."""
    for i, j in pairs:
        prod = A.mul_indices(i, j)
        if not prod:
            continue
        target = A.degree_of(i) + A.degree_of(j)
        degrees = {A.degree_of(t) for t in prod}
        if A.mode == "graded":
            if degrees != {target}:
                raise AlgebraDefinitionError(
                    f"graded product of {i}, {j} leaves degree {target} in {A.name}"
                )
        elif not (max(degrees) <= target):
            raise AlgebraDefinitionError(
                f"filtered product of {i}, {j} exceeds degree {target} in {A.name}"
            )


# ---------------------------------------------------------------------------
# Config ingestion.  INI-style presentation of an algebra:
#
#   [field]
#   p = 7
#   ell = 3
#
#   [generators]
#   names = x1 x2
#   degrees = 1 0; 0 1
#
#   [relations]
#   c = 0 1; -1 0
#   straighten = x3 x4 -> 1 x2 x5
#
# Vectors are whitespace- or comma-separated integers, matrix rows are
# separated by semicolons.  Parsing is whitespace-insensitive.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraConfig:
    p: int
    ell: int
    names: tuple[str, ...]
    degrees: tuple[GroupElement, ...]
    cmatrix: Optional[tuple[tuple[int, ...], ...]] = None
    straightenings: tuple = ()  # ((lhs names), t_exp, (rhs names))


def _parse_vector(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    try:
        return tuple(int(x) for x in parts)
    except ValueError as exc:
        raise ConfigError(f"bad integer vector {text!r}") from exc


def parse_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    """A square integer matrix written as semicolon-separated rows."""
    rows = [r for r in text.split(";") if r.strip()]
    mat = tuple(_parse_vector(r) for r in rows)
    if any(len(r) != len(mat) for r in mat):
        raise ConfigError("matrix is not square")
    return mat


def parse_degrees(text: str) -> tuple[GroupElement, ...]:
    """Degree vectors separated by semicolons; empty text gives none."""
    return tuple(GroupElement(_parse_vector(v)) for v in text.split(";") if v.strip())


def parse_algebra_config(text: str) -> AlgebraConfig:
    """Parse an INI-style algebra presentation; see the module comment."""
    parser = configparser.ConfigParser()
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        # configparser reports the offending line number in its message
        raise ConfigError(f"unparseable config: {exc}") from exc
    try:
        p = parser.getint("field", "p")
        ell = parser.getint("field", "ell")
        names = tuple(parser.get("generators", "names").split())
        degstr = parser.get("generators", "degrees")
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"incomplete config: {exc}") from exc
    degrees = parse_degrees(degstr)
    if len(degrees) != len(names):
        raise ConfigError(
            f"{len(names)} generators but {len(degrees)} degree vectors"
        )
    cmatrix = None
    straightenings = []
    if parser.has_section("relations"):
        if parser.has_option("relations", "c"):
            cmatrix = parse_matrix(parser.get("relations", "c"))
            if len(cmatrix) != len(names):
                raise ConfigError("commutation matrix size does not match generators")
        if parser.has_option("relations", "straighten"):
            for line in parser.get("relations", "straighten").splitlines():
                line = line.strip()
                if not line:
                    continue
                straightenings.append(_parse_straightening(line, names))
    return AlgebraConfig(p, ell, names, degrees, cmatrix, tuple(straightenings))


def _parse_straightening(line: str, names: tuple[str, ...]):
    # shape: "xi xj -> k xr xs", meaning xi*xj = zeta^k * xr*xs
    if "->" not in line:
        raise ConfigError(f"straightening rule {line!r} lacks '->'")
    lhs, rhs = line.split("->", 1)
    lhs_names = lhs.replace("*", " ").split()
    rhs_parts = rhs.replace("*", " ").split()
    if len(lhs_names) != 2 or len(rhs_parts) != 3:
        raise ConfigError(f"straightening rule {line!r} is not 'a b -> k c d'")
    try:
        t_exp = int(rhs_parts[0])
    except ValueError as exc:
        raise ConfigError(f"bad scalar exponent in rule {line!r}") from exc
    rhs_names = tuple(rhs_parts[1:])
    for nm in (*lhs_names, *rhs_names):
        if nm not in names:
            raise ConfigError(f"unknown generator {nm!r} in rule {line!r}")
    return (tuple(lhs_names), t_exp, rhs_names)
