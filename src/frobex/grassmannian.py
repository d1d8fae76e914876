"""The graded quantum Grassmannian of 2-planes in 4-space at a root of unity.

Six generators x1..x6 (the images of the quantum Pluecker coordinates
[12], [13], [23], [14], [24], [34]) satisfy q-commutation relations
x_i x_j = zeta^(s(i,j)) x_j x_i together with one straightening relation
for the single incomparable pair,

    x3 * x4  =  zeta^t * x2 * x5.

Words rewrite to scalar multiples of standard monomials: sorted words never
containing both x3 and x4, indexed by exponent 6-tuples with k3 * k4 = 0.
Both rewrite rules strictly decrease a word in the (length-preserving)
lexicographic order on letter sequences, so the system terminates for any
scalar configuration; confluence additionally requires the critical-pair
closure condition

    s(a,3) + s(a,4)  ==  s(a,2) + s(a,5)   (mod ell)   for every a,

obtained by resolving the overlaps of the straightening rule with the
swaps.  It is enforced at construction; the concrete values of s and t are
configuration, not facts, and every conclusion drawn here (the census and
the non-Frobenius verdict) is independent of them.

The census grading puts x2, x4 in degree 1 and the other four generators in
degree 2; the distinguished family over the ell-centre consists of the
standard monomials with all exponents below ell that satisfy
k2 + ki < ell or ki + k5 < ell (ki the exponent of whichever of x3, x4 is
present).  The census counts it by degree from generating polynomials.

The family is not a free basis over the subring Z0 generated by the six
ell-th powers.  The Hilbert series are H_R = (1 - t^3)/((1 - t)^2 (1 - t^2)^4)
and H_Z0(t) = H_R(t^ell), so R has generic rank ell^5 over Z0: 32 at
ell = 2 and 243 at ell = 3, against a family of 40 and 315 elements.  The
quotient H_R / H_Z0 has negative coefficients (its t^8 coefficient is -2
at ell = 2), so by the graded Nakayama lemma R is not projective over Z0
at all, hence not a Frobenius extension of Z0: this is the refutation the
census computes, dividing series counted over the standard monomials.  The
family's degree multiset also fails the symmetry obstruction, but that
obstruction is stated for a free basis, so the census reports it for
information only.  verify_freeness_window exhibits the failure of
freeness: the sweep first overcounts at census degree 5 for ell = 2,
where x2^2 * (x4 x5) = x4^2 * (x2 x3).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Optional

from .algcore import DEFAULT_STEP_BUDGET, BasedAlgebra, RootField
from .algcore import check_commutation_matrix, exponent_algebra, weighted_exponents
from .errors import BudgetExceeded, DimensionMismatch, DomainError
from .grpdeg import DegreeMultiset, GroupElement, multiset_symmetry_witness

N_GENS = 6
CENSUS_DEGREES = (2, 1, 2, 1, 2, 2)
# 0-based positions of the straightening pattern x3 x4 -> zeta^t x2 x5
_LHS = (2, 3)
_RHS = (1, 4)


def _bilinear_s_matrix(f, g) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(f[i] * g[j] - f[j] * g[i] for j in range(N_GENS)) for i in range(N_GENS)
    )


def default_s_matrix() -> tuple[tuple[int, ...], ...]:
    """Default commutation exponents, built from the census weights and the
    generator positions; the bilinear shape satisfies the closure condition
    for every ell because both weight vectors balance the straightening
    relation (f3 + f4 == f2 + f5)."""
    return _bilinear_s_matrix(CENSUS_DEGREES, (1, 2, 3, 4, 5, 6))


def alternate_s_matrix() -> tuple[tuple[int, ...], ...]:
    """A second, inequivalent configuration used for scalar-independence
    checks."""
    return _bilinear_s_matrix((1, 1, 1, 1, 1, 1), (0, 1, 1, 2, 2, 3))


class GrGrassmannian:
    """Rewriting presentation of the graded quantum Grassmannian Gr(2,4)."""

    def __init__(self, fld: RootField, s_matrix=None, t_exp: int = 1):
        self.field = fld
        self.s = tuple(
            tuple(int(v) for v in row)
            for row in (s_matrix if s_matrix is not None else default_s_matrix())
        )
        self.t_exp = int(t_exp)
        self._validate()
        self._algebra = self._build_algebra()

    def _validate(self):
        if len(self.s) != N_GENS or any(len(r) != N_GENS for r in self.s):
            raise DimensionMismatch("commutation matrix must be 6x6")
        check_commutation_matrix(self.s)
        ell = self.field.ell
        for a in range(N_GENS):
            lhs = self.s[a][_LHS[0]] + self.s[a][_LHS[1]]
            rhs = self.s[a][_RHS[0]] + self.s[a][_RHS[1]]
            if (lhs - rhs) % ell != 0:
                raise DomainError(
                    f"commutation exponents break confluence at generator x{a + 1}: "
                    f"s({a + 1},3)+s({a + 1},4) != s({a + 1},2)+s({a + 1},5) mod {ell}"
                )

    def _build_algebra(self) -> BasedAlgebra:
        fld = self.field

        def mul(i, j):
            k, exps = normal_form_word(self, word_of(i) + word_of(j))
            return {exps: fld.zeta_pow(k)}

        names = tuple(f"x{i + 1}" for i in range(N_GENS))
        return exponent_algebra(
            fld, names, mul, lambda exps: GroupElement((census_degree(exps),)),
            f"grGr24(ell={fld.ell}, p={fld.p})",
        )

    def algebra(self) -> BasedAlgebra:
        return self._algebra

    def __repr__(self):
        return self._algebra.name


def word_of(exps) -> tuple[int, ...]:
    """The sorted letter sequence of a monomial index (letters are 0-based)."""
    out = []
    for i, e in enumerate(exps):
        out.extend([i] * e)
    return tuple(out)


def exponents_of(word) -> tuple[int, ...]:
    exps = [0] * N_GENS
    for letter in word:
        exps[letter] += 1
    return tuple(exps)


def _redexes(w: list) -> list[tuple[int, str]]:
    out = []
    for i in range(len(w) - 1):
        if (w[i], w[i + 1]) == _LHS:
            out.append((i, "straighten"))
        elif w[i] > w[i + 1]:
            out.append((i, "swap"))
    return out


def normal_form_word(
    G: GrGrassmannian,
    word,
    rng: Optional[random.Random] = None,
    budget: int = DEFAULT_STEP_BUDGET,
) -> tuple[int, tuple[int, ...]]:
    """Rewrite a word to its standard monomial; returns (zeta exponent, index).

    Deterministic strategy: straightening redexes first, then the leftmost
    swap.  Passing an rng picks a uniformly random redex at every step,
    which the confluence tests use to show strategy independence.  Both
    rules strictly decrease the letter sequence lexicographically, so the
    loop terminates; the budget guards against presentation bugs rather
    than genuine divergence, and overrunning it is an error, never a
    silent truncation.
    """
    w = list(word)
    if any(not (0 <= letter < N_GENS) for letter in w):
        raise DomainError(f"letters must be in [0, {N_GENS})")
    zeta_exp = 0
    steps = 0
    while True:
        redexes = _redexes(w)
        if not redexes:
            return zeta_exp % G.field.ell, exponents_of(w)
        if steps >= budget:
            raise BudgetExceeded(
                f"no normal form after {budget} steps (word length {len(word)})"
            )
        if rng is not None:
            i, kind = redexes[rng.randrange(len(redexes))]
        else:
            i, kind = next(
                ((j, k) for j, k in redexes if k == "straighten"), redexes[0]
            )
        if kind == "straighten":
            zeta_exp += G.t_exp
            w[i], w[i + 1] = _RHS
        else:
            zeta_exp += G.s[w[i]][w[i + 1]]
            w[i], w[i + 1] = w[i + 1], w[i]
        steps += 1


def is_standard(exps) -> bool:
    return exps[_LHS[0]] == 0 or exps[_LHS[1]] == 0


def census_degree(exps) -> int:
    return sum(map(operator.mul, exps, CENSUS_DEGREES))


def ell_centre_module_basis(ell: int) -> tuple[tuple[int, ...], ...]:
    """The distinguished family over the ell-centre.

    It is not a free basis: it has 40 elements at ell = 2, where the
    generic rank of R over the ell-th powers is 2^5 = 32 (see the module
    docstring).  Standard monomials with all exponents in [0, ell)
    subject to k2 + ki < ell or ki + k5 < ell, where ki is the exponent of
    whichever of x3, x4 occurs; the two families overlap exactly when
    k3 = k4 = 0, which the set construction deduplicates.
    """
    if ell < 2:
        raise DomainError("the basis enumeration needs ell >= 2")
    out = set()
    for mid in _LHS:  # x3 or x4
        for k1 in range(ell):
            for k2 in range(ell):
                for ki in range(ell):
                    for k5 in range(ell):
                        if not (k2 + ki < ell or ki + k5 < ell):
                            continue
                        for k6 in range(ell):
                            exps = [k1, k2, 0, 0, k5, k6]
                            exps[mid] = ki
                            out.add(tuple(exps))
    return tuple(sorted(out))


def standard_monomials_by_degree(cutoff: int) -> dict[int, list[tuple[int, ...]]]:
    """All standard monomials of census degree at most cutoff, by degree."""
    buckets: dict[int, list] = {d: [] for d in range(cutoff + 1)}
    for exps in weighted_exponents(CENSUS_DEGREES, cutoff):
        if is_standard(exps):
            buckets[census_degree(exps)].append(exps)
    return buckets


def central_standard_monomials(ell: int, cutoff: int) -> list[tuple[int, ...]]:
    """Standard monomials of the ell-centre (all exponents multiples of ell)
    with census degree at most cutoff, in lexicographic order."""
    return [
        tuple([ell * e for e in m])
        for m in weighted_exponents(CENSUS_DEGREES, cutoff // ell)
        if is_standard(m)
    ]


def family_counts(ell: int) -> dict[int, int]:
    """The distinguished family counted by census degree, as a product of
    generating polynomials: x1 and x6 range freely over [0, ell), and for
    each (k2, k5) the middle factor is 1 (neither x3 nor x4) plus x3^ki or
    x4^ki for 1 <= ki < ell - min(k2, k5), which is the condition
    k2 + ki < ell or ki + k5 < ell."""
    if ell < 2:
        raise DomainError("the basis enumeration needs ell >= 2")
    w1, w2, w3, w4, w5, w6 = CENSUS_DEGREES
    middle: dict[int, int] = {}
    for k2 in range(ell):
        for k5 in range(ell):
            base = w2 * k2 + w5 * k5
            middle[base] = middle.get(base, 0) + 1
            for ki in range(1, ell - min(k2, k5)):
                for w in (w3, w4):
                    middle[base + w * ki] = middle.get(base + w * ki, 0) + 1
    counts = middle
    for w in (w1, w6):
        free: dict[int, int] = {}
        for d, c in counts.items():
            for k in range(ell):
                free[d + w * k] = free.get(d + w * k, 0) + c
        counts = free
    return counts


def hilbert_series(terms: int) -> list[int]:
    """The first `terms` coefficients of H_R, counting the standard
    monomials one generator factor at a time: x1, x2, x5, x6 each divide by
    1 - t^w, and since k3 * k4 = 0 the pair (x3, x4) contributes
    1/(1 - t^w3) + 1/(1 - t^w4) - 1."""

    def divide(series, w):
        out = list(series)
        for i in range(w, terms):
            out[i] += out[i - w]
        return out

    series = [1] + [0] * (terms - 1)
    for k, w in enumerate(CENSUS_DEGREES):
        if k not in _LHS:
            series = divide(series, w)
    with_x3 = divide(series, CENSUS_DEGREES[_LHS[0]])
    with_x4 = divide(series, CENSUS_DEGREES[_LHS[1]])
    return [a + b - c for a, b, c in zip(with_x3, with_x4, series)]


def freeness_obstruction(ell: int, terms: int) -> Optional[tuple[int, int]]:
    """The first negative coefficient of H_R / H_Z0 as (degree, coefficient),
    dividing the truncated series to `terms` terms; None if there is none.

    If R were graded-free over Z0 with basis degrees D, then H_R = H_Z0 *
    sum over d in D of t^d, and the quotient would have non-negative
    coefficients.  A finitely generated graded projective module over a
    connected graded ring is free (graded Nakayama lemma), so a negative
    coefficient proves that R is not projective over Z0, hence not a
    Frobenius extension of Z0.
    """
    h_r = hilbert_series(terms)
    # e -> ell * e maps the standard monomials onto the central standard
    # monomials, which span Z0, so H_Z0(t) = H_R(t^ell)
    h_z = [h_r[k // ell] if k % ell == 0 else 0 for k in range(terms)]
    steps = [(k, c) for k, c in enumerate(h_z) if k and c]
    quotient: list[int] = []
    for n in range(terms):
        q = h_r[n] - sum(c * quotient[n - k] for k, c in steps if k <= n)
        if q < 0:
            return n, q
        quotient.append(q)
    return None


@dataclass
class CensusReport:
    ell: int
    basis_size: int
    counts: dict  # census degree -> number of family elements
    max_degree: int
    symmetry_d: Optional[int]
    # (degree, coefficient) of the first negative term of H_R / H_Z0
    obstruction: Optional[tuple]
    series_terms: int
    verdict: str
    paper_agreement: dict

    def format(self) -> str:
        lines = [
            f"ell: {self.ell}",
            f"basis_size: {self.basis_size}",
            f"max_degree: {self.max_degree}",
        ]
        for d in sorted(self.counts):
            lines.append(f"count[{d}]: {self.counts[d]}")
        lines.append(
            f"symmetry_d: {self.symmetry_d if self.symmetry_d is not None else 'none'}"
        )
        lines.append("symmetry_scope: family, not a free basis")
        if self.obstruction is None:
            lines.append(f"freeness_obstruction: none to degree {self.series_terms - 1}")
        else:
            d, c = self.obstruction
            lines.append(
                f"freeness_obstruction: coefficient {c} at t^{d} of H_R/H_Z0, "
                "Z0 the subring of ell-th powers"
            )
        lines.append(f"verdict: {self.verdict}")
        for key in sorted(self.paper_agreement):
            lines.append(
                f"paper_agreement[{key}]: "
                f"{'agree' if self.paper_agreement[key] else 'DISAGREE'}"
            )
        return "\n".join(lines)


def degree_census(ell: int) -> CensusReport:
    """Count the distinguished family by census degree and certify that R
    is not a Frobenius extension of Z0, the subring of ell-th powers.

    The verdict rests on the freeness obstruction alone: a negative
    coefficient of H_R / H_Z0 within 12 * ell terms.  The symmetry witness
    is computed on the family's degrees and reported for information only,
    since the family is not a free basis.  None of this involves the
    commutation scalars, so the census takes none.
    The agreement flags compare three published counts against the family:
    two elements in degree 1, top degree 8(ell-1), and an empty level just
    below the top.
    """
    counts = family_counts(ell)
    max_degree = max(counts)
    ms = DegreeMultiset.from_counts(
        {GroupElement((d,)): m for d, m in counts.items()}
    )
    witness = multiset_symmetry_witness(ms)
    terms = 12 * ell
    obstruction = freeness_obstruction(ell, terms)
    verdict = "not-frobenius" if obstruction is not None else "inconclusive"
    top = 8 * (ell - 1)
    agreement = {
        "degree_1_count_is_2": counts.get(1, 0) == 2,
        "max_degree_is_8(ell-1)": max_degree == top,
        "no_elements_of_degree_8(ell-1)-1": counts.get(top - 1, 0) == 0,
    }
    return CensusReport(
        ell=ell,
        basis_size=sum(counts.values()),
        counts=counts,
        max_degree=max_degree,
        symmetry_d=None if witness is None else witness.coords[0],
        obstruction=obstruction,
        series_terms=terms,
        verdict=verdict,
        paper_agreement=agreement,
    )


@dataclass
class FreenessReport:
    ok: bool
    cutoff: int
    mode: str
    per_degree: dict  # degree -> (pairs, standard monomials)
    counterexample: Optional[str] = None
    # match mode only: ((z, b), (z', b'), common standard monomial)
    collision: Optional[tuple] = None
    # match mode only, when no collision exists: a standard monomial no
    # product reaches
    unreached: Optional[tuple] = None


def _product_pass(G: GrGrassmannian, pairs, targets):
    """The first collision among the products z * b, else the first target
    they miss; (None, None) when they reach every target once."""
    seen: dict = {}
    for z, b in pairs:
        _, target = normal_form_word(G, word_of(z) + word_of(b))
        if target in seen:
            return (seen[target], (z, b), target), None
        seen[target] = (z, b)
    missing = sorted(set(targets) - set(seen))
    return None, (missing[0] if missing else None)


def verify_freeness_window(
    G: GrGrassmannian, cutoff: int, mode: str = "match"
) -> FreenessReport:
    """Check degree by degree up to the cutoff that central standard
    monomials times basis elements sweep out all standard monomials.

    The sweep stops at the first degree that fails.  Mode 'match' demands
    an explicit bijection: products are computed with the rewriting oracle,
    also when the counts already differ, and the first collision (else the
    first unreached standard monomial) is reported.  Mode 'count' only
    compares cardinalities per degree.
    """
    ell = G.field.ell
    basis = ell_centre_module_basis(ell)
    basis_by_deg: dict[int, list] = {}
    for b in basis:
        basis_by_deg.setdefault(census_degree(b), []).append(b)
    central = central_standard_monomials(ell, cutoff)
    central_by_deg: dict[int, list] = {}
    for z in central:
        central_by_deg.setdefault(census_degree(z), []).append(z)
    std = standard_monomials_by_degree(cutoff)

    per_degree = {}
    for d in range(cutoff + 1):
        pairs = []
        for dz, zs in central_by_deg.items():
            if dz > d:
                continue
            for b in basis_by_deg.get(d - dz, ()):
                for z in zs:
                    pairs.append((z, b))
        targets = std[d]
        per_degree[d] = (len(pairs), len(targets))
        problems = []
        if len(pairs) != len(targets):
            problems.append(
                f"{len(pairs)} products vs {len(targets)} standard monomials"
            )
        collision = unreached = None
        if mode == "match":
            collision, unreached = _product_pass(G, pairs, targets)
            if collision is not None:
                first, second, target = collision
                problems.append(f"{first} and {second} both reduce to {target}")
            elif unreached is not None:
                problems.append(f"standard monomial {unreached} is not reached")
        if problems:
            return FreenessReport(
                False, cutoff, mode, per_degree,
                f"degree {d}: " + "; ".join(problems), collision, unreached,
            )
    return FreenessReport(True, cutoff, mode, per_degree)
