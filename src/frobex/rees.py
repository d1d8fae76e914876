"""Rees algebras of non-negatively filtered based algebras.

The Rees algebra collects the filtration pieces R_g along the positive cone:
basis indices are pairs (b, g) with b a base index, g a non-negative integer
and deg(b) <= g, multiplied by (b, g) * (c, h) = sum of (t, g + h) over the
base product terms (every t stays admissible because the base filtration is
submultiplicative).  Setting the cone parameter to 0 recovers the associated
graded algebra; setting it to 1 recovers the base algebra.  Both reductions
are exposed as explicit quotient maps with exhaustive windowed checks.

Rees algebras are infinite; every verification here is performed degree by
degree inside a finite window and is labeled as a windowed verification,
not a proof.  The base must be filtered by a rank-one degree group (the
integers): ``rees_of`` refuses any other, so cone degrees, windows and
shifts are plain ints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Optional

from .algcore import BasedAlgebra, gr_of
from .errors import DomainError, UnsupportedStructure
from .frobenius import CentralFreeExtension, ProjectionForm, product_window
from .grpdeg import GroupElement
from .qas import RestrictedBasisEngine


def _degree(A: BasedAlgebra, b) -> int:
    """deg b in the rank-one base A, as an int."""
    return A.degree_of(b).coords[0]


@dataclass(frozen=True)
class ReesAlgebra:
    base: BasedAlgebra
    window: int
    algebra: BasedAlgebra

    @property
    def field(self):
        return self.base.field


def rees_of(A: BasedAlgebra, window: int) -> ReesAlgebra:
    """Build the Rees algebra of a non-negatively filtered based algebra
    whose degree group has rank one.

    The window bounds the enumerations performed by the checking helpers;
    multiplication itself is exact and unwindowed.
    """
    if len(A.degree_of(A.one)) != 1:
        raise UnsupportedStructure(f"the Rees algebra of {A.name} needs a rank-one degree group")
    if window < 0:
        raise DomainError(f"window {window} is negative")
    fld = A.field

    def mul(i, j):
        (b, g), (c, h) = i, j
        gh = g + h
        out = {}
        for t, coeff in A.mul_indices(b, c).items():
            out[(t, gh)] = coeff
        return out

    def index_str(idx):
        b, g = idx
        return f"({A.index_str(b)}, t^{g})"

    algebra = BasedAlgebra(
        field=fld,
        mode="graded",
        one=(A.one, 0),
        # the certificate code measures degrees as group elements
        degree_of=lambda idx: GroupElement((idx[1],)),
        mul_indices=mul,
        index_str=index_str,
        generator_indices=tuple((g, _degree(A, g)) for g in A.generator_indices) + ((A.one, 1),),
        generator_names=A.generator_names + ("t",),
        name=f"rees({A.name})",
        index_key=lambda idx: (idx[1], idx[0]),
    )
    return ReesAlgebra(base=A, window=window, algebra=algebra)


def enumerate_admissible(RA: ReesAlgebra, bound: int) -> Iterator[tuple]:
    """All admissible (b, g) with g <= bound, by g and then in the base's
    enumeration order."""
    if RA.base.enumerate_up_to is None:
        raise UnsupportedStructure(f"{RA.base.name} does not enumerate its indices")
    for g in range(bound + 1):
        for b in RA.base.enumerate_up_to(GroupElement((g,))):
            yield (b, g)


@dataclass(frozen=True)
class ConeReduction:
    """Quotient of the Rees algebra at a maximal ideal of the cone algebra.

    The cone parameter is sent to the given scalar: 0 recovers the
    associated graded algebra, 1 recovers the base algebra, and any other
    scalar gives a quotient isomorphic to the base with rescaled filtration
    pieces (the remaining maximal ideals of the cone line).
    """

    rees: ReesAlgebra
    scalar: int
    target: BasedAlgebra

    def map_term(self, idx) -> Optional[tuple]:
        """Image (target index, coefficient) of a Rees index, or None.

        Scalar 0 keeps only top symbols (the quotient by the cone's
        augmentation ideal); a nonzero scalar c evaluates the cone
        parameter, sending (b, g) to c^g * b.
        """
        b, g = idx
        if self.scalar == 0:
            return (b, 1) if g == _degree(self.rees.base, b) else None
        return (b, pow(self.scalar, g, self.target.field.p))


def cone_reduction(RA: ReesAlgebra, scalar: int) -> ConeReduction:
    """Reduction at the point sending the cone parameter to the scalar."""
    scalar %= RA.base.field.p
    target = gr_of(RA.base) if scalar == 0 else RA.base
    return ConeReduction(rees=RA, scalar=scalar, target=target)


def check_reduction_tables(RA: ReesAlgebra, reductions) -> list:
    """Exhaustively verify within the Rees algebra's window that cone
    reductions are algebra maps whose structure constants match their
    targets' tables.

    Every admissible pair (u, v) with deg u + deg v <= window is visited
    once, in the order u, then v, of ``enumerate_admissible``; since that
    order ascends in cone degree, the partners of u of degree g are a prefix
    of it, and only that prefix is visited.  Each reduction maps every
    index of the window once.  Each pair's Rees product is made once and
    checked by every reduction that has not failed yet.

    Returns one entry per reduction, in input order: None if it passed,
    else the failure message; a reduction fails at the unit or at its first
    non-multiplicative pair.
    """
    RAlg = RA.algebra
    p = RA.field.p
    indices = list(enumerate_admissible(RA, RA.window))
    result = []
    live = []  # (position, reduction, index -> map_term) until it fails
    for red in reductions:
        if red.map_term(RAlg.one) != (red.target.one, 1):
            result.append(f"{red.scalar} reduction does not send unit to unit")
        else:
            result.append(None)
            live.append((len(result) - 1, red, {i: red.map_term(i) for i in indices}))
    limit = RA.window
    # ends[h] = number of indices of cone degree <= h
    counts = Counter(g for _, g in indices)
    ends = list(accumulate(counts[h] for h in range(limit + 1)))
    for u in indices:
        u_image = {k: image[u] for k, _, image in live}  # looked up once per row
        for v in indices[: ends[limit - u[1]]]:
            if not live:
                return result
            prod = RAlg.mul_indices(u, v)
            failed = False
            for k, red, image in live:
                # a reduction keeps the base index and a product's terms share
                # one cone degree, so the images of distinct terms are distinct
                got = {}
                for t, c in prod.items():
                    # only a base that is not submultiplicative puts a term of
                    # a product of in-window factors outside the window
                    mapped = image[t] if t in image else red.map_term(t)
                    if mapped is not None:
                        got[mapped[0]] = c * mapped[1] % p
                iu, iv = u_image[k], image[v]
                if iu is None or iv is None:
                    ok = not got
                else:
                    # the oracle's coefficients lie in [1, p), so at scale 1
                    # (m0 and m1 on every pair) want is compared as it is
                    scale = iu[1] * iv[1] % p
                    want = red.target.mul_indices(iu[0], iv[0])
                    ok = got == (want if scale == 1 else {t: c * scale % p for t, c in want.items()})
                if not ok:
                    result[k] = f"cone reduction at {red.scalar} is not multiplicative at {u}, {v}"
                    failed = True
            if failed:
                live = [entry for entry in live if result[entry[0]] is None]
    return result


def check_cone_freeness(RA: ReesAlgebra) -> None:
    """Check exhaustively within the Rees algebra's window that the
    degree-matched pairs (b, deg b) generate it freely over the cone: every
    admissible (b, g) in the window factors exactly as
    (b, deg b) * (1, g - deg b)."""
    A = RA.base
    RAlg = RA.algebra
    for b, g in enumerate_admissible(RA, RA.window):
        db = _degree(A, b)
        if RAlg.mul_indices((b, db), (A.one, g - db)) != {(b, g): 1}:
            raise DomainError(f"({b}, {g}) does not factor through the cone")


class ReesEngine:
    """Free decomposition of Rees(R) over Rees(S), induced by the base engine.

    The distinguished basis is (b, deg b) for b in the base basis; the slot
    coefficient of (r, g) at (b, deg b) is the base coefficient shifted to
    cone position g - deg b.  A subring index (s, g) has the exponents of s
    and g - deg s on the cone generator (1, 1), so Rees(S) is a polynomial
    ring with one variable more than S.
    """

    def __init__(self, RA: ReesAlgebra, base_engine):
        self.rees = RA
        self.algebra = RA.algebra
        self.base_engine = base_engine
        A = RA.base
        self.basis = tuple(
            sorted(((b, _degree(A, b)) for b in base_engine.basis), key=self.algebra.index_key)
        )
        self.subring_generators = tuple(
            (s, _degree(A, s)) for s in base_engine.subring_generators
        ) + ((A.one, 1),)
        self._splits: dict = {}

    # the engines share one decomposition loop over ``split``
    decompose = RestrictedBasisEngine.decompose

    def split(self, idx) -> tuple:
        """((r, deg r), (s, g - deg r), 1/c) for a Rees index (b, g), where
        (r, s, 1/c) is the base split of b; memoized, and raises DomainError
        if deg b > g."""
        split = self._splits.get(idx)
        if split is None:
            A = self.rees.base
            b, g = idx
            if _degree(A, b) > g:
                raise DomainError(f"({b}, {g}) is not admissible")
            r, s, inv = self.base_engine.split(b)
            dr = _degree(A, r)
            split = self._splits[idx] = ((r, dr), (s, g - dr), inv)
        return split

    def exponents(self, idx) -> tuple:
        sidx, g = idx
        return self.base_engine.exponents(sidx) + (g - _degree(self.rees.base, sidx),)

    def partners(self, slot) -> None:
        """No grading is proved on Rees algebras: every Gram build is full."""
        return None


def rees_extension(
    E: CentralFreeExtension, window: Optional[int] = None
) -> tuple[ReesAlgebra, CentralFreeExtension]:
    """The validated extension Rees(S) inside Rees(R), with the transported form.

    A projection onto base slot s becomes the projection onto the Rees slot
    (s, deg s), which sends (r, g) to (Phi(r), g - deg s): homogeneous of
    the base form's mapping degree -deg s.  Default window:
    ``product_window(E)``, which covers every product the windowed checks
    look at.
    """
    if not isinstance(E.form, ProjectionForm):
        raise UnsupportedStructure("can only transport slot-projection forms")
    A = E.ambient
    RA = rees_of(A, product_window(E).coords[0] if window is None else window)
    engine = ReesEngine(RA, E.engine)
    s = E.form.slot
    form = ProjectionForm(engine, (s, _degree(A, s)))
    ext = CentralFreeExtension(RA.algebra, engine, form, name=f"rees({E.name})")
    ext.validate()
    return RA, ext
