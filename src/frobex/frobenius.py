"""Frobenius-extension verification for central free extensions.

A central free extension packages a based algebra R, a central subring S
described through a decomposition engine (R is free over S with a
distinguished finite basis B), and a left-S-linear form Phi: R -> S.  The
extension is certified Frobenius when

  * every basis element admits two-sided witnesses b, c with Phi(b*c) != 0
    and Phi(c*b) != 0 (the kernel of Phi pins no one-sided ideal to zero on
    the basis), and
  * the Gram matrix M[b][c] = Phi(b*c) has unit determinant over S, which
    for free modules over the commutative ring S is exactly invertibility
    of r |-> Phi(r * -) onto the dual.

A basis element without a right witness is a zero row of M, one without a
left witness a zero column, so the determinant test's structure scan
decides the first condition as well.

Refutations are certified through the degree-multiset symmetry obstruction:
the multiset of basis degrees of a graded Frobenius extension must satisfy
mult(e) == mult(d - e) for the unique candidate shift d.

Determinant strategy over S: one union-find pass splits M's nonzero
pattern into connected blocks.  Every form here is homogeneous for a
grading the product respects, so M is block diagonal up to a row and a
column permutation, and det M is +-1 times the product of the block
determinants (Dulmage and Mendelsohn, Canad. J. Math. 10, 1958; Pothen and
Fan, ACM TOMS 16, 1990).  A block that is not square makes det M zero;
every square block goes to one fraction-free elimination.  S is a
polynomial ring over F_p, a domain whose units are the nonzero constants,
so M is a unit exactly when no block determinant is 0 and their total
degrees add up to 0.

The Gram matrix is built once per extension and form, stored as sparse
rows of its nonzero entries, and shared by the determinant test, the
Nakayama solve and reduction at points; see ``CentralFreeExtension.gram``.
A slot projection on an engine that has proved the exponent grading
computes one entry per row, the rest being zero by that proof; any other
form computes all rank^2 entries.  On the same proof the Nakayama solve
multiplies only the term pairs that can reach the slot.  The determinant
test's structure scan rides on its status, and the Nakayama solve reads it
from there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .algcore import BasedAlgebra, Element, filtered_degree, gr_of, mul_pairs, mul_terms
from .errors import (
    AlgebraDefinitionError,
    DomainError,
    HomogeneityError,
    UnsupportedStructure,
)
from .grpdeg import DegreeMultiset, GroupElement, multiset_symmetry_witness
from .qas import RestrictedBasisEngine


# ---------------------------------------------------------------------------
# dense linear algebra mod p
# ---------------------------------------------------------------------------


def _gauss_jordan(rows: list[list[int]], p: int, inverse: bool = False):
    """Eliminate a dense matrix over F_p; returns (rank, det, inv).

    ``det`` is the determinant of a square matrix (0 when it is singular).
    With ``inverse`` the identity rides along and is reduced as well, so
    ``inv`` is the inverse of an invertible square matrix, else None;
    without it only the rows below each pivot are cleared, which is all
    rank and det need.  A 1x1 matrix is read off its one entry.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == n == 1:
        x = rows[0][0] % p
        return int(x != 0), x, [[pow(x, -1, p)]] if inverse and x else None
    A = [
        [x % p for x in row] + ([int(i == j) for j in range(m)] if inverse else [])
        for i, row in enumerate(rows)
    ]
    r = 0
    det = 1
    for c in range(n):
        pivot = next((i for i in range(r, m) if A[i][c]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != r:
            A[r], A[pivot] = A[pivot], A[r]
            det = -det
        det = det * A[r][c] % p
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(0 if inverse else r + 1, m):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        r += 1
        if r == m:
            break
    if r < n:
        det = 0
    full = inverse and r == m == n
    return r, det % p, [row[n:] for row in A] if full else None


def fp_rank(rows: list[list[int]], p: int) -> int:
    """Rank of a dense matrix over F_p."""
    return _gauss_jordan(rows, p)[0]


def fp_det(rows: list[list[int]], p: int) -> int:
    """Determinant of a square matrix over F_p."""
    return _gauss_jordan(rows, p)[1]


def fp_inverse(rows: list[list[int]], p: int) -> Optional[list[list[int]]]:
    """Inverse of a square matrix over F_p, or None when it is singular."""
    return _gauss_jordan(rows, p, inverse=True)[2]


# ---------------------------------------------------------------------------
# forms and extensions
# ---------------------------------------------------------------------------


def reassemble(algebra: BasedAlgebra, slots: dict) -> Element:
    """sum over r of z_r * b_r for a decomposition {r: z_r}."""
    total: dict = {}
    for r, z in slots.items():
        for idx, c in mul_terms(algebra, z.terms, {r: 1}).items():
            total[idx] = total.get(idx, 0) + c
    return Element(algebra.field, total)


class ProjectionForm:
    """Projection onto one slot of a free decomposition.

    This is the shape of every distinguished form in the package: the
    quantum affine space form is the projection onto the top restricted
    slot, filtered lifts reuse the same slot against the filtered
    decomposition (the lift recipe is literally 'same slot, new engine'),
    and the Rees form projects onto the slot (s, deg s) of the Rees engine.
    The dual basis functional of basis element b is the projection onto
    slot b.  A form maps a reduced term dict {index: coefficient in [1, p)}
    to a reduced term dict, its value in S.  A call splits every term of
    its input through the engine's memoized ``split`` and keeps the terms
    that land on its slot.  Each central index s takes exactly one of them,
    c * (1/c') with both factors in [1, p), so the output is reduced
    whenever the input is.  A form's degree is what ``mapping_degree``
    measures.
    """

    __slots__ = ("engine", "slot")

    def __init__(self, engine, slot):
        self.engine = engine
        self.slot = slot

    def __call__(self, terms: dict) -> dict:
        split, slot, p = self.engine.split, self.slot, self.engine.algebra.field.p
        out: dict = {}
        for idx, c in terms.items():
            r, s, inv = split(idx)
            if r == slot:
                out[s] = c * inv % p
        return out

    def __repr__(self):
        return f"ProjectionForm(slot={self.slot})"


class CentralFreeExtension:
    """A based algebra R, free over a central subring S, with a form R -> S.

    The form maps a reduced term dict of R to a reduced term dict of S, as
    ``ProjectionForm`` does.  It must be S-linear, as a Frobenius form is:
    the Gram build reads its values on monomials only, and
    ``mapping_degree`` reads Phi(b) = M[b][unit] off the Gram system.
    """

    def __init__(
        self,
        ambient: BasedAlgebra,
        engine,
        form: Optional[Callable[[dict], dict]],
        name: Optional[str] = None,
    ):
        self.ambient = ambient
        self.engine = engine
        self.form = form
        self.name = name or f"ell-centre of {ambient.name}"
        self._gram: Optional[list[dict[int, Element]]] = None
        self._gram_form = None  # the form object self._gram was built for

    @property
    def basis(self) -> tuple:
        return self.engine.basis

    def with_form(self, form) -> "CentralFreeExtension":
        return CentralFreeExtension(self.ambient, self.engine, form, self.name)

    def partners(self) -> Optional[list]:
        """The engine's partners of the form's slot when the exponent
        grading is proved for this form, else None: the one condition on
        which ``gram()`` and the Nakayama solve skip products.  The form
        must be a ``ProjectionForm`` on this extension's own engine, whose
        algebra is the ambient itself (a grading proved on another
        algebra's product does not carry over) and which has proved the
        grading (``RestrictedBasisEngine.graded``).  Then x^s * x^t lies on
        s + t and reaches the slot only when (s + t) mod ell is the slot.
        """
        form, engine, A = self.form, self.engine, self.ambient
        if isinstance(form, ProjectionForm) and form.engine is engine and engine.algebra is A:
            return engine.partners(form.slot)
        return None

    def gram(self) -> list[dict[int, Element]]:
        """The Gram matrix M[i][j] = Phi(b_i * b_j), built once per form.

        Row i is a dict {j: M[i][j]} of its nonzero entries, a missing
        column being a zero entry.  Each row computes the entries of its
        column set and stores those that are nonzero.  The column set is
        the whole basis, except where ``partners`` names the proved
        grading: there b * c lands on slot b + c mod ell, so the one column
        that can be nonzero is the partner of b, and a row costs one
        product.
        Each computed entry makes one product and, Phi being linear, sums
        c_t * Phi(x^t) over the product's terms c_t * x^t.  Phi is evaluated
        once per distinct index t, so an entry whose terms all map to zero
        costs its product and a table lookup.  M is assigned only once
        complete, so a form that raises leaves no partial matrix.  The rows
        are cached and must not be changed; ``gram_matrix`` hands out copies.
        """
        form = self.form
        if form is None:
            raise DomainError("extension carries no form")
        if self._gram is None or self._gram_form is not form:
            A = self.ambient
            basis = self.basis
            fld, mul = A.field, A.mul_indices
            partners = self.partners()
            rank = len(basis)
            columns = [range(rank)] * rank if partners is None else [(j,) for j in partners]
            images: dict = {}  # index t -> the terms of Phi(x^t)
            gram = []
            for b, cols in zip(basis, columns):
                row = {}
                for j in cols:
                    acc: dict = {}
                    for t, k in mul(b, basis[j]).items():
                        image = images.get(t)
                        if image is None:
                            image = images[t] = form({t: 1})
                        for s, v in image.items():
                            acc[s] = acc.get(s, 0) + k * v
                    if acc and (entry := Element(fld, acc)):
                        row[j] = entry
                gram.append(row)
            self._gram, self._gram_form = gram, form
        return self._gram

    def validate(self) -> None:
        """Cheap structural checks: S central and commutative on generators,
        decomposition exact on the distinguished basis."""
        A = self.ambient
        gens = self.engine.subring_generators
        # oracle dicts are reduced: equal products are equal dicts
        for s in gens:
            for g in A.generator_indices:
                if A.mul_indices(s, g) != A.mul_indices(g, s):
                    raise UnsupportedStructure(
                        f"subring generator {s} is not central in {A.name}"
                    )
        for i, s in enumerate(gens):
            for t in gens[i + 1:]:
                if A.mul_indices(s, t) != A.mul_indices(t, s):
                    raise UnsupportedStructure("subring is not commutative")
        for b in self.basis:
            mono = A.monomial(b)
            if reassemble(A, self.engine.decompose(mono)) != mono:
                raise AlgebraDefinitionError(
                    f"decomposition round trip fails on basis index {b}"
                )

    def degree_multiset(self) -> DegreeMultiset:
        return DegreeMultiset(self.ambient.degree_of(b) for b in self.basis)

    def __repr__(self):
        return f"CentralFreeExtension({self.name}, rank={len(self.basis)})"


def ell_centre_extension(algebra: BasedAlgebra, ell: int) -> CentralFreeExtension:
    """The validated extension of an exponent-indexed algebra over its
    ell-centre, with the top restricted slot projection as its form."""
    engine = RestrictedBasisEngine(algebra, ell)
    ext = CentralFreeExtension(algebra, engine, ProjectionForm(engine, engine.top_slot()))
    ext.validate()
    return ext


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class GramStatus:
    kind: str  # unit-determinant | singular
    method: str
    detail: str = ""
    # (position, side) of the first basis element without a two-sided witness
    zero_line: Optional[tuple] = None
    # the structure scan the verdict was read from; the Nakayama solve
    # reads it rather than scanning M again
    structure: Optional[GramStructure] = field(default=None, compare=False, repr=False)

    def __str__(self):
        return self.kind


@dataclass
class FrobeniusCertificate:
    verdict: str  # frobenius | not-frobenius
    rank: int
    phi_degree: Optional[GroupElement]
    symmetry_d: Optional[GroupElement]
    gram_status: GramStatus
    f1_witnesses: int  # basis elements with two-sided witnesses, in basis order
    refutation: Optional[dict] = None
    nakayama: Optional[dict] = None
    nakayama_trivial: Optional[bool] = None
    notes: tuple = ()


def gram_matrix(E: CentralFreeExtension) -> list[dict[int, Element]]:
    """M[i] = {j: Phi(b_i * b_j)} over the nonzero entries, supported on the
    subring; a copy of the extension's cached Gram rows."""
    return [dict(row) for row in E.gram()]


def _blocks(M: list[dict]) -> list[tuple[list[int], list[int]]]:
    """Connected components (rows, cols) of a square matrix's nonzero pattern.

    ``M[i]`` is row i, a Gram or pairing row whose keys are the columns of
    its nonzero entries.  Row i and column j are joined when M[i] has key j,
    so a zero row is a 1x0 component and a zero column a 0x1 one.  Rows and columns come sorted,
    and the components in the order of their first row, column-only ones
    last.
    """
    n = len(M)
    parent = list(range(2 * n))  # row i is node i, column j node n + j

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for i, row in enumerate(M):
        for j in row:
            parent[find(n + j)] = find(i)
    components: dict = {}
    for x in range(2 * n):
        components.setdefault(find(x), ([], []))[x >= n].append(x % n)
    return list(components.values())


@dataclass
class GramStructure:
    """The shape of a Gram matrix that the determinant test and the
    Nakayama solve read.

    ``blocks`` are the connected components of M's sparse rows, read from
    their keys (see ``_blocks``).  ``zero_line`` is (i, "right") for a zero
    row i, whose basis element has no right witness, or (i, "left") for a
    zero column i; rows come first at each position.  ``scalar`` says that every
    nonzero entry is a scalar c * 1.
    """

    blocks: list
    zero_line: Optional[tuple]
    scalar: bool


def _gram_structure(M: list[dict[int, Element]], E: CentralFreeExtension) -> GramStructure:
    # M stores its nonzero entries only, so each walk below visits those
    blocks = _blocks(M)
    lines = [(r[0], 0) if r else (c[0], 1) for r, c in blocks if not (r and c)]
    zero_line = None
    if lines:
        i, side = min(lines)
        zero_line = (i, ("right", "left")[side])
    one = (E.ambient.one,)
    scalar = all(tuple(el.terms) == one for row in M for el in row.values())
    return GramStructure(blocks, zero_line, scalar)


def _poly_cross(a: dict, b: dict, c: dict, d: dict, p: int) -> dict:
    """a*b - c*d for polynomials {exponent tuple: coeff} over F_p."""
    out: dict = {}
    for f, g, sign in ((a, b, 1), (c, d, -1)):
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + sign * c1 * c2
    return {e: v % p for e, v in out.items() if v % p}


def _poly_div(f: dict, g: dict, p: int) -> dict:
    """f / g over F_p, one lex-leading term at a time; raises DomainError
    when g does not divide f."""
    lead = max(g)
    inv = pow(g[lead], -1, p)
    f, q = dict(f), {}
    while f:
        top = max(f)
        e = tuple(x - y for x, y in zip(top, lead))
        if min(e) < 0:
            raise DomainError("polynomial division is not exact")
        c = q[e] = f[top] * inv % p
        for t, v in g.items():
            m = tuple(x + y for x, y in zip(e, t))
            f[m] = (f.get(m, 0) - c * v) % p
            if not f[m]:
                del f[m]
    return q


def _poly_det(rows: list[list[dict]], p: int) -> dict:
    """Determinant of a nonempty square matrix over F_p[z_1, ..., z_k].

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): after step
    k every entry right of and below the pivot is a (k+1)-minor of the
    input, so dividing by the previous pivot is exact.  A zero pivot is
    swapped with a lower row, which flips the sign.  A 1x1 matrix is its
    entry.  The determinant test hands it one connected block of a Gram
    matrix at a time, which is mostly nonzero, so no entry is skipped.
    """
    A = [list(row) for row in rows]
    n = len(A)
    sign, prev = 1, None  # None: the first step divides by 1
    for k in range(n - 1):
        if not A[k][k]:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return {}
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                f = _poly_cross(A[k][k], A[i][j], A[i][k], A[k][j], p)
                A[i][j] = f if prev is None else _poly_div(f, prev, p)
        prev = A[k][k]
    return {e: sign * c % p for e, c in A[-1][-1].items()}


def det_is_unit(M: list[dict[int, Element]], E: CentralFreeExtension) -> GramStatus:
    """Decide whether det(M) is a unit of the commutative subring S.

    M is given by sparse rows {column: nonzero entry}, as from
    ``gram_matrix``.  S is a polynomial ring over F_p, whose units are the nonzero scalars,
    so 'singular' below means 'not invertible over S': the determinant is
    zero or a non-constant.  See the module docstring for the strategy.
    A zero row or column is reported in ``zero_line`` as well as in the
    detail.  The status carries the structure scan it was read from.
    """
    structure = _gram_structure(M, E)
    status = _status_of(M, E, structure)
    status.structure = structure
    return status


def _status_of(M, E: CentralFreeExtension, structure: GramStructure) -> GramStatus:
    if structure.zero_line is not None:
        i, side = structure.zero_line
        line = "row" if side == "right" else "column"
        return GramStatus(
            "singular", "structure", detail=f"zero {line} {i}", zero_line=structure.zero_line
        )
    blocks = structure.blocks
    if all(len(rows) == 1 for rows, _ in blocks):
        method, non_unit = "generalized-permutation", "a pivot is a non-unit of the subring"
    else:
        method = "scalar-determinant" if structure.scalar else "exact-determinant"
        non_unit = None
    p, exponents = E.ambient.field.p, E.engine.exponents
    degree = 0
    for rows, cols in blocks:
        det = len(rows) == len(cols) and _poly_det(
            [[{exponents(idx): c for idx, c in M[i][j].terms.items()} if j in M[i] else {}
              for j in cols]
             for i in rows],
            p,
        )
        if not det:
            return GramStatus("singular", method, detail="determinant is 0")
        degree += max(sum(e) for e in det)
    if degree:
        detail = non_unit or f"determinant is non-constant (total degree {degree})"
        return GramStatus("singular", method, detail=detail)
    return GramStatus("unit-determinant", method)


def mapping_degree(E: CentralFreeExtension) -> Optional[GroupElement]:
    """Degree of Phi as a map, measured on the free basis.

    Because the basis realizes the filtration, the maximum of
    deg Phi(b) - deg b over basis elements is the filtered mapping degree.
    In graded mode the shift must be constant across the basis; a
    non-constant shift is a homogeneity violation.  Phi(b) = Phi(b * 1) is
    read off the unit's column of the Gram system.  On the proved grading
    row b stores that column only when b is the slot, and every other
    Phi(b) is 0 by the same proof.
    """
    A = E.ambient
    unit = E.basis.index(A.one)
    shifts = [
        filtered_degree(A, row[unit]) - A.degree_of(b)
        for b, row in zip(E.basis, E.gram())
        if unit in row
    ]
    if not shifts:
        return None
    if A.mode == "graded" and len({s.coords for s in shifts}) > 1:
        raise HomogeneityError(
            f"form on {E.name} has inconsistent degrees {sorted(s.coords for s in shifts)}"
        )
    return max(shifts)


def verify_frobenius(
    E: CentralFreeExtension, rng: Optional[random.Random] = None
) -> FrobeniusCertificate:
    """Run the full certification pipeline and assemble a certificate.

    Steps: degree multiset and its symmetry witness, mapping degree of the
    form (homogeneity enforced in graded mode), Gram determinant test.  The
    test's structure scan also yields the two-sided witnesses: the basis
    elements before its first zero row or column have both, and that line
    is an ``f1-witness-missing`` refutation.  The verdict is ``frobenius``
    only when the Gram determinant is a unit; a missing multiset witness
    refutes the extension independently of the form.  Every step is
    exact, so ``rng`` is ignored; verdictbench's pipeline jobs still pass one.
    """
    if E.form is None:
        raise DomainError("extension carries no form")
    rank = len(E.basis)
    D = E.degree_multiset()
    symmetry_d = multiset_symmetry_witness(D)
    # through the public accessor, before mapping_degree reads the rows:
    # verdictbench's tracer sees a job's Gram build, and its rank, at the
    # gram_matrix boundary; the copy is one pointer per nonzero entry
    M = gram_matrix(E)
    phi_degree = mapping_degree(E)
    status = det_is_unit(M, E)
    witnesses = rank if status.zero_line is None else status.zero_line[0]

    refutation = None
    notes = []
    if symmetry_d is None:
        verdict = "not-frobenius"
        refutation = {
            "kind": "degree-multiset-asymmetry",
            "multiset": D,
            "candidate": D.min() + D.max(),
        }
    elif status.zero_line is not None:
        verdict = "not-frobenius"
        refutation = {
            "kind": "f1-witness-missing",
            "basis_element": E.basis[witnesses],
            "side": status.zero_line[1],
        }
    elif status.kind == "singular":
        verdict = "not-frobenius"
        refutation = {"kind": "gram-not-unit", "detail": status.detail}
    else:
        verdict = "frobenius"
    if phi_degree is not None and symmetry_d is not None:
        relation = symmetry_d + phi_degree
        notes.append(f"symmetry_d + phi_degree = {relation}")
    return FrobeniusCertificate(
        verdict=verdict,
        rank=rank,
        phi_degree=phi_degree,
        symmetry_d=symmetry_d,
        gram_status=status,
        f1_witnesses=witnesses,
        refutation=refutation,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Nakayama automorphism
# ---------------------------------------------------------------------------


@dataclass
class NakayamaResult:
    images: dict  # generator name -> Element
    trivial: bool
    checked_pairs: int


# random pairs on which a Nakayama solve is revalidated
NAKAYAMA_CHECKS = 200


def nakayama_on_generators(
    E: CentralFreeExtension,
    certificate: FrobeniusCertificate,
    rng: Optional[random.Random] = None,
) -> NakayamaResult:
    """Solve Phi(c * g) = Phi(nu(g) * c) for nu on each algebra generator.

    With nu(g) = sum over b of s_b * b and S central, the condition over
    the basis reads  sum_b s_b * M[b][c] = Phi(c * g)  for every c, a
    finite linear system over S.  It is solved when the Gram matrix is
    scalar, block by block over the structure scan that the certificate's
    determinant test made: M^-1 is M's blocks inverted over F_p, a 1x1
    block being a pivot inverted.  The whole-basis identity check below
    guards the solution.  It is then revalidated on NAKAYAMA_CHECKS random
    pairs through an ``_extension`` of nu.  It runs on term dicts through
    ``mul_pairs`` and the form.

    Each Phi of a product (right-hand sides, identity check, both sides of
    the random pairs) multiplies, when ``E.partners()`` names the proved
    grading, only the term pairs that can reach the slot.  These are
    pairs of the computed terms, nu(r)'s included, so no homogeneity of
    nu is assumed.
    """
    if certificate.verdict != "frobenius":
        raise DomainError("Nakayama automorphism requires a frobenius verdict")
    rng = rng or random.Random(0)
    A = E.ambient
    basis = E.basis
    # the determinant test's scan of this Gram system, read, not redone
    structure = certificate.gram_status.structure
    if not structure.scalar:
        raise UnsupportedStructure("Nakayama solve needs a scalar Gram matrix")
    M, one, fld, p = E.gram(), A.one, A.field, A.field.p
    # columns[j] = sum over i of W[j][i] * b_i for W = M^-1; a frobenius
    # verdict makes every block square and invertible
    columns: dict = {}
    for rows, cols in structure.blocks:
        inv = fp_inverse([[M[i][j].terms[one] if j in M[i] else 0 for j in cols] for i in rows], p)
        for j, row in zip(cols, inv):
            columns[j] = {basis[i]: w for i, w in zip(rows, row) if w}

    # on the proved grading x^s * x^t reaches the slot only when the
    # residue classes of s and t are partners; other pairs are not
    # multiplied, and a product with no pair left is 0
    partners = E.partners()
    classes = {b: i for i, b in enumerate(basis)}  # index -> its class's position

    def position(idx) -> int:
        i = classes.get(idx)
        if i is None:
            i = classes[idx] = classes[tuple(e % E.engine.ell for e in idx)]
        return i

    def phi_of(a: dict, b: dict) -> dict:
        pairs = [(u, v) for u in a.items() for v in b.items()
                 if partners is None or partners[position(u[0])] == position(v[0])]
        return E.form(mul_pairs(A, pairs)) if pairs else {}

    by_index, images = {}, {}
    for g_idx, g_name in zip(A.generator_indices, A.generator_names):
        rhs = [phi_of({c: 1}, {g_idx: 1}) for c in basis]
        # nu(g) = sum over j of Phi(b_j * g) * columns[j], S being central
        acc: dict = {}
        for j, v in enumerate(rhs):
            for idx, c in mul_terms(A, v, columns[j]).items() if v else ():
                acc[idx] = acc.get(idx, 0) + c
        nu_g = {idx: c for idx, v in acc.items() if (c := v % p)}
        # defining identity on the whole basis, not only where we solved
        for c, lhs in zip(basis, rhs):
            if lhs != phi_of(nu_g, {c: 1}):
                raise AlgebraDefinitionError(
                    f"Nakayama solve inconsistent at generator {g_name}, basis {c}"
                )
        by_index[g_idx], images[g_name] = nu_g, Element(fld, nu_g)

    trivial = all(by_index[g] == {g: 1} for g in A.generator_indices)
    nu = _extension(A, by_index)
    for _ in range(NAKAYAMA_CHECKS):
        q = _random_terms(E, rng)
        r = _random_terms(E, rng)
        if phi_of(q, r) != phi_of(nu(r), q):
            raise AlgebraDefinitionError(
                f"Nakayama identity fails on a random pair in {E.name}"
            )
    return NakayamaResult(images, trivial, NAKAYAMA_CHECKS)


def _extension(A: BasedAlgebra, images: dict) -> Callable[[dict], dict]:
    """Extend generator images {index: terms} multiplicatively to term
    dicts, leaving values unreduced.  Indices are exponent tuples, so x^a
    is the ordered product of generator powers.  The map owns its tables
    of nu(x_k)^e and nu(x^a), each entry multiplied out once.
    """
    powers: dict = {}  # (k, e) -> nu(x_k)^e, e >= 1
    monomials: dict = {}

    def power(k: int, e: int) -> dict:
        key = (k, e)
        if key not in powers:
            image = images[A.generator_indices[k]]
            powers[key] = image if e == 1 else mul_terms(A, power(k, e - 1), image)
        return powers[key]

    def apply(terms: dict) -> dict:
        out: dict = {}
        for a, c in terms.items():
            img = monomials.get(a)
            if img is None:
                for k, e in enumerate(a):
                    if e:
                        img = power(k, e) if img is None else mul_terms(A, img, power(k, e))
                img = monomials[a] = {A.one: 1} if img is None else img
            for t, v in img.items():
                out[t] = out.get(t, 0) + c * v
        return out

    return apply


def _random_terms(E: CentralFreeExtension, rng: random.Random) -> dict:
    """One or two random terms with random nonzero coefficients."""
    p, draw = E.ambient.field.p, E.engine.random_index
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        idx = draw(rng)  # the index is drawn before its coefficient
        terms[idx] = rng.randrange(1, p)
    return terms


# ---------------------------------------------------------------------------
# reduction at points of Max S
# ---------------------------------------------------------------------------


@dataclass
class ReducedExtension:
    """The finite-dimensional quotient of an extension at a point of Max S;
    ``pairing[i]`` is {j: Phi_lambda(b_i * b_j)} over the values nonzero mod p."""

    point: tuple
    basis: tuple
    pairing: list
    pairing_rank: int
    nondegenerate: bool


def reduce_at_point(E: CentralFreeExtension, point) -> ReducedExtension:
    """Quotient at the point of Max S sending the subring generators to
    the given scalars; the verdict is full rank of the induced pairing."""
    basis = E.basis
    point = tuple(point)
    width = len(E.engine.subring_generators)
    if len(point) != width:
        raise DomainError(f"point has {len(point)} coordinates, expected {width}")
    p = E.ambient.field.p
    exponents = E.engine.exponents

    def value(el: Element) -> int:
        total = 0
        for idx, c in el.terms.items():
            for e, lam in zip(exponents(idx), point):
                c = c * pow(lam, e, p) % p
            total += c
        return total % p

    # the pairing is read from the Gram system, built here if need be; an
    # entry may vanish at the point.  Its rank is the sum of its blocks' ranks.
    pairing = [{j: v for j, el in row.items() if (v := value(el))} for row in E.gram()]
    rank = sum(
        fp_rank([[pairing[i].get(j, 0) for j in cols] for i in rows], p)
        for rows, cols in _blocks(pairing)
    )
    return ReducedExtension(
        point=point,
        basis=basis,
        pairing=pairing,
        pairing_rank=rank,
        nondegenerate=(rank == len(basis)),
    )


# ---------------------------------------------------------------------------
# filtered lifts
# ---------------------------------------------------------------------------


def check_same_products(A1: BasedAlgebra, A2: BasedAlgebra, indices) -> None:
    """Exhaustively compare product tables on the given index set."""
    if A1.field != A2.field:
        raise DomainError(f"{A1.name} and {A2.name} live over different fields")
    idx_list = list(indices)
    for i in idx_list:
        if A1.degree_of(i) != A2.degree_of(i):
            raise DomainError(f"degree functions disagree at {i}")
    mul1, mul2 = A1.mul_indices, A2.mul_indices
    for i in idx_list:
        for j in idx_list:
            if mul1(i, j) != mul2(i, j):
                raise DomainError(
                    f"product tables disagree at {i}, {j}: "
                    f"{A1.name} vs {A2.name}"
                )


def product_window(E: CentralFreeExtension) -> GroupElement:
    """Three times the top basis degree of E: the degree bound of the
    windowed checks, which covers the products they look at."""
    return 3 * max(E.ambient.degree_of(b) for b in E.basis)


def lift_form(
    E_filtered: CentralFreeExtension,
    graded_ext: CentralFreeExtension,
):
    """Canonical filtered lift of a verified homogeneous form.

    The graded extension must be the associated graded of the filtered one
    (checked on product tables over a window when enumeration is available,
    over the basis otherwise) and must itself verify as frobenius.  The
    lift applies the same slot projection to the filtered decomposition;
    on an already graded algebra this returns the form unchanged.
    """
    if graded_ext.ambient.mode != "graded":
        raise DomainError("second argument must be a graded extension")
    grA = gr_of(E_filtered.ambient)
    if grA.enumerate_up_to is not None:
        indices = list(grA.enumerate_up_to(product_window(E_filtered)))
    else:
        indices = list(E_filtered.basis)
    check_same_products(grA, graded_ext.ambient, indices)
    cert = verify_frobenius(graded_ext)
    if cert.verdict != "frobenius":
        raise DomainError(
            f"graded extension is {cert.verdict}; nothing to lift"
        )
    if E_filtered.ambient.mode == "graded":
        return graded_ext.form
    if not isinstance(graded_ext.form, ProjectionForm):
        raise UnsupportedStructure("can only lift slot-projection forms")
    return ProjectionForm(E_filtered.engine, graded_ext.form.slot)


# ---------------------------------------------------------------------------
# certificate serialization
# ---------------------------------------------------------------------------


def format_certificate(cert: FrobeniusCertificate, A: BasedAlgebra) -> str:
    """Structured text report; key names are part of the CLI contract."""
    lines = [
        f"verdict: {cert.verdict}",
        f"rank: {cert.rank}",
        f"phi_degree: {cert.phi_degree if cert.phi_degree is not None else 'none'}",
        f"symmetry_d: {cert.symmetry_d if cert.symmetry_d is not None else 'none'}",
        f"gram_status: {cert.gram_status.kind}",
        f"gram_method: {cert.gram_status.method}",
        "gram_confidence: exact",
    ]
    if cert.gram_status.detail:
        lines.append(f"gram_detail: {cert.gram_status.detail}")
    lines.append(
        f"nakayama_trivial: "
        f"{'unknown' if cert.nakayama_trivial is None else str(cert.nakayama_trivial).lower()}"
    )
    if cert.nakayama:
        parts = [
            f"{name} -> {A.format_element(img)}"
            for name, img in sorted(cert.nakayama.items())
        ]
        lines.append("nakayama: " + "; ".join(parts))
    lines.append(f"f1_witnesses: {cert.f1_witnesses}/{cert.rank}")
    if cert.refutation is not None:
        ref = dict(cert.refutation)
        kind = ref.pop("kind")
        rest = "; ".join(f"{k}={v}" for k, v in sorted(ref.items()))
        lines.append(f"refutation: {kind}" + (f" ({rest})" if rest else ""))
    for note in cert.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


# Gram matrices of larger rank are not printed in reports.
GRAM_BLOCK_MAX_RANK = 32


def format_gram_block(M: list[dict[int, Element]], A: BasedAlgebra) -> str:
    if len(M) > GRAM_BLOCK_MAX_RANK:
        return f"(gram matrix omitted, rank {len(M)} > {GRAM_BLOCK_MAX_RANK})"
    out = []
    for row in M:
        cells = [A.format_element(row[j]) if j in row else "." for j in range(len(M))]
        out.append("  ".join(cells))
    return "\n".join(out)
