"""Gram criterion, certificates, Nakayama, quotients, duals and lifts."""

import itertools
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial
from operator import add

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import frobex.frobenius as frobenius
from frobex.algcore import Element, filtered_degree, gr_of, multiply
from frobex.errors import (
    AlgebraDefinitionError,
    DomainError,
    HomogeneityError,
    UnsupportedStructure,
)
from frobex.frobenius import (
    CentralFreeExtension,
    ProjectionForm,
    check_same_products,
    det_is_unit,
    ell_centre_extension,
    format_certificate,
    fp_det,
    fp_inverse,
    fp_rank,
    gram_matrix,
    lift_form,
    mapping_degree,
    nakayama_on_generators,
    reduce_at_point,
    verify_frobenius,
)
from frobex.grpdeg import DegreeMultiset, GroupElement
from frobex.qas import RestrictedBasisEngine, make_qas, quantum_plane_of_weyl, quantum_weyl
from frobex.rees import ReesEngine, rees_extension
from oracles import (
    components_oracle,
    dense_rows,
    det_over_s_oracle,
    extension_oracle,
    is_unit_oracle,
    qas_gram_oracle,
    qas_mul_oracle,
    qas_product_oracle,
    qweyl_gram_oracle,
    qweyl_product_oracle,
    sparse_rows,
    terms_product_oracle,
)


def zero_cmatrix(n):
    return tuple(tuple(0 for _ in range(n)) for _ in range(n))


def assert_rows_store_the_nonzero_pattern(M, exact):
    """M's sparse rows store nonzero entries only, at int columns in
    range(rank), exactly where the oracle's dense matrix is nonzero, and
    M's blocks are that pattern's components.  A stored zero would join a
    zero row to a block and hide its f1-witness-missing refutation."""
    rank = len(M)
    assert all(type(j) is int and 0 <= j < rank and el for row in M for j, el in row.items())
    assert [set(row) for row in M] == [set(row) for row in sparse_rows(exact)]
    assert {(tuple(r), tuple(c)) for r, c in frobenius._blocks(M)} == components_oracle(exact)


# ---------------------------------------------------------------------------
# small F_p linear algebra
# ---------------------------------------------------------------------------


def test_fp_helpers():
    p = 7
    assert fp_det([[0, 1], [1, 0]], p) == (-1) % p
    assert fp_det([[2, 0], [0, 4]], p) == 1
    assert fp_rank([[1, 2], [2, 4]], p) == 1
    inv = fp_inverse([[1, 1], [0, 1]], p)
    assert inv == [[1, 6], [0, 1]]
    assert fp_inverse([[1, 1], [1, 1]], p) is None


@pytest.mark.parametrize("p", [7, 53])
def test_one_by_one_elimination_matches_the_general_one(p):
    # a 1x1 matrix is read off its entry; padded into diag(x, 1) it takes
    # the general elimination, which must agree on rank, det and inverse
    for x in range(p):
        for inverse in (False, True):
            rank, det, inv = frobenius._gauss_jordan([[x]], p, inverse)
            rank2, det2, inv2 = frobenius._gauss_jordan([[x, 0], [0, 1]], p, inverse)
            assert (rank + 1, det) == (rank2, det2), x
            assert inv == (inv2 and [[inv2[0][0]]]), x
        assert frobenius._gauss_jordan([[x - p]], p) == frobenius._gauss_jordan([[x]], p)
    assert fp_inverse([[3]], 53) == [[18]] and fp_rank([[0]], 7) == fp_det([[7]], 7) == 0


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


def test_gram_matrix_rank_one_ell_two():
    # basis (1, x); Phi(1) = 0, Phi(x) = 1, Phi(x^2) = 0
    A = make_qas(1, 2, 5)
    ext = ell_centre_extension(A.algebra(), 2)
    M = gram_matrix(ext)
    alg = A.algebra()
    one = alg.monomial(alg.one)
    assert M == [{1: one}, {0: one}]
    status = det_is_unit(M, ext)
    assert status.kind == "unit-determinant"
    assert status.method == "generalized-permutation"


def test_gram_antidiagonal_and_unit_row():
    ell, n = 3, 2
    A = make_qas(n, ell, 7)
    ext = ell_centre_extension(A.algebra(), ell)
    basis = ext.basis
    M = dense_rows(gram_matrix(ext), Element(A.algebra().field))
    pos = {b: i for i, b in enumerate(basis)}
    for b in basis:
        comp = tuple(ell - 1 - e for e in b)
        assert not M[pos[b]][pos[comp]].is_zero()
    # unit row: M[0][c] = Phi(c)
    for j, c in enumerate(basis):
        assert M[pos[(0, 0)]][j].terms == ext.form({c: 1})


class SlotSum:
    """Phi = sum over r of weights[r] * (projection onto slot r)."""

    def __init__(self, ext, weights):
        self.slots = [(ProjectionForm(ext.engine, r), w) for r, w in weights.items()]
        self.field = ext.ambient.field

    def __call__(self, y):
        total = Element(self.field)
        for proj, w in self.slots:
            total = total + w * Element(self.field, proj(y))
        return total.terms


def counted_extension(n, ell, p):
    """An extension whose product oracle logs every call it answers."""
    A = make_qas(n, ell, p).algebra()
    calls = []

    def mul(i, j):
        calls.append((i, j))
        return A.mul_indices(i, j)

    counted = replace(A, mul_indices=mul)
    engine = RestrictedBasisEngine(counted, ell)
    return CentralFreeExtension(counted, engine, ProjectionForm(engine, engine.top_slot())), calls


def test_gram_system_built_once():
    n, ell = 2, 3
    ext, calls = counted_extension(n, ell, 7)
    basis = ext.basis
    cert = verify_frobenius(ext)
    M = gram_matrix(ext)
    assert cert.verdict == "frobenius"
    # n^2 generator-pair products prove the grading; then one Gram product
    # per row, b * c with c = top - b, and one split x^s * x^r of the one
    # index the form meets: the sums b + c are all the top index, and the
    # form's degree is read off the Gram rows
    gens = ext.ambient.generator_indices
    proof_pairs = Counter(itertools.product(gens, repeat=2))
    gram_pairs = Counter((b, tuple(ell - 1 - e for e in b)) for b in basis)
    top = ext.engine.top_slot()
    assert len(calls) == n**2 + len(basis) + 1 == 14
    assert Counter(calls) == proof_pairs + gram_pairs + Counter([((0,) * n, top)])
    # repeat consumers read the same system
    del calls[:]
    assert verify_frobenius(ext).gram_status == cert.gram_status
    assert gram_matrix(ext) == M
    assert calls == []
    # gram_matrix hands out copies; a QAS row has one nonzero entry, at
    # the last column for b = 0
    M[0][0] = M[0][len(basis) - 1]
    M[1].clear()
    fresh = gram_matrix(ext)
    assert list(fresh[0]) == [len(basis) - 1] and len(fresh[1]) == 1


def test_new_form_gets_a_fresh_gram_system():
    n, ell = 2, 3
    ext, calls = counted_extension(n, ell, 7)
    top = gram_matrix(ext)
    low_form = ProjectionForm(ext.engine, (0,) * n)
    low = ext.with_form(low_form)
    del calls[:]
    M_low = gram_matrix(low)
    assert M_low != top
    assert M_low[0][0] == ext.ambient.monomial(ext.ambient.one)
    # one product per row, b * c with c = -b mod ell; the splits are
    # memoized on the shared engine, and only the sums b + c, whose
    # entries are 0 or ell, are new to it
    partners = [tuple(-e % ell for e in b) for b in ext.basis]
    sums = {tuple(map(add, b, c)) for b, c in zip(ext.basis, partners)}
    assert len(sums) == 2**n
    split_pairs = Counter((idx, (0,) * n) for idx in sums)
    assert Counter(calls) == Counter(zip(ext.basis, partners)) + split_pairs
    ext.form = low_form
    assert gram_matrix(ext) == M_low
    ext.form = ProjectionForm(ext.engine, (ell - 1,) * n)
    assert gram_matrix(ext) == top


def test_gram_build_that_raises_keeps_no_partial_matrix():
    ext, _ = counted_extension(2, 2, 5)
    top = ext.form
    evaluations = []

    def flaky(y):
        evaluations.append(y)
        if len(evaluations) == 3:
            raise DomainError("form fails mid-build")
        return top(y)

    ext.form = flaky
    with pytest.raises(DomainError):
        ext.gram()
    assert ext.gram() == ext.with_form(top).gram()


def test_reduce_at_point_makes_one_product_per_entry():
    n, ell = 2, 3
    point = (2, 5)
    reduce = lambda ext: reduce_at_point(ext, point)
    for first, second in ((reduce, verify_frobenius), (verify_frobenius, reduce)):
        ext, calls = counted_extension(n, ell, 7)
        rank = len(ext.basis)
        # n^2 proof products, one Gram product per row, and one split of
        # the one index the form meets, the top index b + c; the form's
        # degree is read off the Gram rows
        first(ext)
        assert len(calls) == n**2 + rank + 1
        second(ext)
        assert len(calls) == n**2 + rank + 1 == 14
        del calls[:]
        assert reduce(ext).nondegenerate
        assert verify_frobenius(ext).verdict == "frobenius"
        assert calls == []


def test_basis_product_decompositions_match_word_oracle():
    rng = random.Random(9)
    for n, ell, p in ((1, 2, 5), (2, 3, 7), (3, 2, 5)):
        C = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                C[i][j] = rng.randrange(ell)
                C[j][i] = -C[i][j]
        A = make_qas(n, ell, p, cmatrix=C)
        alg, fld = A.algebra(), A.field
        ext = ell_centre_extension(alg, ell)
        for b in ext.basis:
            for c in ext.basis:
                dec = ext.engine.decompose(Element(fld, alg.mul_indices(b, c)))
                k, e = qas_product_oracle(C, ell, b, c)
                r = tuple(x % ell for x in e)
                s = tuple(x - x % ell for x in e)
                k_split, _ = qas_product_oracle(C, ell, s, r)
                # x^b x^c = zeta^(k - k_split) * x^s x^r
                assert {slot: z.terms for slot, z in dec.items()} == {
                    r: {s: fld.zeta_pow(k - k_split)}
                }


def test_gram_and_reduction_tables_match_word_oracle():
    rng = random.Random(4)
    for _ in range(6):
        n, ell = rng.choice(((1, 2), (2, 2), (2, 3), (3, 2)))
        p = 7 if ell == 3 else 5
        C = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                C[i][j] = rng.randrange(ell)
                C[j][i] = -C[i][j]
        A = make_qas(n, ell, p, cmatrix=C, seed=rng.randrange(100))
        alg, fld = A.algebra(), A.field
        ext = ell_centre_extension(alg, ell)
        point = tuple(rng.randrange(p) for _ in range(n))
        # a reduction that builds the Gram system and one that reads it
        red_fresh = reduce_at_point(ext, point)
        M = dense_rows(gram_matrix(ext), Element(alg.field))
        red = reduce_at_point(ext, point)
        assert red_fresh.pairing == red.pairing
        assert all(v for row in red.pairing for v in row.values())
        pairing = dense_rows(red.pairing, 0)
        top = (ell - 1,) * n
        for i, b in enumerate(ext.basis):
            for j, c in enumerate(ext.basis):
                k, e = qas_product_oracle(C, ell, b, c)
                r = tuple(x % ell for x in e)
                s = tuple(x - x % ell for x in e)
                k_split, _ = qas_product_oracle(C, ell, s, r)
                coeff = fld.zeta_pow(k - k_split)  # x^b x^c = coeff * x^s x^r
                expected = alg.monomial(s, coeff) if r == top else Element(alg.field)
                assert M[i][j] == expected
                value = coeff
                for x, lam in zip(s, point):
                    value = value * pow(lam, x // ell, p) % p
                assert pairing[i][j] == (value if r == top else 0)


def test_reduced_pairing_drops_the_values_that_vanish_at_the_point():
    # on the slot-0 projection M[b][c] is k * x^(b + c) with b + c = 3s,
    # so at the point (0, 2) every entry with s_1 > 0 vanishes and the
    # pairing stores none of them; rows 1 and 2 are x2 and x2^2, whose
    # product x2^3 pairs to 2
    ext = ell_centre_extension(make_qas(2, 3, 7).algebra(), 3)
    low = ext.with_form(ProjectionForm(ext.engine, (0, 0)))
    red = reduce_at_point(low, (0, 2))
    assert red.pairing == [{0: 1}, {2: 2}, {1: 2}] + [{}] * 6
    assert red.pairing_rank == 3 and not red.nondegenerate


def test_det_zero_row_is_singular():
    A = make_qas(1, 2, 5)
    ext = ell_centre_extension(A.algebra(), 2)
    alg = A.algebra()
    zero = Element(alg.field)
    M = sparse_rows([[zero, zero], [alg.monomial(alg.one), zero]])
    assert det_is_unit(M, ext).kind == "singular"


# ---------------------------------------------------------------------------
# verify_frobenius
# ---------------------------------------------------------------------------


def test_verify_qas_certificate_values():
    ell, n = 3, 2
    A = make_qas(n, ell, 7)
    ext = ell_centre_extension(A.algebra(), ell)
    cert = verify_frobenius(ext)
    assert cert.verdict == "frobenius"
    assert cert.rank == ell**n
    assert cert.phi_degree == GroupElement((-4,))
    assert cert.symmetry_d == GroupElement((4,))
    assert cert.gram_status.kind == "unit-determinant"
    assert cert.gram_status.method == "generalized-permutation"
    assert cert.f1_witnesses == cert.rank


def test_verify_trivial_extension():
    # ell = 1: the subring is everything, the basis is the unit alone
    A = make_qas(1, 1, 5, cmatrix=zero_cmatrix(1))
    ext = ell_centre_extension(A.algebra(), 1)
    cert = verify_frobenius(ext)
    assert cert.verdict == "frobenius"
    assert cert.rank == 1
    assert cert.phi_degree == GroupElement((0,))
    assert cert.symmetry_d == GroupElement((0,))


def test_validate_refuses_a_non_central_subring_and_a_broken_round_trip():
    # at ell 4, x1^2 * x2 = zeta^2 * x2 * x1^2 with zeta^2 = -1
    with pytest.raises(UnsupportedStructure, match=r"subring generator \(2, 0\) is not central"):
        ell_centre_extension(make_qas(2, 4).algebra(), 2)
    ext = ell_centre_extension(make_qas(2, 3).algebra(), 3)

    class Doubling(RestrictedBasisEngine):
        def decompose(self, y):
            return {r: 2 * z for r, z in super().decompose(y).items()}

    bad = CentralFreeExtension(ext.ambient, Doubling(ext.ambient, 3), ext.form)
    with pytest.raises(AlgebraDefinitionError, match=r"round trip fails on basis index \(0, 0\)"):
        bad.validate()


def test_sabotaged_slot_zero_form_is_refuted():
    ell, n = 3, 2
    A = make_qas(n, ell, 7)
    ext = ell_centre_extension(A.algebra(), ell)
    bad = ext.with_form(ProjectionForm(ext.engine, (0,) * n))
    cert = verify_frobenius(bad)
    assert cert.verdict == "not-frobenius"
    assert cert.refutation["kind"] == "gram-not-unit"
    # every basis element has two-sided witnesses (M has no zero row or
    # column), so the refutation really does come from the determinant
    assert cert.f1_witnesses == cert.rank


def _zero_form_on_qas():
    ext = ell_centre_extension(make_qas(2, 3, 7).algebra(), 3)
    return ext.with_form(lambda y: {})


def _constant_term_form_on_qweyl():
    # Phi(y) = the coefficient of 1: Phi(x * y) = 1 but no c * x has a
    # constant term, so x has a right witness and no left one
    W = quantum_weyl(2)
    ext = ell_centre_extension(W, 2)
    return ext.with_form(lambda y: {W.one: y[W.one]} if W.one in y else {})


@pytest.mark.parametrize(
    "build, witnesses, detail, refutation",
    [
        (
            _zero_form_on_qas,
            "0/9",
            "zero row 0",
            "f1-witness-missing (basis_element=(0, 0); side=right)",
        ),
        (
            _constant_term_form_on_qweyl,
            "1/4",
            "zero column 1",
            "f1-witness-missing (basis_element=(0, 1); side=left)",
        ),
    ],
)
def test_missing_two_sided_witness_is_refuted(build, witnesses, detail, refutation):
    ext = build()
    cert = verify_frobenius(ext)
    assert cert.verdict == "not-frobenius"
    lines = format_certificate(cert, ext.ambient).splitlines()
    assert f"f1_witnesses: {witnesses}" in lines
    assert "gram_method: structure" in lines
    assert f"gram_detail: {detail}" in lines
    assert f"refutation: {refutation}" in lines


def test_inhomogeneous_form_raises_in_graded_mode():
    ell = 2
    A = make_qas(1, ell, 5)
    ext = ell_centre_extension(A.algebra(), ell)
    with pytest.raises(HomogeneityError):
        verify_frobenius(ext.with_form(SlotSum(ext, {(1,): 1, (0,): 1})))


def test_inhomogeneous_sabotage_is_refuted_in_filtered_view():
    # adding another slot to the form makes the Gram determinant z - 1,
    # a nonunit; the verdict must flip to not-frobenius and the quotient
    # at z = 1 must degenerate while z = 0 stays nondegenerate
    ell = 2
    A = make_qas(1, ell, 31)
    alg = replace(A.algebra(), mode="filtered")
    ext = ell_centre_extension(alg, ell)
    bad = ext.with_form(SlotSum(ext, {(1,): 1, (0,): 1}))
    cert = verify_frobenius(bad)
    assert cert.verdict == "not-frobenius"
    assert cert.refutation["kind"] == "gram-not-unit"
    assert reduce_at_point(bad, (1,)).nondegenerate is False
    assert reduce_at_point(bad, (0,)).nondegenerate is True


def test_multiset_refutation_trumps_form():
    # a deliberately broken engine: drop the top basis element
    ell, n = 3, 2
    A = make_qas(n, ell, 7)
    ext = ell_centre_extension(A.algebra(), ell)

    class Truncated:
        def __init__(self, engine):
            self._e = engine
            self.basis = tuple(b for b in engine.basis if b != (ell - 1,) * n)
            self.subring_generators = engine.subring_generators

        def __getattr__(self, name):
            return getattr(self._e, name)

    bad = CentralFreeExtension(A.algebra(), Truncated(ext.engine), ext.form)
    cert = verify_frobenius(bad)
    assert cert.verdict == "not-frobenius"
    assert cert.refutation["kind"] == "degree-multiset-asymmetry"


# ---------------------------------------------------------------------------
# Nakayama
# ---------------------------------------------------------------------------


def test_nakayama_identity_for_commutative():
    A = make_qas(2, 3, 7, cmatrix=zero_cmatrix(2))
    ext = ell_centre_extension(A.algebra(), 3)
    nak = nakayama_on_generators(ext, verify_frobenius(ext), rng=random.Random(0))
    assert nak.trivial
    alg = A.algebra()
    assert nak.images == {
        name: alg.monomial(idx) for idx, name in zip(alg.generator_indices, alg.generator_names)
    }


def test_nakayama_quantum_plane_closed_form():
    # the solved automorphism should be the diagonal x_i -> (prod_j q_ij) x_i;
    # the solve is the oracle, the closed form is the conjecture to confirm
    ell = 3
    for c12 in (1, 2):
        C = ((0, c12), (-c12, 0))
        A = make_qas(2, ell, 7, cmatrix=C)
        alg = A.algebra()
        ext = ell_centre_extension(alg, ell)
        cert = verify_frobenius(ext)
        nak = nakayama_on_generators(ext, cert, rng=random.Random(1))
        assert nak.images["x1"] == alg.monomial((1, 0), alg.field.zeta_pow(c12))
        assert nak.images["x2"] == alg.monomial((0, 1), alg.field.zeta_pow(-c12))
        # defining identity on every basis pair, nu extended and every
        # product made by the word oracle
        fld = alg.field
        mul = qas_mul_oracle(C, ell, fld.zeta, fld.p)
        images = [nak.images[name].terms for name in alg.generator_names]
        for b in ext.basis:
            for c in ext.basis:
                lhs = ext.form(mul(b, c))
                nu_c = extension_oracle(mul, fld.p, images, {c: 1})
                rhs = ext.form(terms_product_oracle(mul, fld.p, nu_c, {b: 1}))
                assert lhs == rhs


def test_nakayama_fixes_central_generators():
    ell = 3
    A = make_qas(2, ell, 7)
    alg = A.algebra()
    ext = ell_centre_extension(alg, ell)
    nak = nakayama_on_generators(ext, verify_frobenius(ext), rng=random.Random(2))
    mul = qas_mul_oracle(A.cmatrix, ell, alg.field.zeta, alg.field.p)
    images = [nak.images[name].terms for name in alg.generator_names]
    for s in ext.engine.subring_generators:
        assert extension_oracle(mul, alg.field.p, images, {s: 1}) == {s: 1}


def test_nakayama_multiplies_out_generator_powers_once():
    # on the proved grading one solve multiplies only the term pairs that
    # can reach the top slot: 169 oracle products, no pair twice, the
    # generator powers and monomial images each multiplied out once per
    # solve (1,607 before the skip, 1,690 for the Element solve)
    A, calls = counted(make_qas(2, 7).algebra())
    ext = ell_centre_extension(A, 7)
    cert = verify_frobenius(ext)
    del calls[:]
    nak = nakayama_on_generators(ext, cert, rng=random.Random(0))
    assert nak.checked_pairs == 200
    made = Counter(calls)
    assert len(calls) == 169 and set(made.values()) == {1}
    # the first right-hand side made is Phi(c * x1) for the partner c of x1
    assert calls[0] == ((5, 6), (1, 0))


def test_nakayama_revalidates_on_400_random_elements(monkeypatch):
    ext = ell_centre_extension(make_qas(2, 7).algebra(), 7)
    draw, drawn = frobenius._random_terms, []

    def counting(E, rng):
        drawn.append(draw(E, rng))
        return drawn[-1]

    monkeypatch.setattr(frobenius, "_random_terms", counting)
    nakayama_on_generators(ext, verify_frobenius(ext), rng=random.Random(0))
    assert len(drawn) == 2 * frobenius.NAKAYAMA_CHECKS == 400
    p = ext.ambient.field.p
    assert all(1 <= len(t) <= 2 and all(0 < c < p for c in t.values()) for t in drawn)


def test_nakayama_random_pairs_catch_a_wrong_multiplicative_extension(monkeypatch):
    # nu is right on every generator, so the whole-basis identity check
    # passes; an extension that drops the scalar of nu(x^a) whenever an
    # exponent is >= 2 is wrong off the generators, and only the random
    # pairs see it
    ext = ell_centre_extension(make_qas(2, 7).algebra(), 7)
    extension = frobenius._extension

    def scalar_dropping(A, images):
        nu = extension(A, images)

        def apply(terms):
            out = {}
            for a, c in terms.items():
                for t, v in nu({a: 1}).items():
                    out[t] = out.get(t, 0) + c * (1 if max(a) >= 2 else v)
            return out

        return apply

    monkeypatch.setattr(frobenius, "_extension", scalar_dropping)
    with pytest.raises(AlgebraDefinitionError, match="on a random pair in"):
        nakayama_on_generators(ext, verify_frobenius(ext), rng=random.Random(0))


def test_nakayama_skip_reads_the_terms_of_nu_r(monkeypatch):
    # nu(x^a) gains a term at a + (1, 0), off the residue class of a,
    # whenever an exponent is >= 2: right on the generators, wrong off
    # them.  The grading skip must pair q with the terms nu(r) has, not
    # with those a homogeneous nu would have, or the random pairs miss it
    ext = ell_centre_extension(make_qas(2, 7).algebra(), 7)
    extension = frobenius._extension

    def off_class(A, images):
        nu = extension(A, images)

        def apply(terms):
            out = nu(terms)
            for a in terms:
                if max(a) >= 2:
                    t = (a[0] + 1, a[1])
                    out[t] = out.get(t, 0) + 1
            return out

        return apply

    monkeypatch.setattr(frobenius, "_extension", off_class)
    with pytest.raises(AlgebraDefinitionError, match="on a random pair in"):
        nakayama_on_generators(ext, verify_frobenius(ext), rng=random.Random(0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), ell=st.integers(2, 5), data=st.data())
def test_slot_projection_needs_a_term_pair_on_the_slot(n, ell, data):
    # the premise of the Nakayama skip, from the word oracle alone: the
    # slot projection of q * r is that of the products of its term pairs
    # (s, t) with (s + t) mod ell on the slot, and 0 when there is none
    p = 61  # ell divides p - 1 for every ell here
    zeta = next(z for z in range(2, p) if all(pow(z, k, p) != 1 for k in range(1, ell))
                and pow(z, ell, p) == 1)
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            C[i][j] = data.draw(st.integers(0, ell - 1))
            C[j][i] = -C[i][j]
    box = st.tuples(*[st.integers(0, 2 * ell - 1)] * n)
    terms = st.dictionaries(box, st.integers(1, p - 1), min_size=1, max_size=2)
    q, r = data.draw(terms), data.draw(terms)
    slot = data.draw(st.tuples(*[st.integers(0, ell - 1)] * n))

    def on_slot(idx):
        return tuple(e % ell for e in idx) == slot

    def projection(pairs):
        full = {}
        for (s, cs), (t, ct) in pairs:
            k, e = qas_product_oracle(C, ell, s, t)
            full[e] = (full.get(e, 0) + cs * ct * pow(zeta, k, p)) % p
        return {e: v for e, v in full.items() if v and on_slot(e)}

    pairs = list(itertools.product(q.items(), r.items()))
    reaching = [(u, v) for u, v in pairs if on_slot(tuple(map(add, u[0], v[0])))]
    event(f"{len(reaching)} of {len(pairs)} term pairs reach the slot")
    assert projection(pairs) == projection(reaching)
    if not reaching:
        assert projection(pairs) == {}


def test_nakayama_draws_the_same_pairs_for_a_seed():
    # each term's index is drawn before its coefficient
    ext = ell_centre_extension(make_qas(2, 3).algebra(), 3)
    rng = random.Random(0)
    drawn = [(frobenius._random_terms(ext, rng), frobenius._random_terms(ext, rng))
             for _ in range(3)]
    assert [(list(q.items()), list(r.items())) for q, r in drawn] == [
        ([((2, 4), 1), ((4, 2), 5)], [((1, 4), 3), ((0, 5), 3)]),
        ([((2, 5), 2)], [((2, 1), 1), ((4, 2), 5)]),
        ([((1, 3), 1)], [((3, 3), 4)]),
    ]


@pytest.mark.parametrize("n, ell, c12", [(1, 5, 0), (2, 3, 1), (2, 5, 2), (3, 3, 1), (2, 4, 0)])
def test_nakayama_skip_matches_the_full_solve(n, ell, c12):
    # a plain callable around the same form has no proved grading, so its
    # solve makes every product; both solves find the same nu
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            C[i][j], C[j][i] = c12 + i, -c12 - i
    ext = ell_centre_extension(make_qas(n, ell, cmatrix=C).algebra(), ell)
    plain = ext.with_form(lambda y, form=ext.form: form(y))
    assert ext.partners() is not None and plain.partners() is None
    skipped = nakayama_on_generators(ext, verify_frobenius(ext), rng=random.Random(3))
    full = nakayama_on_generators(plain, verify_frobenius(plain), rng=random.Random(3))
    assert skipped == full and skipped.checked_pairs == 200


def test_off_grade_generator_pair_keeps_every_nakayama_product(monkeypatch):
    # the off-grade oracle of the Gram test below: without a proof for
    # this ambient's product, the solve multiplies every right-hand side
    # Phi(c * g), every identity-check product and every random term pair;
    # the off-grade term is not associative, and the random pairs say so
    base = make_qas(2, 3, 7).algebra()
    top = (2, 2)

    def mul(i, j):
        prod = base.mul_indices(i, j)
        return {**prod, top: 1} if (i, j) == ((0, 1), (1, 0)) else prod

    A, calls = counted(replace(base, mul_indices=mul))
    draw, drawn = frobenius._random_terms, []

    def recording(E, rng):
        drawn.append(draw(E, rng))
        return drawn[-1]

    monkeypatch.setattr(frobenius, "_random_terms", recording)
    for eng in (RestrictedBasisEngine(A, 3), RestrictedBasisEngine(base, 3)):
        ext = CentralFreeExtension(A, eng, ProjectionForm(eng, top))
        cert = verify_frobenius(ext)
        assert cert.verdict == "frobenius" and ext.partners() is None
        del calls[:], drawn[:]
        with pytest.raises(AlgebraDefinitionError, match="on a random pair in"):
            nakayama_on_generators(ext, cert, rng=random.Random(0))
        made = set(calls)
        basis, gens = eng.basis, A.generator_indices
        assert set(itertools.product(basis, gens)) <= made
        assert set(itertools.product(gens, basis)) <= made  # nu(g) has the term g
        assert set(itertools.product(drawn[-2], drawn[-1])) <= made


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_nakayama_inverts_scalar_gram_blocks_on_the_filtered_qweyl_algebra(ell):
    # the lifted top-slot form has a scalar Gram matrix whose blocks reach
    # ell x ell, so the solve inverts whole blocks over F_p, not pivots
    W = quantum_weyl(ell)
    graded = ell_centre_extension(quantum_plane_of_weyl(W).algebra(), ell)
    E = ell_centre_extension(W, ell)
    E = E.with_form(lift_form(E, graded))
    cert = verify_frobenius(E)
    assert cert.gram_status.method == "scalar-determinant"
    assert max(len(rows) for rows, _ in cert.gram_status.structure.blocks) == ell
    nak = nakayama_on_generators(E, cert, rng=random.Random(0))
    fld = W.field
    mul = partial(qweyl_product_oracle, fld)
    images = [nak.images[name].terms for name in W.generator_names]
    for b in E.basis:
        for c in E.basis:
            lhs = E.form(mul(b, c))
            nu_c = extension_oracle(mul, fld.p, images, {c: 1})
            rhs = E.form(terms_product_oracle(mul, fld.p, nu_c, {b: 1}))
            assert lhs == rhs, (b, c)
    if ell == 3:
        assert nak.images == {"y": W.monomial((1, 0), 4), "x": W.monomial((0, 1), 2)}


class SwappedBasis(RestrictedBasisEngine):
    """The engine with two basis indices listed in each other's place."""

    def __init__(self, algebra, ell, u, v):
        super().__init__(algebra, ell)
        self.basis = tuple({u: v, v: u}.get(b, b) for b in self.basis)


def test_nakayama_inverts_non_symmetric_gram_blocks():
    # listing y and y^2 x in each other's place permutes the columns of a
    # 2x2 block of the lifted top-slot Gram matrix at ell 3, but not its
    # rows, so the block is no longer symmetric; nu does not depend on the
    # order of the basis, and a transposed inverse would miss it
    ell = 3
    W = quantum_weyl(ell)
    graded = ell_centre_extension(quantum_plane_of_weyl(W).algebra(), ell)
    E = ell_centre_extension(W, ell)
    slot = lift_form(E, graded).slot
    engine = SwappedBasis(W, ell, (1, 0), (2, 1))
    swapped = CentralFreeExtension(W, engine, ProjectionForm(engine, slot))
    swapped.validate()
    cert = verify_frobenius(swapped)
    assert cert.gram_status.method == "scalar-determinant"
    M = swapped.gram()
    blocks = [
        [[M[i][j].terms[W.one] if j in M[i] else 0 for j in cols] for i in rows]
        for rows, cols in cert.gram_status.structure.blocks
    ]
    assert [[4, 0], [4, 4]] in blocks
    nak = nakayama_on_generators(swapped, cert, rng=random.Random(0))
    assert nak.images == {"y": W.monomial((1, 0), 4), "x": W.monomial((0, 1), 2)}


def test_nakayama_requires_frobenius_verdict():
    ell, n = 3, 2
    A = make_qas(n, ell, 7)
    ext = ell_centre_extension(A.algebra(), ell)
    bad = ext.with_form(ProjectionForm(ext.engine, (0,) * n))
    with pytest.raises(DomainError):
        nakayama_on_generators(bad, verify_frobenius(bad))


# ---------------------------------------------------------------------------
# reduction at points of Max S
# ---------------------------------------------------------------------------


def test_reduce_at_zero_is_nondegenerate():
    ell, n = 3, 2
    A = make_qas(n, ell, 7)
    ext = ell_centre_extension(A.algebra(), ell)
    red = reduce_at_point(ext, (0,) * n)
    assert len(red.basis) == ell**n
    assert red.nondegenerate and red.pairing_rank == ell**n


def test_reduce_at_random_points():
    rng = random.Random(9)
    for n in (1, 2):
        for ell in (2, 3):
            p = 7 if ell == 3 else 5
            A = make_qas(n, ell, p)
            ext = ell_centre_extension(A.algebra(), ell)
            for _ in range(5):
                lam = tuple(rng.randrange(p) for _ in range(n))
                red = reduce_at_point(ext, lam)
                assert red.nondegenerate and len(red.basis) == ell**n


def verify_and_reduce_peak(ell):
    """tracemalloc peak of verify_frobenius and one reduce_at_point on
    make_qas(2, ell), Gram system included."""
    ext = ell_centre_extension(make_qas(2, ell).algebra(), ell)
    tracemalloc.start()
    try:
        cert = verify_frobenius(ext)
        red = reduce_at_point(ext, (3, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == "frobenius" and red.nondegenerate
    return peak


def test_rank_169_verify_and_reduce_stay_small():
    # the Gram system is M alone: one stored entry per row
    assert verify_and_reduce_peak(13) < 4_000_000


def test_rank_961_verify_and_reduce_stay_small():
    # the Gram rows and the pairing store their 961 nonzero entries only;
    # dense rank x rank rows peaked at about 16 MB
    assert verify_and_reduce_peak(31) < 4_000_000


def test_rank_169_gram_builds_one_element_per_nonzero_entry(monkeypatch):
    # an entry costs its product and one split lookup, and a row stores
    # its nonzero entries only, so only those build elements
    ext = ell_centre_extension(make_qas(2, 13).algebra(), 13)
    made = []
    init = Element.__init__

    def counted(el, *args, **kwargs):
        made.append(el)
        init(el, *args, **kwargs)

    monkeypatch.setattr(Element, "__init__", counted)
    M = ext.gram()
    nonzero = sum(1 for row in M for z in row.values() if z)
    assert nonzero == sum(map(len, M)) == 169
    # one element per nonzero entry; the form maps term dicts, so neither
    # its inputs x^t nor its values build one
    assert len(made) == nonzero == 169


def test_rank_169_verification_calls_the_form_once(monkeypatch):
    # the graded Gram build meets one index, b + (top - b) = top, and the
    # form's degree is read off the Gram rows, Phi(b) = M[b][unit]
    ext = ell_centre_extension(make_qas(2, 13).algebra(), 13)
    evaluations = []
    project = ProjectionForm.__call__

    def form(self, y):
        evaluations.append(y)
        return project(self, y)

    monkeypatch.setattr(ProjectionForm, "__call__", form)
    cert = verify_frobenius(ext)
    assert cert.verdict == "frobenius" and cert.phi_degree == GroupElement((-24,))
    assert len(evaluations) == 1 and evaluations[0] == {(12, 12): 1}


def test_rank_169_gram_build_evaluates_the_form_once_per_product_index():
    # the form is S-linear, so M[b][c] = sum over the terms c_t x^t of b*c
    # of c_t * Phi(x^t): rank^2 products, and one evaluation for each of
    # the 25^2 indices b + c
    A = make_qas(2, 13).algebra()
    engine = RestrictedBasisEngine(A, 13)
    products = []

    def mul(i, j):
        products.append((i, j))
        return A.mul_indices(i, j)

    top = ProjectionForm(engine, engine.top_slot())
    evaluations = []

    def form(y):
        evaluations.append(y)
        return top(y)

    ext = CentralFreeExtension(replace(A, mul_indices=mul), engine, form)
    M = ext.gram()
    assert len(products) == 169**2 and len(set(products)) == 169**2
    assert len(evaluations) == 25**2
    assert {tuple(y.items()) for y in evaluations} == {
        (((a, b), 1),) for a in range(25) for b in range(25)
    }
    assert M == ell_centre_extension(A, 13).gram()


def test_rank_169_graded_gram_build_makes_one_product_per_row(monkeypatch):
    # the engine proves the exponent grading on the 4 generator pairs, so
    # the top-slot projection on its own engine builds b * (top - b) only:
    # 169 products, one split and one form evaluation, all at index top
    A, products = counted(make_qas(2, 13).algebra())
    engine = RestrictedBasisEngine(A, 13)
    assert engine.graded
    assert products == list(itertools.product(A.generator_indices, repeat=2))
    del products[:]
    top = engine.top_slot()
    evaluations = []
    project = ProjectionForm.__call__

    def form(self, y):
        evaluations.append(y)
        return project(self, y)

    monkeypatch.setattr(ProjectionForm, "__call__", form)
    M = CentralFreeExtension(A, engine, ProjectionForm(engine, top)).gram()
    gram_products = [(b, tuple(12 - e for e in b)) for b in engine.basis]
    # the first entry's one term splits through x^0 * x^top
    assert products == gram_products[:1] + [((0, 0), top)] + gram_products[1:]
    assert [tuple(y.items()) for y in evaluations] == [((top, 1),)]
    monkeypatch.undo()
    plain = ProjectionForm(engine, top)
    assert M == CentralFreeExtension(A, engine, lambda y: plain(y)).gram()


def _qas_slot_case():
    A, calls = counted(make_qas(2, 3, 7).algebra())
    engine = RestrictedBasisEngine(A, 3)
    return A, calls, engine, lambda: ProjectionForm(engine, engine.top_slot())


def _qweyl_slot_case():
    # x * y = q y x + 1 is off the exponent grading: no proof, full build
    W, calls = counted(quantum_weyl(3))
    engine = RestrictedBasisEngine(W, 3)
    return W, calls, engine, lambda: ProjectionForm(engine, engine.top_slot())


def _rees_slot_case():
    W = quantum_weyl(3)
    _, rext = rees_extension(ell_centre_extension(W, 3))
    algebra, calls = counted(rext.ambient)
    engine = ReesEngine(replace(rext.engine.rees, algebra=algebra), rext.engine.base_engine)
    return algebra, calls, engine, lambda: ProjectionForm(engine, rext.form.slot)


def _plain_callable_case():
    A, calls, engine, make_form = _qas_slot_case()
    return A, calls, engine, lambda: (lambda y, form=make_form(): form(y))


@pytest.mark.parametrize(
    "build, graded",
    [(_qas_slot_case, True), (_qweyl_slot_case, False), (_rees_slot_case, False),
     (_plain_callable_case, False)],
    ids=["qas", "qweyl", "rees", "plain-callable"],
)
def test_gram_build_is_graded_only_on_a_proved_grading(build, graded):
    # a second build, for a new form object, finds every split memoized, so
    # its products are exactly its Gram products: one per row on a proved
    # exponent grading, rank^2 otherwise
    ambient, calls, engine, make_form = build()
    ext = CentralFreeExtension(ambient, engine, make_form())
    first = ext.gram()
    ext = ext.with_form(make_form())
    del calls[:]
    assert ext.gram() == first
    basis = engine.basis
    if graded:
        top = engine.top_slot()
        want = [(b, tuple(t - e for t, e in zip(top, b))) for b in basis]
    else:
        want = list(itertools.product(basis, repeat=2))
    assert calls == want


def test_off_grade_generator_pair_keeps_the_full_gram_build():
    # one generator pair gains an off-grade term on the top slot, x2 * x1 =
    # zeta^-1 x1 x2 + x^top, so M[x2][x1] is nonzero though x1 is not the
    # partner top - x2 of x2; the proof fails and the build is the full one
    base = make_qas(2, 3, 7).algebra()
    top = (2, 2)

    def mul(i, j):
        prod = base.mul_indices(i, j)
        return {**prod, top: 1} if (i, j) == ((0, 1), (1, 0)) else prod

    A, calls = counted(replace(base, mul_indices=mul))
    engine = RestrictedBasisEngine(A, 3)
    assert not engine.graded and engine.partners(top) is None
    # a grading proved on another algebra's product does not carry over
    proved = RestrictedBasisEngine(base, 3)
    assert proved.graded
    basis = engine.basis
    for eng in (engine, proved):
        ext = CentralFreeExtension(A, eng, ProjectionForm(eng, top))
        del calls[:]
        M = ext.gram()
        assert set(itertools.product(basis, repeat=2)) <= set(calls)
        assert dense_rows(M, Element(A.field)) == [
            [Element(A.field, ext.form(mul(b, c))) for c in basis] for b in basis
        ]
        assert not M[basis.index((0, 1))][basis.index((1, 0))].is_zero()


@settings(max_examples=20, deadline=None)
@given(
    # every slot of ranks up to 27 keeps the word oracle's slots * rank^2
    # products to a fraction of a second per example
    shape=st.sampled_from([(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5),
                           (3, 2), (3, 3)]),
    seed=st.integers(0, 99),
    data=st.data(),
)
def test_graded_gram_matches_word_oracle_on_every_slot(shape, seed, data):
    n, ell = shape
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            C[i][j] = data.draw(st.integers(0, ell - 1))  # 0: x_i, x_j commute
            C[j][i] = -C[i][j]
    A = make_qas(n, ell, cmatrix=C, seed=seed)
    ext = ell_centre_extension(A.algebra(), ell)
    assert ext.engine.graded
    for slot in ext.basis:
        M = ext.with_form(ProjectionForm(ext.engine, slot)).gram()
        got = [[{tuple(e // ell for e in s): v for s, v in el.terms.items()} for el in row]
               for row in dense_rows(M, Element(A.algebra().field))]
        exact = qas_gram_oracle(C, ell, A.field.zeta, A.field.p, {slot: 1})
        assert got == exact, slot
        assert_rows_store_the_nonzero_pattern(M, exact)


def test_nakayama_reads_the_determinant_tests_structure_scan(monkeypatch):
    scans = []
    scan = frobenius._gram_structure

    def counting(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(frobenius, "_gram_structure", counting)
    ext = ell_centre_extension(make_qas(2, 5).algebra(), 5)
    cert = verify_frobenius(ext)
    nak = nakayama_on_generators(ext, cert)
    assert len(scans) == 1 and nak.checked_pairs == 200
    assert all(len(rows) == len(cols) == 1 for rows, cols in cert.gram_status.structure.blocks)
    assert "structure" not in repr(cert.gram_status)


# ---------------------------------------------------------------------------
# slot projections
# ---------------------------------------------------------------------------


def _raise_exponents(r, ell, rng):
    """r + ell * k with each k_i in {0, 1, 2}: a term of slot r whose
    central part reaches x_i^(2 ell)."""
    return tuple(e + ell * rng.randrange(3) for e in r)


def _qas_engine():
    engine = ell_centre_extension(make_qas(2, 3, 7).algebra(), 3).engine
    return engine, lambda r, rng: _raise_exponents(r, 3, rng)


def _qweyl_engine():
    engine = ell_centre_extension(quantum_weyl(3), 3).engine
    return engine, lambda r, rng: _raise_exponents(r, 3, rng)


def _rees_engine():
    W = quantum_weyl(3)
    _, rext = rees_extension(ell_centre_extension(W, 3))

    def index(slot, rng):
        b = _raise_exponents(slot[0], 3, rng)
        return (b, W.degree_of(b).coords[0] + rng.randrange(3))

    return rext.engine, index


@pytest.mark.parametrize(
    "build", [_qas_engine, _qweyl_engine, _rees_engine], ids=["qas", "qweyl", "rees"]
)
def test_projection_agrees_with_decomposition(build):
    engine, index = build()
    zero = Element(engine.algebra.field)
    rng = random.Random(17)
    for _ in range(30):
        slots = rng.sample(engine.basis, rng.randrange(1, 4))
        # up to three terms in each chosen slot
        terms = {index(r, rng): rng.randrange(1, 7) for r in slots for _ in range(3)}
        y = Element(engine.algebra.field, terms)
        dec = engine.decompose(y)
        for slot in engine.basis:
            assert ProjectionForm(engine, slot)(y.terms) == dec.get(slot, zero).terms


def test_projection_maps_reduced_terms_to_reduced_terms():
    # off the slot, and on no terms, the value is the empty dict; on the
    # slot each term c * x^(s + slot) becomes c / c' on s, in [1, p)
    A = make_qas(2, 3, 7).algebra()
    form = ell_centre_extension(A, 3).form  # slot (2, 2)
    assert form(A.mul_indices((1, 0), (0, 1))) == {} and form({}) == {}
    rng = random.Random(5)
    for _ in range(30):
        terms = {(3 * rng.randrange(3) + 2, 3 * rng.randrange(3) + 2): rng.randrange(1, 7)
                 for _ in range(4)}
        value = form(terms)
        assert len(value) == len(terms) and all(0 < v < 7 for v in value.values())
        assert value == form.engine.decompose(Element(A.field, terms))[(2, 2)].terms


# ---------------------------------------------------------------------------
# dual basis
# ---------------------------------------------------------------------------


def test_dual_basis_kronecker_and_degrees():
    ell, n = 2, 2
    A = make_qas(n, ell, 5)
    alg = A.algebra()
    ext = ell_centre_extension(alg, ell)
    duals = [ProjectionForm(ext.engine, b) for b in ext.basis]
    for i, b in enumerate(ext.basis):
        for j, c in enumerate(ext.basis):
            assert duals[i]({c: 1}) == ({alg.one: 1} if i == j else {})
        assert mapping_degree(ext.with_form(duals[i])) == -alg.degree_of(b)
    # S-linearity: phi_i(s * b_j) = s * delta_ij for a central monomial s
    s = alg.monomial((ell, 0))
    for i in range(len(duals)):
        for j, c in enumerate(ext.basis):
            val = duals[i](multiply(alg, s, alg.monomial(c)).terms)
            assert val == (s.terms if i == j else {})


# ---------------------------------------------------------------------------
# filtered lifts
# ---------------------------------------------------------------------------


def test_lift_form_on_graded_input_is_unchanged():
    ell = 3
    A = make_qas(2, ell, 7)
    ext = ell_centre_extension(A.algebra(), ell)
    lifted = lift_form(ext, ext)
    assert lifted is ext.form


def test_lift_form_full_pipeline():
    ell = 2
    W = quantum_weyl(ell, 5)
    plane = quantum_plane_of_weyl(W)
    graded = ell_centre_extension(plane.algebra(), ell)
    filtered = ell_centre_extension(W, ell)
    filtered = filtered.with_form(lift_form(filtered, graded))
    cert = verify_frobenius(filtered)
    graded_cert = verify_frobenius(graded)
    assert cert.verdict == graded_cert.verdict == "frobenius"
    assert cert.rank == graded_cert.rank == ell**2
    assert cert.phi_degree == graded_cert.phi_degree
    assert mapping_degree(filtered) == GroupElement((-2 * (ell - 1),))
    assert cert.gram_status.method == "scalar-determinant"


def test_lift_form_rejects_wrong_gr():
    # at ell = 3 the transposed relation is a genuinely different algebra
    # (zeta and its inverse differ), so the table comparison must fail
    ell = 3
    W = quantum_weyl(ell, 7)
    wrong = make_qas(2, ell, 7, cmatrix=((0, 1), (-1, 0)))
    graded = ell_centre_extension(wrong.algebra(), ell)
    filtered = ell_centre_extension(W, ell)
    with pytest.raises(DomainError):
        lift_form(filtered, graded)


def counted(A):
    """A with its oracle recording each call."""
    calls = []
    oracle = A.mul_indices

    def mul(i, j):
        calls.append((i, j))
        return oracle(i, j)

    return replace(A, mul_indices=mul), calls


def test_check_same_products_makes_each_product_once_in_row_order():
    W = quantum_weyl(2, 5)
    G, gr_calls = counted(gr_of(W))
    plane, plane_calls = counted(quantum_plane_of_weyl(W).algebra())
    indices = list(G.enumerate_up_to(GroupElement((4,))))
    check_same_products(G, plane, indices)
    pairs = [(i, j) for i in indices for j in indices]
    assert gr_calls == plane_calls == pairs


def test_check_same_products_refuses_different_fields():
    A1, A2 = make_qas(2, 2, 5).algebra(), make_qas(2, 2, 13).algebra()
    with pytest.raises(DomainError, match=r"qas\(n=2, ell=2, p=5\) and qas\(n=2, ell=2, p=13\)"):
        check_same_products(A1, A2, [(0, 0), (1, 0)])


def test_lift_form_rejects_opaque_forms():
    ell = 2
    W = quantum_weyl(ell, 5)
    plane = quantum_plane_of_weyl(W)
    graded = ell_centre_extension(plane.algebra(), ell)
    opaque = graded.with_form(lambda y: graded.form(y))
    filtered = ell_centre_extension(W, ell)
    with pytest.raises(UnsupportedStructure):
        lift_form(filtered, opaque)


def test_lift_form_refuses_a_filtered_target_and_a_non_frobenius_form():
    ell = 2
    W = quantum_weyl(ell, 5)
    graded = ell_centre_extension(quantum_plane_of_weyl(W).algebra(), ell)
    filtered = ell_centre_extension(W, ell)
    with pytest.raises(DomainError, match="^second argument must be a graded extension$"):
        lift_form(filtered, filtered)
    slot_zero = graded.with_form(ProjectionForm(graded.engine, (0, 0)))
    with pytest.raises(DomainError, match="^graded extension is not-frobenius; nothing to lift$"):
        lift_form(filtered, slot_zero)


# ---------------------------------------------------------------------------
# degree multisets of bases
# ---------------------------------------------------------------------------


def test_two_degree_respecting_bases_same_multiset():
    # unitriangular change of basis: add a strictly lower-degree element
    ell, n = 3, 2
    A = make_qas(n, ell, 7)
    alg = A.algebra()
    ext = ell_centre_extension(alg, ell)
    basis_elements = [alg.monomial(b) for b in ext.basis]
    changed = []
    for el in basis_elements:
        (idx, _), = el.terms.items()
        lower = next(
            (c for c in ext.basis if alg.degree_of(c) < alg.degree_of(idx)), None
        )
        if lower is not None:
            changed.append(el + alg.monomial(lower))
        else:
            changed.append(el)
    original = DegreeMultiset(filtered_degree(alg, el) for el in basis_elements)
    modified = DegreeMultiset(filtered_degree(alg, el) for el in changed)
    assert original == modified


def test_symmetry_witness_matches_phi_degree_across_fixtures():
    # empirical relation recorded by the certificate: symmetry_d == -phi_degree
    fixtures = [
        make_qas(1, 2, 5),
        make_qas(2, 3, 7),
        make_qas(
            2, 3, 7,
            degrees=(GroupElement((1, 0)), GroupElement((0, 2))),
        ),
        make_qas(3, 2, 5),
    ]
    for A in fixtures:
        ext = ell_centre_extension(A.algebra(), A.field.ell)
        cert = verify_frobenius(ext)
        assert cert.verdict == "frobenius"
        assert cert.symmetry_d == -cert.phi_degree


def test_format_certificate_contains_contract_fields():
    A = make_qas(2, 3, 7)
    ext = ell_centre_extension(A.algebra(), 3)
    cert = verify_frobenius(ext)
    text = format_certificate(cert, A.algebra())
    for key in ("verdict:", "rank:", "phi_degree:", "symmetry_d:", "gram_status:", "nakayama_trivial:"):
        assert key in text


def test_det_exact_determinant_paths():
    # matrices that are neither generalized permutations nor scalar settle
    # through the determinant over S
    A = make_qas(1, 2, 31)
    ext = ell_centre_extension(A.algebra(), 2)
    alg = A.algebra()
    one = alg.monomial(alg.one)
    z = alg.monomial((2,))
    # constant determinant 1 + z - z = 1
    status = det_is_unit(sparse_rows([[one + z, z], [one, one]]), ext)
    assert (status.kind, status.method, status.detail) == (
        "unit-determinant", "exact-determinant", ""
    )

    # identically vanishing determinant
    status = det_is_unit(sparse_rows([[z, z], [z, z]]), ext)
    assert (status.kind, status.method, status.detail) == (
        "singular", "exact-determinant", "determinant is 0"
    )

    # z^6 has degree 6 >= p = 5, and the determinant over S is still 1
    small = make_qas(1, 2, 5)
    ext5 = ell_centre_extension(small.algebra(), 2)
    alg5 = small.algebra()
    one5 = alg5.monomial(alg5.one)
    big = alg5.monomial((12,))
    status = det_is_unit(sparse_rows([[one5 + big, big], [one5, one5]]), ext5)
    assert (status.kind, status.method) == ("unit-determinant", "exact-determinant")

    # z^6 - z^2 - 1 is -1 at every point of F_5, and still not a unit
    status = det_is_unit(sparse_rows([[big, one5], [one5 + alg5.monomial((4,)), one5]]), ext5)
    assert (status.kind, status.method, status.detail) == (
        "singular", "exact-determinant", "determinant is non-constant (total degree 6)"
    )


def test_poly_div_refuses_non_exact_divisions():
    # 1 / (x + 1) used to run forever down the negative powers of x, and
    # x / x^2 came back as x^-1
    with pytest.raises(DomainError, match="not exact"):
        frobenius._poly_div({(0,): 1}, {(1,): 1, (0,): 1}, 7)
    with pytest.raises(DomainError, match="not exact"):
        frobenius._poly_div({(1,): 1}, {(2,): 1}, 7)
    # x*y / y^2 leaves y^-1, a leading exponent no quotient term reaches
    with pytest.raises(DomainError, match="not exact"):
        frobenius._poly_div({(1, 1): 1, (0, 0): 1}, {(0, 2): 1}, 7)


def test_poly_div_undoes_products():
    rng = random.Random(17)
    p = 7

    def times(a, b):
        return frobenius._poly_cross(a, b, {}, {}, p)

    def random_poly():
        return {
            (rng.randrange(4), rng.randrange(4)): rng.randrange(1, p)
            for _ in range(rng.randrange(1, 6))
        }

    assert frobenius._poly_div({}, {(1, 0): 3}, p) == {}
    for _ in range(60):
        a, b = random_poly(), random_poly()
        assert frobenius._poly_div(times(a, b), b, p) == a
    # (1 + x + y)^8 / (1 + x + y)^3, 45 by 10 terms
    h = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    powers = [{(0, 0): 1}]
    for _ in range(8):
        powers.append(times(powers[-1], h))
    assert frobenius._poly_div(powers[8], powers[3], p) == powers[5]


@pytest.mark.parametrize(
    "ell, slot, crosses",
    [(4, None, 26), (5, None, 70), (7, (2, 6), 301)],
    ids=["rees-ell4", "rees-ell5", "qweyl-ell7-slot26"],
)
def test_elimination_runs_once_per_block(monkeypatch, ell, slot, crosses):
    # these Gram matrices split into 2 ell - 1 blocks of sizes 1, 1, 2, 2,
    # ..., ell, and a k x k block takes 1^2 + ... + (k-1)^2 cross products:
    # 26, 70 and 301.  The whole-matrix elimination took 99, 327 and 1,724
    # with its two zero skips and 1,240, 4,900 and 38,024 without them
    E = ell_centre_extension(quantum_weyl(ell), ell)
    if slot is None:
        _, E = rees_extension(E)
    else:
        E = E.with_form(ProjectionForm(E.engine, slot))
    M = gram_matrix(E)
    calls = Counter()
    cross = frobenius._poly_cross

    def counting(*args):
        calls["cross"] += 1
        return cross(*args)

    monkeypatch.setattr(frobenius, "_poly_cross", counting)
    status = det_is_unit(M, E)
    assert status.method == "exact-determinant"
    assert status.kind == ("unit-determinant" if slot is None else "singular")
    assert calls["cross"] == crosses


# slots of the q-Weyl ell-centre whose Gram determinants over S are the
# monomials X^10, X^20 (ell 5, p 11) and X^28, Y^28, X^28 Y^28 (ell 7,
# p 29): equal to 1 at every point of Max S off the coordinate axes
@pytest.mark.parametrize(
    "ell, slot, degree",
    [(5, (4, 2), 10), (5, (4, 0), 20), (7, (2, 6), 28), (7, (6, 2), 28), (7, (2, 2), 56)],
)
def test_qweyl_slot_with_non_unit_determinant_is_not_frobenius(ell, slot, degree):
    E = ell_centre_extension(quantum_weyl(ell), ell)
    cert = verify_frobenius(E.with_form(ProjectionForm(E.engine, slot)))
    assert cert.verdict == "not-frobenius"
    assert cert.refutation == {
        "kind": "gram-not-unit",
        "detail": f"determinant is non-constant (total degree {degree})",
    }
    assert cert.gram_status.method == "exact-determinant"


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 7])
def test_graded_and_filtered_verdicts_agree_on_every_slot(ell):
    # the main theorem on the q-Weyl ell-centre: the filtered extension
    # with a slot projection is Frobenius exactly when its associated
    # graded, the quantum plane with the same slot, is, and so is its
    # Rees extension
    W = quantum_weyl(ell)
    p = W.field.p
    plane = quantum_plane_of_weyl(W)
    graded = ell_centre_extension(plane.algebra(), ell)
    filtered = ell_centre_extension(W, ell)
    frobenius_slots = []
    for slot in filtered.basis:
        g = verify_frobenius(graded.with_form(ProjectionForm(graded.engine, slot)))
        F = filtered.with_form(ProjectionForm(filtered.engine, slot))
        f = verify_frobenius(F)
        _, R = rees_extension(F)
        r = verify_frobenius(R)
        assert g.verdict == f.verdict == r.verdict, (slot, g, f, r)
        assert {g.gram_status.kind, f.gram_status.kind} <= {"unit-determinant", "singular"}
        assert r.gram_status.method == "exact-determinant", (slot, r)
        if ell <= 3:
            # Rees(S) = F_p[X, Y, t] with X = x^ell, Y = y^ell; the central
            # index ((a, b), g) is X^(a/ell) Y^(b/ell) t^(g - a - b)
            exact = [
                [{(a // ell, b // ell, g - a - b): v for ((a, b), g), v in el.terms.items()}
                 for el in row]
                for row in dense_rows(R.gram(), Element(R.ambient.field))
            ]
            unit = is_unit_oracle(det_over_s_oracle(exact, p, 3), 3)
            assert unit == (r.gram_status.kind == "unit-determinant"), (slot, r)
            # the graded verdict from the word-sorting Gram matrix
            exact = qas_gram_oracle(plane.cmatrix, ell, W.field.zeta, p, {slot: 1})
            unit = is_unit_oracle(det_over_s_oracle(exact, p, 2), 2)
            assert unit == (g.gram_status.kind == "unit-determinant"), (slot, g)
        if f.verdict == "frobenius":
            frobenius_slots.append(slot)
    assert frobenius_slots == [filtered.engine.top_slot()]


def test_zero_degree_subring_generator_gives_non_scalar_determinant():
    # x2 has degree 0, so x2^3 is a non-scalar of degree 0 in S and a
    # homogeneous determinant of degree 0 need not be a scalar: here it
    # takes the values 0, 1 and 6 over Max S, and the determinant over S
    # refutes the form
    ell = 3
    A = make_qas(2, ell, degrees=(GroupElement((1,)), GroupElement((0,))))
    ext = ell_centre_extension(A.algebra(), ell)
    bad = ext.with_form(SlotSum(ext, {(2, 2): 1, (2, 1): 1}))
    cert = verify_frobenius(bad)
    assert cert.verdict == "not-frobenius"
    assert cert.gram_status.kind == "singular"
    assert cert.gram_status.method == "exact-determinant"
    p = A.field.p
    degenerate = [
        lam for lam in itertools.product(range(p), repeat=2)
        if not reduce_at_point(bad, lam).nondegenerate
    ]
    assert degenerate and len(degenerate) < p * p


@pytest.mark.parametrize("ell", [2, 3])
def test_qweyl_slot_gram_matrices_match_word_oracle(ell):
    # q-Weyl products have several terms, so an entry sums the form's
    # values on the terms of one product; under a sum of every slot, terms
    # of one product land on one central monomial and add up, and under
    # ``cancel`` the terms q * yx + 1 of x * y cancel, so that entry is zero
    W = quantum_weyl(ell)
    E = ell_centre_extension(W, ell)
    assert max(len(W.mul_indices(b, c)) for b in E.basis for c in E.basis) == ell
    every = {r: i + 1 for i, r in enumerate(E.basis)}
    cancel = {(1, 1): 1, (0, 0): -W.field.zeta % W.field.p}
    for weights in [{slot: 1} for slot in E.basis] + [every, cancel]:
        M = gram_matrix(E.with_form(SlotSum(E, weights)))
        got = [[{(a // ell, b // ell): v for (a, b), v in el.terms.items()} for el in row]
               for row in dense_rows(M, Element(W.field))]
        exact = qweyl_gram_oracle(W.field, ell, weights)
        assert got == exact, weights
        assert_rows_store_the_nonzero_pattern(M, exact)
    # M is the last form's, cancel's: x * y has two terms, and no entry
    x, y = E.basis.index((0, 1)), E.basis.index((1, 0))
    assert len(W.mul_indices((0, 1), (1, 0))) == 2 and y not in M[x]
    # the Rees Gram matrix of the top slot has the base pattern, its basis
    # (b, deg b) in degree order
    _, R = rees_extension(E)
    pos = [E.basis.index(b) for b, _ in R.basis]
    top = qweyl_gram_oracle(W.field, ell, {E.engine.top_slot(): 1})
    assert_rows_store_the_nonzero_pattern(R.gram(), [[top[i][j] for j in pos] for i in pos])


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from([(1, 2, 5), (1, 3, 7), (1, 7, 29), (2, 2, 5), (2, 2, 13),
                           (2, 3, 7), (2, 3, 19), (3, 2, 5), (3, 2, 11)]),
    dim=st.integers(1, 2),
    data=st.data(),
)
def test_det_is_unit_agrees_with_exact_oracle(shape, dim, data):
    n, ell, p = shape
    draw = data.draw
    coords = st.tuples(*[st.integers(0, 2)] * dim)
    degrees = tuple(GroupElement(draw(coords)) for _ in range(n))
    assume(any(not d.is_zero() for d in degrees))  # the algebra needs one
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            C[i][j] = draw(st.integers(0, ell - 1))
            C[j][i] = -C[i][j]
    slots = st.tuples(*[st.integers(0, ell - 1)] * n)
    weights = draw(st.dictionaries(slots, st.integers(1, p - 1), min_size=1, max_size=3))
    if draw(st.booleans()):  # the top slot alone is a unit; mix it in often
        weights[(ell - 1,) * n] = draw(st.integers(1, p - 1))
    A = make_qas(n, ell, p, cmatrix=C, degrees=degrees)
    ext = ell_centre_extension(A.algebra(), ell)
    ext = ext.with_form(SlotSum(ext, weights))
    M = gram_matrix(ext)
    exact = qas_gram_oracle(C, ell, A.field.zeta, p, weights)
    assert [[{tuple(e // ell for e in s): v for s, v in el.terms.items()} for el in row]
            for row in dense_rows(M, Element(A.algebra().field))] == exact
    assert_rows_store_the_nonzero_pattern(M, exact)
    status = det_is_unit(M, ext)
    event(f"{status.kind} via {status.method}")
    assert status.kind in ("unit-determinant", "singular"), status
    unit = is_unit_oracle(det_over_s_oracle(exact, p, n), n)
    assert unit == (status.kind == "unit-determinant"), status


@st.composite
def matrices_over_s(draw):
    """(p, n, M, unimodular): a k x k matrix M, k in 2..6, over
    S = F_p[z_1, ..., z_n] inside make_qas(n, 2, p), z_i = x_i^2.

    Gram matrices of slot sums are rarely units beyond permutations, so
    half the draws are unimodular: a unit diagonal under a few row
    operations with polynomial factors.  The other half are sparse: an
    entry is empty at least half the time, so the block split often finds
    several blocks, some of them not square.
    """
    n, p = draw(st.sampled_from([(1, 5), (1, 13), (2, 5), (2, 31)]))
    k = draw(st.integers(2, 6))
    alg = make_qas(n, 2, p).algebra()
    monomial = st.tuples(*[st.integers(0, 1)] * n)
    poly = st.dictionaries(monomial, st.integers(1, p - 1), max_size=2).map(
        lambda terms: sum((alg.monomial(tuple(2 * e for e in s), v) for s, v in terms.items()),
                          Element(alg.field))
    )
    unimodular = draw(st.booleans())
    if unimodular:
        M = [[alg.monomial((0,) * n, draw(st.integers(1, p - 1))) if i == j else Element(alg.field)
              for j in range(k)] for i in range(k)]
        for _ in range(draw(st.integers(1, 4))):
            i, j = draw(st.sampled_from([(i, j) for i in range(k) for j in range(k) if i != j]))
            f = draw(poly)
            M[i] = [x + multiply(alg, f, y) for x, y in zip(M[i], M[j])]
    else:
        entry = st.one_of(st.just(Element(alg.field)), poly)
        M = [[draw(entry) for _ in range(k)] for _ in range(k)]
    return p, n, M, unimodular


def _upper_triangular_z4():
    # det z^4 over F_5: 1 at every nonzero point, and not a unit
    alg = make_qas(1, 2, 5).algebra()
    z, one = alg.monomial((2,)), alg.monomial(alg.one)
    above = [[one, one + z, 2 * z], [one + 3 * z, one], [4 * one]]
    return [[z if i == j else above[i][j - i - 1] if j > i else Element(alg.field) for j in range(4)]
            for i in range(4)]


def _zero_that_fills_in():
    # det -1 over F_5; the first step turns M[1][1] = 0 into -1, since
    # M[1][0] and M[0][1] are nonzero, and a skip of it would leave a zero
    # pivot with no row to swap in
    alg = make_qas(1, 2, 5).algebra()
    z, one, zero = alg.monomial((2,)), alg.monomial(alg.one), Element(alg.field)
    return [[one + z, one, z], [one, zero, zero], [z, zero, one]]


def _non_square_blocks():
    # no zero row or column, and the pattern splits into a 2x1 and a 1x2
    # block, so det M is 0
    alg = make_qas(1, 2, 5).algebra()
    z, one, zero = alg.monomial((2,)), alg.monomial(alg.one), Element(alg.field)
    return [[z, zero, zero], [one, zero, zero], [zero, one, z]]


def test_non_square_blocks_without_a_zero_line_are_singular():
    ext = ell_centre_extension(make_qas(1, 2, 5).algebra(), 2)
    status = det_is_unit(sparse_rows(_non_square_blocks()), ext)
    assert (status.kind, status.method, status.detail, status.zero_line) == (
        "singular", "exact-determinant", "determinant is 0", None
    )


@settings(max_examples=100, deadline=None)
@example(case=(5, 1, _non_square_blocks(), False))
@given(case=matrices_over_s())
def test_block_determinants_multiply_to_the_exact_determinant(case):
    p, n, M, _ = case
    exact = [[{tuple(e // 2 for e in s): v for s, v in el.terms.items()} for el in row]
             for row in M]
    det = {(0,) * n: 1}
    blocks = frobenius._blocks(sparse_rows(exact))
    for rows, cols in blocks:
        block = [[exact[i][j] for j in cols] for i in rows]
        block_det = frobenius._poly_det(block, p) if len(rows) == len(cols) else {}
        det = frobenius._poly_cross(det, block_det, {}, {}, p)
    event(f"{len(blocks)} blocks")
    oracle = det_over_s_oracle(exact, p, n)
    assert det in (oracle, {e: -c % p for e, c in oracle.items()})
    status = det_is_unit(sparse_rows(M), ell_centre_extension(make_qas(n, 2, p).algebra(), 2))
    assert is_unit_oracle(oracle, n) == (status.kind == "unit-determinant"), status
    if not oracle and status.zero_line is None:
        assert status.detail == "determinant is 0", status


@settings(max_examples=100, deadline=None)
@example(case=(5, 1, _upper_triangular_z4(), False))
@example(case=(5, 1, _zero_that_fills_in(), True))
@given(case=matrices_over_s())
def test_det_is_unit_on_matrices_over_s_agrees_with_exact_oracle(case):
    p, n, M, unimodular = case
    ext = ell_centre_extension(make_qas(n, 2, p).algebra(), 2)
    status = det_is_unit(sparse_rows(M), ext)
    event(f"{status.kind} via {status.method}")
    assert status.kind in ("unit-determinant", "singular"), status
    exact = [[{tuple(e // 2 for e in s): v for s, v in el.terms.items()} for el in row]
             for row in M]
    unit = is_unit_oracle(det_over_s_oracle(exact, p, n), n)
    assert unit == (status.kind == "unit-determinant"), status
    if unimodular:
        assert unit
