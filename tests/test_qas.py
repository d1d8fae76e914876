"""Quantum affine space: normal ordering against the word oracle,
restricted decomposition, the top-slot form, and the q-Weyl fixture."""

import itertools
import random
from dataclasses import replace

import pytest

from frobex.algcore import Element, RootField, multiply
from frobex.errors import DimensionMismatch, DomainError, UnsupportedStructure
from frobex.frobenius import ell_centre_extension, reassemble
from frobex.grpdeg import GroupElement
from frobex.qas import (
    QuantumAffineSpace,
    RestrictedBasisEngine,
    make_qas,
    monomial_product,
    quantum_plane_of_weyl,
    quantum_weyl,
    standard_cmatrix,
)

from oracles import qas_product_oracle, qweyl_product_oracle


def random_antisymmetric(n, rng, bound=3):
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            C[i][j] = rng.randrange(-bound, bound + 1)
            C[j][i] = -C[i][j]
    return tuple(tuple(row) for row in C)


def test_construction_validates():
    fld = RootField(7, 3)
    with pytest.raises(DomainError):
        QuantumAffineSpace(fld, ((0, 1), (1, 0)), (GroupElement((1,)),) * 2)
    with pytest.raises(DomainError):
        QuantumAffineSpace(fld, ((1, 1), (-1, 0)), (GroupElement((1,)),) * 2)
    with pytest.raises(DomainError):
        QuantumAffineSpace(
            fld, standard_cmatrix(2), (GroupElement((0,)), GroupElement((0,)))
        )
    with pytest.raises(DomainError):
        QuantumAffineSpace(
            fld, standard_cmatrix(2), (GroupElement((-1,)), GroupElement((1,)))
        )
    with pytest.raises(DimensionMismatch):
        QuantumAffineSpace(fld, standard_cmatrix(2), (GroupElement((1,)),))


def test_monomial_product_unit():
    A = make_qas(3, 3, 7)
    a = (1, 2, 0)
    assert monomial_product(A, a, (0, 0, 0)) == (0, a)
    assert monomial_product(A, (0, 0, 0), a) == (0, a)


def test_monomial_product_checks_its_input():
    A = make_qas(2, 3, 7)
    with pytest.raises(DimensionMismatch):
        monomial_product(A, (1, 0, 0), (0, 1))
    with pytest.raises(DimensionMismatch):
        monomial_product(A, (1, 0), (0,))
    with pytest.raises(DomainError):
        monomial_product(A, (1, -1), (0, 1))
    with pytest.raises(DomainError):
        monomial_product(A, (1, 0), (-2, 1))


def test_monomial_product_interface_examples():
    # n=2, C[1][2] = 1: x1 x2 = q x2 x1
    A = make_qas(2, 3, 7)
    k, exps = monomial_product(A, (0, 1), (1, 0))
    assert exps == (1, 1) and k == (-1) % 3
    k, exps = monomial_product(A, (1, 1), (1, 1))
    assert exps == (2, 2) and k == (-1) % 3


def test_normal_ordering_matches_word_oracle_exhaustively():
    # every product of small monomials, all n <= 3, ell in {2, 3}
    for n, ell in [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)]:
        rng = random.Random(100 * n + ell)
        C = random_antisymmetric(n, rng)
        A = make_qas(n, ell, cmatrix=C)
        exps = list(itertools.product(range(3), repeat=n))
        for a in exps:
            for b in exps:
                assert monomial_product(A, a, b) == qas_product_oracle(C, ell, a, b)


def test_normal_ordering_matches_word_oracle_randomized():
    rng = random.Random(7)
    C = random_antisymmetric(2, rng)
    A = make_qas(2, 5, 11, cmatrix=C)
    for _ in range(60):
        a = tuple(rng.randrange(0, 6) for _ in range(2))
        b = tuple(rng.randrange(0, 6) for _ in range(2))
        assert monomial_product(A, a, b) == qas_product_oracle(C, 5, a, b)


def test_restricted_decompose_monomial_slots():
    ell = 3
    A = make_qas(2, ell, 7)
    alg = A.algebra()
    decompose = ell_centre_extension(alg, ell).engine.decompose
    # x1^ell sits in slot 0 as itself
    dec = decompose(alg.monomial((ell, 0)))
    assert set(dec) == {(0, 0)}
    assert dec[(0, 0)] == alg.monomial((ell, 0))
    # x1^(ell+1) sits in slot (1, 0) with central part x1^ell
    dec = decompose(alg.monomial((ell + 1, 0)))
    assert set(dec) == {(1, 0)}
    assert dec[(1, 0)] == alg.monomial((ell, 0))
    # x1^3 x2^4 at ell = 3 sits in slot (0, 1) with central part x1^3 x2^3
    dec = decompose(alg.monomial((3, 4)))
    assert set(dec) == {(0, 1)}
    idx, c = dec[(0, 1)].single_term()
    assert idx == (3, 3)
    # reassembly undoes any scalar bookkeeping exactly
    assert reassemble(alg, dec) == alg.monomial((3, 4))


def test_restricted_decompose_round_trip_random():
    rng = random.Random(5)
    A = make_qas(2, 3, 7, cmatrix=random_antisymmetric(2, rng))
    alg = A.algebra()
    decompose = ell_centre_extension(alg, 3).engine.decompose
    for _ in range(40):
        terms = {
            tuple(rng.randrange(0, 8) for _ in range(2)): rng.randrange(1, 7)
            for _ in range(rng.randrange(1, 4))
        }
        y = Element(alg.field, terms)
        assert reassemble(alg, decompose(y)) == y


def test_decompose_split_failures_are_not_memoized():
    A = make_qas(2, 3, 7).algebra()
    broken = [True]

    def mul(i, j):
        if broken[0] and i == (3, 0):
            return A.monomial((0, 3))  # x1^3 * x^r lands on the wrong index
        return A.mul_indices(i, j)

    engine = RestrictedBasisEngine(replace(A, mul_indices=mul), 3)
    y = A.monomial((4, 1))
    for _ in range(2):
        with pytest.raises(DomainError, match="does not split"):
            engine.decompose(y)
    broken[0] = False
    assert reassemble(engine.algebra, engine.decompose(y)) == y


def test_frobenius_form_examples():
    ell, n = 3, 2
    A = make_qas(n, ell, 7)
    alg = A.algebra()
    form = ell_centre_extension(alg, ell).form
    top = (ell - 1,) * n
    assert form(alg.monomial(top)) == alg.one_element()
    for a in itertools.product(range(ell), repeat=n):
        if a != top:
            assert form(alg.monomial(a)).is_zero()
    # slot ell-1 with a central shift: x1^(2*ell-1) x2^(ell-1)
    val = form(alg.monomial((2 * ell - 1, ell - 1)))
    idx, _ = val.single_term()
    assert idx == (ell, 0)


def test_frobenius_form_homogeneity():
    ell = 3
    d = (GroupElement((1, 0)), GroupElement((0, 2)))
    A = make_qas(2, ell, 7, degrees=d)
    alg = A.algebra()
    form = ell_centre_extension(alg, ell).form
    shift = -(ell - 1) * (d[0] + d[1])
    rng = random.Random(2)
    for _ in range(30):
        e = tuple(rng.randrange(0, 3 * ell) for _ in range(2))
        val = form(alg.monomial(e))
        if not val.is_zero():
            from frobex.algcore import filtered_degree

            assert filtered_degree(alg, val) == alg.degree_of(e) + shift


def test_restricted_basis_count():
    for n in (1, 2, 3):
        for ell in (2, 3, 5):
            A = make_qas(n, ell, default_p(ell))
            assert len(ell_centre_extension(A.algebra(), ell).engine.basis) == ell**n


def default_p(ell):
    return {2: 5, 3: 7, 5: 11}[ell]


def test_f1_witness_property_exhaustive():
    # Phi(x^a x^c) and Phi(x^c x^a) are nonzero for the complement c
    for n, ell in [(1, 3), (2, 2), (2, 3)]:
        A = make_qas(n, ell, 7 if ell != 2 else 5)
        alg = A.algebra()
        form = ell_centre_extension(alg, ell).form
        for a in itertools.product(range(ell), repeat=n):
            c = tuple(ell - 1 - e for e in a)
            left = form(multiply(alg, alg.monomial(a), alg.monomial(c)))
            right = form(multiply(alg, alg.monomial(c), alg.monomial(a)))
            assert not left.is_zero() and not right.is_zero()


def test_ell_centre_commutativity():
    rng = random.Random(11)
    A = make_qas(3, 3, 7, cmatrix=random_antisymmetric(3, rng))
    alg = A.algebra()
    ell = 3
    gens = [tuple(ell if j == i else 0 for j in range(3)) for i in range(3)]
    for s, t in itertools.product(gens, gens):
        assert multiply(alg, alg.monomial(s), alg.monomial(t)) == multiply(
            alg, alg.monomial(t), alg.monomial(s)
        )


# ---------------------------------------------------------------------------
# the q-Weyl fixture
# ---------------------------------------------------------------------------


def test_qweyl_defining_relation():
    W = quantum_weyl(3, 7)
    x, y = W.monomial((0, 1)), W.monomial((1, 0))
    assert multiply(W, x, y) == Element(W.field, {(1, 1): W.field.zeta, (0, 0): 1})


def test_qweyl_top_symbol_truncates():
    from frobex.algcore import top_symbol

    W = quantum_weyl(3, 7)
    prod = multiply(W, W.monomial((0, 1)), W.monomial((1, 0)))
    assert top_symbol(W, prod) == Element(W.field, {(1, 1): W.field.zeta})


def test_qweyl_matches_word_oracle():
    W = quantum_weyl(3, 7)
    for a1, b1, a2, b2 in itertools.product(range(3), repeat=4):
        got = multiply(W, W.monomial((a1, b1)), W.monomial((a2, b2)))
        want = qweyl_product_oracle(W.field, (a1, b1), (a2, b2))
        assert got == want


@pytest.mark.parametrize("ell", [3, 4])
def test_qweyl_cached_products_match_word_oracle(ell):
    # every product landing in the window 3 * top, top = deg y^(ell-1) x^(ell-1);
    # the reversed second pass is served from the expansion cache
    W = quantum_weyl(ell)
    window = 3 * 2 * (ell - 1)
    indices = list(W.enumerate_up_to(GroupElement((window,))))
    pairs = [(i, j) for i in indices for j in indices if sum(i) + sum(j) <= window]
    want = {pair: qweyl_product_oracle(W.field, *pair) for pair in pairs}
    for pair in pairs + pairs[::-1]:
        assert W.mul_indices(*pair) == want[pair], pair
    for idx in indices:
        assert W.degree_of(idx) == GroupElement((idx[0] + idx[1],))
        assert W.degree_of(idx) is W.degree_of(idx)


def test_enumerate_up_to_refuses_a_bound_of_another_rank():
    # a rank-one enumeration read only the first coordinate of (6, 6) and
    # answered with the 28 indices of total degree <= 6
    W = quantum_weyl(3)
    assert len(list(W.enumerate_up_to(GroupElement((6,))))) == 28
    for bound in (GroupElement((6, 6)), GroupElement(())):
        with pytest.raises(UnsupportedStructure):
            W.enumerate_up_to(bound)
    with pytest.raises(UnsupportedStructure):
        make_qas(2, 3).algebra().enumerate_up_to(GroupElement((2, 0)))


def test_trusted_products_are_reduced():
    # products wrapped without re-reduction hold values in [1, p) only and
    # equal the element the checked constructor builds; x^3 * y meets
    # [3]_q = 0 at ell = 3
    from frobex.algcore import gr_of
    from frobex.rees import enumerate_admissible, rees_of

    def assert_reduced(el):
        assert all(0 < c < el.field.p for c in el.terms.values()), el
        assert el == Element(el.field, dict(el.terms))

    W = quantum_weyl(3, 7)
    G = gr_of(W)
    indices = list(W.enumerate_up_to(GroupElement((4,))))
    assert (0, 4) in indices
    for i in indices:
        for j in indices:
            prod = W.mul_indices(i, j)
            assert_reduced(prod)
            assert prod == qweyl_product_oracle(W.field, i, j)
            assert_reduced(G.mul_indices(i, j))
    RA = rees_of(W, GroupElement((6,)))
    adm = list(enumerate_admissible(RA, GroupElement((3,))))
    for u in adm:
        for v in adm:
            assert_reduced(RA.algebra.mul_indices(u, v))
    A = make_qas(3, 3, 7).algebra()
    exps = list(itertools.product(range(4), repeat=3))
    for a in exps:
        for b in exps:
            assert_reduced(A.mul_indices(a, b))


def test_qweyl_caches_belong_to_one_algebra():
    # the same expansions over two fields: nothing cached carries over
    algebras = [quantum_weyl(3, 7), quantum_weyl(3, 13)]
    for W in algebras + algebras[::-1]:
        for a1, b1, a2, b2 in itertools.product(range(4), repeat=4):
            got = W.mul_indices((a1, b1), (a2, b2))
            assert got == qweyl_product_oracle(W.field, (a1, b1), (a2, b2))


@pytest.mark.parametrize("ell,p", [(2, 5), (3, 7), (5, 11)])
def test_qweyl_centrality_probe(ell, p):
    # x^ell and y^ell commute with both generators; verified, not assumed
    W = quantum_weyl(ell, p)
    x, y = W.monomial((0, 1)), W.monomial((1, 0))
    for central in (W.monomial((0, ell)), W.monomial((ell, 0))):
        for gen in (x, y):
            assert multiply(W, central, gen) == multiply(W, gen, central)


def test_qweyl_centrality_against_oracle():
    # the same identity straight from word rewriting in the free algebra
    for ell, p in [(2, 5), (3, 7), (5, 11)]:
        fld = RootField(p, ell)
        left = qweyl_product_oracle(fld, (0, ell), (1, 0))
        right = qweyl_product_oracle(fld, (1, 0), (0, ell))
        assert left == right == Element(fld, {(1, ell): 1})


def test_qweyl_rejects_small_ell():
    with pytest.raises(DomainError):
        quantum_weyl(1, 7)


def test_quantum_plane_of_weyl_matches_gr():
    from frobex.algcore import gr_of

    W = quantum_weyl(3, 7)
    plane = quantum_plane_of_weyl(W).algebra()
    G = gr_of(W)
    indices = [(a, b) for a in range(4) for b in range(4)]
    for i in indices:
        assert plane.degree_of(i) == G.degree_of(i)
        for j in indices:
            assert plane.mul_indices(i, j) == G.mul_indices(i, j)


def test_free_basis_multiset_survives_gr():
    # restricted monomials have the same degrees filtered and graded,
    # and their top symbols are again the restricted basis
    from frobex.algcore import gr_of, top_symbol

    ell = 2
    W = quantum_weyl(ell, 5)
    G = gr_of(W)
    basis = [(a, b) for a in range(ell) for b in range(ell)]
    filtered_degrees = sorted(W.degree_of(b).coords[0] for b in basis)
    graded_degrees = sorted(G.degree_of(b).coords[0] for b in basis)
    assert filtered_degrees == graded_degrees
    for b in basis:
        assert top_symbol(W, W.monomial(b)) == G.monomial(b)


def test_from_config_round_trip():
    # make_qas over a parsed config keeps every field the config gave
    from frobex.algcore import parse_algebra_config

    cfg = parse_algebra_config(
        "[field]\np = 7\nell = 3\n\n"
        "[generators]\nnames = u v\ndegrees = 1 0; 0 1\n\n"
        "[relations]\nc = 0 2; -2 0\n"
    )
    A = make_qas(len(cfg.names), cfg.ell, cfg.p, cfg.cmatrix, cfg.degrees, names=cfg.names)
    assert A.n == 2 and A.field.p == 7 and A.field.ell == 3
    assert A.cmatrix == ((0, 2), (-2, 0))
    assert A.degrees == cfg.degrees and A.names == ("u", "v")
    assert A.algebra().generator_names == ("u", "v")
    k, exps = monomial_product(A, (0, 1), (1, 0))
    assert exps == (1, 1) and k == (-2) % 3
