"""Straightening rewriting, basis enumeration, census, freeness window."""

import random
from collections import Counter

import pytest

from frobex.algcore import RootField, check_associativity, check_degree_law
from frobex.errors import BudgetExceeded, DomainError
import frobex.grassmannian as grassmannian
from frobex.grassmannian import (
    CENSUS_DEGREES,
    GrGrassmannian,
    _product_pass,
    alternate_s_matrix,
    census_degree,
    central_standard_monomials,
    default_s_matrix,
    degree_census,
    ell_centre_module_basis,
    exponents_of,
    hilbert_series,
    is_standard,
    normal_form_word,
    standard_monomials_by_degree,
    verify_freeness_window,
    word_of,
)

from oracles import gr24_family_oracle


@pytest.fixture(scope="module")
def G2():
    return GrGrassmannian(RootField(7, 2))


@pytest.fixture(scope="module")
def G3():
    return GrGrassmannian(RootField(7, 3))


def test_configuration_is_validated():
    fld = RootField(7, 3)
    bad = [list(row) for row in default_s_matrix()]
    bad[0][1] += 1  # breaks antisymmetry
    with pytest.raises(DomainError):
        GrGrassmannian(fld, bad)
    skew = [list(row) for row in default_s_matrix()]
    skew[0][2] += 1  # antisymmetric but breaks the closure condition
    skew[2][0] -= 1
    with pytest.raises(DomainError):
        GrGrassmannian(fld, skew)


def test_both_builtin_configs_are_confluent_for_all_ell():
    for ell in (2, 3, 4, 5):
        fld = RootField({2: 5, 3: 7, 4: 5, 5: 11}[ell], ell)
        GrGrassmannian(fld, default_s_matrix())
        GrGrassmannian(fld, alternate_s_matrix())


def test_straightening_examples(G3):
    # x3 * x4 -> zeta^t x2 x5
    k, exps = normal_form_word(G3, (2, 3))
    assert exps == (0, 1, 0, 0, 1, 0) and k == G3.t_exp % 3
    # already sorted words are fixed
    k, exps = normal_form_word(G3, (0, 1))
    assert exps == (1, 1, 0, 0, 0, 0) and k == 0
    # swap then straighten
    k, exps = normal_form_word(G3, (3, 2))
    assert exps == (0, 1, 0, 0, 1, 0)
    assert k == (G3.s[3][2] + G3.t_exp) % 3


def test_normal_forms_are_standard(G3):
    rng = random.Random(0)
    for _ in range(200):
        word = tuple(rng.randrange(6) for _ in range(rng.randrange(1, 9)))
        _, exps = normal_form_word(G3, word)
        assert is_standard(exps)


def test_normal_form_element_wrapper(G3):
    # the product wraps normal_form_word: x3 * x4 = zeta^t * x2 x5
    prod = G3.algebra().mul_indices((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0))
    assert prod == {(0, 1, 0, 0, 1, 0): G3.field.zeta_pow(G3.t_exp)}


def test_budget_overrun_is_an_error(G3):
    with pytest.raises(BudgetExceeded):
        normal_form_word(G3, (5, 4, 3, 2, 1, 0), budget=2)


def test_confluence_random_strategies(G3):
    rng = random.Random(42)
    for _ in range(60):
        word = tuple(rng.randrange(6) for _ in range(rng.randrange(2, 10)))
        reference = normal_form_word(G3, word)
        for _ in range(5):
            assert normal_form_word(G3, word, rng=rng) == reference


def test_algebra_is_graded_and_associative(G3):
    alg = G3.algebra()
    gens = list(alg.generator_indices)
    pairs = [(a, b) for a in gens for b in gens]
    check_degree_law(alg, pairs)
    rng = random.Random(1)
    triples = [tuple(gens[rng.randrange(6)] for _ in range(3)) for _ in range(60)]
    check_associativity(alg, triples)


def test_basis_membership_examples():
    for ell in (2, 3):
        basis = set(ell_centre_module_basis(ell))
        x2 = (0, 1, 0, 0, 0, 0)
        x4 = (0, 0, 0, 1, 0, 0)
        empty = (0,) * 6
        top = (ell - 1, 0, ell - 1, 0, ell - 1, ell - 1)
        assert x2 in basis and x4 in basis
        assert empty in basis
        assert top in basis
        # never both x3 and x4
        assert all(b[2] == 0 or b[3] == 0 for b in basis)
        # the excluded corner: all five heavy exponents maximal fails the cap
        overfull = (ell - 1, ell - 1, ell - 1, 0, ell - 1, ell - 1)
        assert overfull not in basis


def test_census_frozen_values_ell_2():
    rep = degree_census(2)
    assert rep.basis_size == 40
    assert rep.counts == {0: 1, 1: 2, 2: 5, 3: 7, 4: 8, 5: 8, 6: 5, 7: 3, 8: 1}
    assert rep.max_degree == 8
    assert rep.symmetry_d is None
    assert rep.verdict == "not-frobenius"
    assert rep.paper_agreement["degree_1_count_is_2"]
    assert rep.paper_agreement["max_degree_is_8(ell-1)"]
    # the published claim of an empty level below the top fails by enumeration:
    # degree 7 holds x1x2x3x6, x1x2x5x6 and x1x4x5x6
    assert not rep.paper_agreement["no_elements_of_degree_8(ell-1)-1"]


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_census_verdict_all_ell(ell):
    rep = degree_census(ell)
    assert rep.counts[0] == 1
    assert rep.counts[1] == 2
    assert rep.max_degree == 8 * (ell - 1)
    assert rep.counts[rep.max_degree] == 1
    assert rep.symmetry_d is None
    assert rep.verdict == "not-frobenius"
    assert sum(rep.counts.values()) == rep.basis_size


@pytest.mark.parametrize("ell", range(2, 9))
def test_census_counts_match_family_oracle(ell):
    family = gr24_family_oracle(ell)
    rep = degree_census(ell)
    assert rep.counts == dict(Counter(census_degree(b) for b in family))
    assert rep.basis_size == len(family)


def test_census_counts_without_enumerating_the_family(monkeypatch):
    def refuse(ell):
        raise AssertionError("degree_census enumerated the family")

    monkeypatch.setattr(grassmannian, "ell_centre_module_basis", refuse)
    rep = degree_census(20)
    assert rep.basis_size == 4_264_000
    assert rep.max_degree == 8 * 19
    assert rep.verdict == "not-frobenius"


def test_hilbert_series_counts_standard_monomials():
    buckets = standard_monomials_by_degree(16)
    assert hilbert_series(17) == [len(buckets[d]) for d in range(17)]


@pytest.mark.parametrize("ell", range(2, 9))
def test_central_standard_monomials_count_h_r_at_t_to_the_ell(ell):
    # freeness_obstruction reads H_Z0(t) = H_R(t^ell) off H_R
    terms = 12 * ell
    h_r = hilbert_series(terms)
    counts = Counter(census_degree(z) for z in central_standard_monomials(ell, terms - 1))
    assert [counts[k] for k in range(terms)] == [
        h_r[k // ell] if k % ell == 0 else 0 for k in range(terms)
    ]


@pytest.mark.parametrize("ell, p, cutoff", [(2, 7, 8), (3, 7, 9)])
@pytest.mark.parametrize("scalars", [default_s_matrix, alternate_s_matrix])
def test_central_standard_monomials_span_a_subring(ell, p, cutoff, scalars):
    # Z0 is spanned by the central standard monomials on the window: every
    # product of two of them, x3^ell * x4^ell included, normal-forms to a
    # scalar multiple of one
    G = GrGrassmannian(RootField(p, ell), scalars(), t_exp=2)
    zs = central_standard_monomials(ell, cutoff)
    central = set(central_standard_monomials(ell, 2 * cutoff))
    assert (0, 0, ell, 0, 0, 0) in zs and (0, 0, 0, ell, 0, 0) in zs
    for a in zs:
        for b in zs:
            _, exps = normal_form_word(G, word_of(a) + word_of(b))
            assert exps in central


def test_census_counts_are_scalar_independent():
    # degree_census takes no scalars because they never move a word's
    # standard monomial, only the zeta exponent in front of it
    rng = random.Random(17)
    for ell in (2, 3):
        a = GrGrassmannian(RootField(7, ell), default_s_matrix(), t_exp=1)
        b = GrGrassmannian(RootField(7, ell), alternate_s_matrix(), t_exp=2)
        for _ in range(200):
            word = tuple(rng.randrange(6) for _ in range(rng.randrange(2, 11)))
            assert normal_form_word(a, word)[1] == normal_form_word(b, word)[1]
        assert degree_census(ell).verdict == "not-frobenius"


def test_census_degree_helper():
    assert census_degree((1, 1, 1, 0, 0, 1)) == 2 + 1 + 2 + 2
    assert CENSUS_DEGREES == (2, 1, 2, 1, 2, 2)


def test_standard_monomial_enumeration_matches_series():
    # degrees 0..5 of the standard-monomial count: 1, 2, 7, 11, 25, 35
    buckets = standard_monomials_by_degree(5)
    assert [len(buckets[d]) for d in range(6)] == [1, 2, 7, 11, 25, 35]


def test_central_monomials_are_ell_th_powers():
    zs = central_standard_monomials(2, 8)
    assert all(all(e % 2 == 0 for e in z) for z in zs)
    assert (0, 2, 0, 0, 0, 0) in zs and (0, 0, 0, 2, 0, 0) in zs
    # census degree 4 level: squares of the five degree-2 standard monomials
    assert sum(1 for z in zs if census_degree(z) == 4) == 7


def test_freeness_window_low_degrees_pass(G2):
    rep = verify_freeness_window(G2, 4, mode="match")
    assert rep.ok
    assert rep.per_degree == {0: (1, 1), 1: (2, 2), 2: (7, 7), 3: (11, 11), 4: (25, 25)}


def test_freeness_window_ground_truth_ell_2(G2):
    # exhaustive enumeration: the sweep first overcounts at degree 5
    # (36 products against 35 standard monomials), so the distinguished
    # family is not free over the central subring; see the explicit
    # dependence below
    rep = verify_freeness_window(G2, 8, mode="match")
    assert not rep.ok
    assert rep.per_degree[5] == (36, 35)
    assert "degree 5" in rep.counterexample


def test_freeness_window_ground_truth_ell_3(G3):
    rep = verify_freeness_window(G3, 12, mode="count")
    assert not rep.ok
    assert rep.per_degree[7] == (86, 85)


def test_explicit_dependence_over_centre(G2):
    # x2^2 * (x4 x5) and x4^2 * (x2 x3) reduce to the same standard
    # monomial with the same scalar: an honest linear dependence between
    # products of distinct distinguished basis elements
    z1, b1 = (0, 2, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0)
    z2, b2 = (0, 0, 0, 2, 0, 0), (0, 1, 1, 0, 0, 0)
    basis = set(ell_centre_module_basis(2))
    assert b1 in basis and b2 in basis
    left = normal_form_word(G2, word_of(z1) + word_of(b1))
    right = normal_form_word(G2, word_of(z2) + word_of(b2))
    assert left == right == (0, (0, 2, 0, 1, 1, 0))


def test_degree_zero_sweep_is_identity(G2):
    rep = verify_freeness_window(G2, 0, mode="match")
    assert rep.ok and rep.per_degree == {0: (1, 1)}


def test_word_exponent_round_trip():
    exps = (1, 0, 2, 0, 0, 1)
    assert exponents_of(word_of(exps)) == exps


def test_central_power_times_x4_reduces_by_straightening(G2):
    # x3^ell * x4 straightens into the standard span: one application of
    # the straightening rule and one swap, with the predicted scalar
    ell = 2
    z = tuple(ell if i == 2 else 0 for i in range(6))
    k, exps = normal_form_word(G2, word_of(z) + (3,))
    assert exps == (0, 1, 1, 0, 1, 0)  # x2 x3 x5
    assert k == (G2.t_exp + G2.s[2][1]) % ell


def test_product_pass_reports_an_unreached_target(G2):
    # fewer products than targets: no collision, the first miss is named
    x2, x4 = (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)
    pairs = [((0,) * 6, x2)]
    assert _product_pass(G2, pairs, [x4, x2]) == (None, x4)


def test_monomial_formatting(G2):
    A = G2.algebra()
    assert A.index_str((1, 0, 2, 0, 0, 1)) == "x1*x3^2*x6"
    assert A.index_str((0, 0, 0, 0, 0, 0)) == "1"
    assert A.index_str((0, 3, 0, 1, 0, 0)) == "x2^3*x4"
    assert A.format_element(A.monomial((0, 1, 0, 0, 1, 0), 3)) == "3*x2*x5"
