"""Fields, sparse elements, based-algebra operations and config parsing."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobex.algcore import (
    MR_PROOF_BOUND,
    Element,
    RootField,
    check_associativity,
    check_degree_law,
    default_prime,
    filtered_degree,
    gr_of,
    is_prime,
    multiply,
    parse_algebra_config,
    weighted_exponents,
)
from frobex.errors import ConfigError, DomainError
from frobex.grpdeg import GroupElement
from frobex.qas import make_qas, quantum_weyl
from oracles import top_terms_oracle


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 7919]
    for p in primes:
        assert is_prime(p)
    for n in [0, 1, 4, 9, 91, 7917]:
        assert not is_prime(n)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial(n) for n in range(10**5))


def test_is_prime_refuses_numbers_it_cannot_prove():
    # psi_12 = 399165290221 * 798330580441 passes all twelve witnesses
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441 == MR_PROOF_BOUND
    for n in (psi12, 3317044064679887385961981):
        with pytest.raises(DomainError, match=str(psi12)):
            is_prime(n)
    # just below the bound the answer is a proof either way
    assert is_prime(psi12 - 20) and not is_prime(psi12 - 2)


def test_default_prime_divisibility():
    for ell in range(1, 13):
        p = default_prime(ell)
        assert is_prime(p) and (p - 1) % ell == 0


def test_root_field_validates():
    with pytest.raises(DomainError):
        RootField(6, 2)  # not prime
    with pytest.raises(DomainError):
        RootField(5, 3)  # 3 does not divide 4
    with pytest.raises(DomainError):
        RootField(7, 3, zeta=6)  # order 2, not 3


def test_zeta_has_exact_order():
    for ell, p in [(2, 5), (3, 7), (4, 13), (5, 11), (6, 7)]:
        fld = RootField(p, ell)
        assert pow(fld.zeta, ell, p) == 1
        for k in range(1, ell):
            assert pow(fld.zeta, k, p) != 1


def test_zeta_search_is_seeded():
    a = RootField(31, 5, seed=3)
    b = RootField(31, 5, seed=3)
    assert a.zeta == b.zeta


def test_qint():
    fld = RootField(7, 3)  # zeta = 2 under the default seed
    assert fld.qint(0) == 0
    assert fld.qint(1) == 1
    assert fld.qint(3) == (1 + fld.zeta + fld.zeta**2) % 7 == 0


@pytest.fixture(scope="module")
def plane():
    # quantum plane fixture from the interface examples: n=2, ell=3, p=7, zeta=2
    return make_qas(2, 3, 7, zeta=2)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_linear_combination_is_bilinear(lam, mu, nu):
    fld = RootField(7, 3, zeta=2)
    a = Element(fld, {(1, 0): 2, (0, 1): 3})
    b = Element(fld, {(0, 1): 4, (1, 1): 1})
    left = (lam * a + mu * b) + nu * b
    right = lam * a + ((mu + nu) % 7) * b
    assert left == right


def test_multiply_unit_law(plane):
    A = plane.algebra()
    r = Element(A.field, {(1, 2): 3, (0, 0): 5})
    assert multiply(A, A.monomial(A.one), r) == r
    assert multiply(A, r, A.monomial(A.one)) == r


def test_quantum_plane_swap_scalar(plane):
    # x2 * x1 = zeta^2 * x1 x2 = 4 * x1 x2 at zeta = 2
    A = plane.algebra()
    prod = multiply(A, A.monomial((0, 1)), A.monomial((1, 0)))
    assert prod == A.monomial((1, 1), 4)


def test_filtered_degree_examples():
    W = quantum_weyl(3, 7)
    with pytest.raises(DomainError, match="filtered degree of 0"):
        filtered_degree(W, Element(W.field))
    assert filtered_degree(W, W.monomial(W.one)) == GroupElement((0,))
    # q*yx + 1 has degree 2
    el = Element(W.field, {(1, 1): W.field.zeta, (0, 0): 1})
    assert filtered_degree(W, el) == GroupElement((2,))


def test_top_symbol_examples():
    # the top symbol of x * y = q*yx + 1 is its gr product q*yx, and a
    # homogeneous element is its own top symbol
    W = quantum_weyl(3, 7)
    x, y = W.monomial((0, 1)), W.monomial((1, 0))
    el = multiply(W, x, y)
    assert el == Element(W.field, {(1, 1): W.field.zeta, (0, 0): 1})
    top = top_terms_oracle(W.degree_of, el.terms)
    assert top == multiply(gr_of(W), x, y).terms == {(1, 1): W.field.zeta}
    homo = {(2, 0): 3, (1, 1): 4}
    assert top_terms_oracle(W.degree_of, homo) == homo


def test_top_symbol_lex_max():
    A = make_qas(
        2, 2, 5,
        degrees=(GroupElement((1, 0)), GroupElement((0, 1))),
    ).algebra()
    el = Element(A.field, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    assert filtered_degree(A, el) == GroupElement((1, 0))
    assert top_terms_oracle(A.degree_of, el.terms) == {(1, 0): 1}


def test_multiply_of_weyl_matches_defining_relation():
    W = quantum_weyl(3, 7)
    x = W.monomial((0, 1))
    y = W.monomial((1, 0))
    assert multiply(W, x, y) == Element(W.field, {(1, 1): W.field.zeta, (0, 0): 1})


def test_gr_of_weyl_is_quantum_plane():
    W = quantum_weyl(3, 7)
    G = gr_of(W)
    assert G.mode == "graded"
    x = G.monomial((0, 1))
    y = G.monomial((1, 0))
    assert multiply(G, x, y) == Element(W.field, {(1, 1): W.field.zeta})
    assert multiply(G, G.monomial(G.one), y) == y


def test_gr_of_graded_is_identity(plane):
    A = plane.algebra()
    assert gr_of(A) is A


def test_degree_laws_and_associativity():
    W = quantum_weyl(2, 5)
    indices = [(a, b) for a in range(3) for b in range(3)]
    check_degree_law(W, itertools.product(indices, indices))
    rng = random.Random(0)
    triples = [tuple(rng.choice(indices) for _ in range(3)) for _ in range(40)]
    check_associativity(W, triples)
    G = gr_of(W)
    check_degree_law(G, itertools.product(indices, indices))
    check_associativity(G, triples)


CONFIG = """
[field]
p = 7
ell = 3

[generators]
names = x1 x2
degrees = 1 0; 0 1

[relations]
c = 0 1; -1 0
"""


def test_parse_algebra_config():
    cfg = parse_algebra_config(CONFIG)
    assert cfg.p == 7 and cfg.ell == 3
    assert cfg.names == ("x1", "x2")
    assert cfg.degrees == (GroupElement((1, 0)), GroupElement((0, 1)))
    assert cfg.cmatrix == ((0, 1), (-1, 0))


def test_parse_config_straightening():
    text = CONFIG.replace(
        "c = 0 1; -1 0", "c = 0 1; -1 0\nstraighten = x1 x2 -> 4 x2 x1"
    )
    cfg = parse_algebra_config(text)
    assert cfg.straightenings == ((("x1", "x2"), 4, ("x2", "x1")),)


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_algebra_config("[field]\np = 7\n")  # missing pieces
    with pytest.raises(ConfigError):
        parse_algebra_config("not an ini file [[[")
    with pytest.raises(ConfigError):
        parse_algebra_config(CONFIG.replace("degrees = 1 0; 0 1", "degrees = 1 0"))


def test_element_single_term_and_scaling():
    fld = RootField(7, 3, zeta=2)
    el = Element(fld, {(1, 0): 3})
    (idx, c), = el.terms.items()
    assert idx == (1, 0) and c == 3
    assert (5 * el).terms.get((1, 0), 0) == 1  # 15 mod 7
    assert (0 * el).is_zero()


def test_top_symbol_multiplicative_without_cancellation():
    # whenever top(a) * top(b) is nonzero in gr, it equals top(a * b)
    W = quantum_weyl(3, 7)
    G = gr_of(W)
    rng = random.Random(21)
    pool = [(a, b) for a in range(4) for b in range(4)]
    for _ in range(120):
        a = Element(W.field, {pool[rng.randrange(len(pool))]: rng.randrange(1, 7)
                              for _ in range(rng.randrange(1, 4))})
        b = Element(W.field, {pool[rng.randrange(len(pool))]: rng.randrange(1, 7)
                              for _ in range(rng.randrange(1, 4))})
        if a.is_zero() or b.is_zero():
            continue
        top_a, top_b = (Element(W.field, top_terms_oracle(W.degree_of, el.terms))
                        for el in (a, b))
        tops = multiply(G, top_a, top_b)
        if not tops.is_zero():
            assert tops.terms == top_terms_oracle(W.degree_of, multiply(W, a, b).terms)


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=4),
    st.integers(min_value=0, max_value=9),
)
def test_weighted_exponents_matches_filtered_product(weights, limit):
    ranges = [range(limit // w + 1) for w in weights]
    expected = [
        e for e in itertools.product(*ranges)
        if sum(x * w for x, w in zip(e, weights)) <= limit
    ]
    # itertools.product runs in lexicographic order, so this checks the order too
    assert list(weighted_exponents(tuple(weights), limit)) == expected


def test_exponent_algebra_formats_monomials():
    W = quantum_weyl(3, 7)
    assert [W.index_str(i) for i in ((0, 0), (1, 0), (0, 2), (2, 1))] == [
        "1", "y", "x^2", "y^2*x",
    ]
    Q = make_qas(3, 2, 5).algebra()
    assert Q.index_str((1, 0, 3)) == "x1*x3^3"
    assert Q.generator_indices == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
