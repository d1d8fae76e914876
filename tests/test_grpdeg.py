"""Ordered group arithmetic, lex order, and multiset symmetry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobex.errors import DimensionMismatch, DomainError
from frobex.grpdeg import (
    DegreeMultiset,
    GroupElement,
    in_positive_cone,
    multiset_symmetry_witness,
)

vec2 = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


def g(*coords):
    return GroupElement(coords)


def test_lex_compare_examples():
    assert g(0, 0) == g(0, 0) and g(0, 0) <= g(0, 0) and not g(0, 0) < g(0, 0)
    assert g(1, 0) > g(0, 5)
    assert g(0, 3) < g(0, 4)


def test_lex_compare_length_mismatch():
    with pytest.raises(DimensionMismatch):
        g(1) < g(1, 2)


@given(vec2, vec2, vec2)
def test_order_translation_invariance(a, b, c):
    ga, gb, gc = GroupElement(a), GroupElement(b), GroupElement(c)
    assert (ga < gb) == (ga + gc < gb + gc)
    assert (ga == gb) == (ga + gc == gb + gc)


@given(vec2, vec2)
def test_order_total(a, b):
    ga, gb = GroupElement(a), GroupElement(b)
    assert (ga < gb) + (ga == gb) + (ga > gb) == 1


def test_positive_cone_examples():
    assert in_positive_cone(g(0, 0))
    assert in_positive_cone(g(1, -5))
    assert not in_positive_cone(g(-1, 100))


def test_witness_singleton():
    assert multiset_symmetry_witness(DegreeMultiset([g(0)])) == g(0)


def test_witness_two_elements():
    D = DegreeMultiset([g(0), g(1)])
    assert multiset_symmetry_witness(D) == g(1)


def test_witness_empty_multiset_rejected():
    with pytest.raises(DomainError):
        multiset_symmetry_witness(DegreeMultiset())


def test_witness_asymmetric():
    D = DegreeMultiset([g(0), g(1), g(1), g(2), g(4)])
    assert multiset_symmetry_witness(D) is None


@given(st.lists(st.integers(-8, 8), min_size=1, max_size=12))
def test_witness_is_involutive(values):
    D = DegreeMultiset([g(v) for v in values])
    d = multiset_symmetry_witness(D)
    if d is not None:
        # e -> d - e must preserve multiplicities, and it is an involution
        for e in D.entries:
            assert D.multiplicity(d - e) == D.multiplicity(e)
            assert (d - (d - e)) == e


@given(st.lists(st.integers(-8, 8), min_size=1, max_size=10))
def test_symmetrized_multiset_always_has_witness(values):
    # D union (c - D) is symmetric about c by construction
    c = g(1)
    base = [g(v) for v in values]
    D = DegreeMultiset(base + [c - e for e in base])
    assert multiset_symmetry_witness(D) == c


def test_qas_multiset_witness_formula():
    # degrees of restricted monomials for ell = 3, d = ((1,0), (0,2))
    ell = 3
    d1, d2 = g(1, 0), g(0, 2)
    D = DegreeMultiset(
        a1 * d1 + a2 * d2 for a1 in range(ell) for a2 in range(ell)
    )
    assert multiset_symmetry_witness(D) == (ell - 1) * d1 + (ell - 1) * d2


def test_truncated_multiset_loses_witness():
    ell = 3
    d1, d2 = g(1, 0), g(0, 2)
    full = [a1 * d1 + a2 * d2 for a1 in range(ell) for a2 in range(ell)]
    full.remove((ell - 1) * (d1 + d2))
    D = DegreeMultiset(full)
    assert multiset_symmetry_witness(D) is None


def test_multiset_counts_and_support():
    D = DegreeMultiset([g(1), g(1), g(0)])
    assert D.total() == 3
    assert D.multiplicity(g(1)) == 2
    assert sorted(D.entries) == [g(0), g(1)]
    assert D.min() == g(0) and D.max() == g(1)
