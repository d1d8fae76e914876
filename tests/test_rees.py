"""Rees algebras: admissibility, canonical reductions, transported forms."""

import random
from dataclasses import replace

import pytest

from frobex import cli
from frobex.algcore import Element, gr_of, multiply
from frobex.errors import DomainError, UnsupportedStructure
from frobex.frobenius import (
    ProjectionForm,
    ell_centre_extension,
    nakayama_on_generators,
    reassemble,
    verify_frobenius,
)
from frobex.grpdeg import GroupElement
from frobex.qas import quantum_weyl
from frobex.rees import (
    ConeReduction,
    check_cone_freeness,
    check_reduction_tables,
    cone_reduction,
    enumerate_admissible,
    rees_extension,
    rees_of,
)
from oracles import dense_rows, rees_window_pair_counts


@pytest.fixture(scope="module")
def weyl3():
    return quantum_weyl(3, 7)


@pytest.fixture(scope="module")
def rees3(weyl3):
    return rees_of(weyl3, 9)


def test_window_must_be_in_cone(weyl3):
    with pytest.raises(DomainError):
        rees_of(weyl3, -1)


def test_unit_law(rees3):
    RAlg = rees3.algebra
    b = ((1, 1), 3)
    assert RAlg.mul_indices(RAlg.one, b) == {b: 1}
    assert RAlg.mul_indices(b, RAlg.one) == {b: 1}


def test_weyl_product_keeps_lower_term(rees3, weyl3):
    # (x, 1) * (y, 1) = q (yx, 2) + (1, 2): the unit survives in degree 2
    RAlg = rees3.algebra
    prod = RAlg.mul_indices(((0, 1), 1), ((1, 0), 1))
    q = weyl3.field.zeta
    assert prod == {((1, 1), 2): q, ((0, 0), 2): 1}


def test_admissibility_closure(rees3):
    # products of admissible pairs are again admissible
    RAlg = rees3.algebra
    rng = random.Random(4)
    indices = list(enumerate_admissible(rees3, 4))
    base = rees3.base
    for _ in range(80):
        u = indices[rng.randrange(len(indices))]
        v = indices[rng.randrange(len(indices))]
        prod = RAlg.mul_indices(u, v)
        for (b, g) in prod:
            assert base.degree_of(b) <= GroupElement((g,))


def test_degrees_are_the_cone_coordinate(rees3):
    RAlg = rees3.algebra
    assert RAlg.degree_of(((1, 1), 5)) == GroupElement((5,))
    assert RAlg.mode == "graded"


def test_cone_freeness_spot_check(weyl3):
    check_cone_freeness(rees_of(weyl3, 6))


def test_cone_freeness_rejects_product_without_cone_shift(rees3):
    def mul(i, j):
        # keeps the left factor's cone position instead of adding both
        (b, g), (c, _h) = i, j
        prod = rees3.base.mul_indices(b, c)
        return {(t, g): v for t, v in prod.items()}

    broken = replace(rees3, window=3, algebra=replace(rees3.algebra, mul_indices=mul))
    with pytest.raises(DomainError, match="does not factor through the cone"):
        check_cone_freeness(broken)


def canonical(RA):
    """The reductions at cone parameter 0 (gr) and 1 (the base)."""
    return cone_reduction(RA, 0), cone_reduction(RA, 1)


def image(red, el):
    """el mapped term by term through the reduction's index map."""
    out = {}
    for idx, c in el.terms.items():
        mapped = red.map_term(idx)
        if mapped is not None:
            out[mapped[0]] = out.get(mapped[0], 0) + c * mapped[1]
    return Element(red.target.field, out)


def test_reduction_tables_match(weyl3):
    RA = rees_of(weyl3, 6)
    assert check_reduction_tables(RA, canonical(RA)) == [None, None]


def admissible_in_order(window):
    # (b, g) with deg b <= g <= window, by g, then y-exponent, then x-exponent
    return [
        ((a, b), g)
        for g in range(window + 1)
        for a in range(g + 1)
        for b in range(g + 1 - a)
    ]


def counted(A):
    """A with its oracle recording each call."""
    calls = []
    oracle = A.mul_indices

    def mul(u, v):
        calls.append((u, v))
        return oracle(u, v)

    return replace(A, mul_indices=mul), calls


def counted_rees(RA):
    algebra, calls = counted(RA.algebra)
    return replace(RA, algebra=algebra), calls


def test_reduction_tables_visit_only_in_window_pairs(rees3):
    # one Rees product per in-window pair, in order, however many reductions
    window = 6
    adm = admissible_in_order(window)
    in_window = [(u, v) for u in adm for v in adm if u[1] + v[1] <= window]
    RA, calls = counted_rees(rees_of(rees3.base, window))
    m0, m1 = canonical(RA)
    for reductions in ((m0,), (m1,), (m0, m1)):
        del calls[:]
        check_reduction_tables(RA, reductions)
        assert len(calls) == len(in_window)
        assert calls == in_window


def counted_target(red):
    target, calls = counted(red.target)
    return replace(red, target=target), calls


def test_reduction_tables_make_every_target_product_afresh(weyl3):
    # nothing is shared or cached: m1 makes its own target product on every
    # in-window pair, m0 on every pair of top symbols, in visiting order
    window = 6
    adm = admissible_in_order(window)
    in_window = [(u, v) for u in adm for v in adm if u[1] + v[1] <= window]
    m0, calls0 = counted_target(cone_reduction(rees_of(weyl3, window), 0))
    m1, calls1 = counted_target(cone_reduction(m0.rees, 1))
    assert check_reduction_tables(m0.rees, (m0, m1)) == [None, None]
    assert calls1 == [(u[0], v[0]) for u, v in in_window]
    top = [(u[0], v[0]) for u, v in in_window if u[1] == sum(u[0]) and v[1] == sum(v[0])]
    assert calls0 == top


@pytest.mark.parametrize("argv", [["--ell", "3"], ["--ell", "4", "--window", "12"]])
def test_rees_demo_checks_every_in_window_pair_once(argv, tmp_path, monkeypatch):
    # both jobs check the window 12 (the default 3 * 2(ell - 1) at ell 3):
    # one Rees product per in-window pair, m1 one target product per pair
    # and m0 one per pair of top symbols; the counts come from the
    # admissible indices per cone degree, not from the program
    made = {}
    check = cli.check_reduction_tables

    def counting(RA, reductions):
        algebra, made["rees"] = counted(RA.algebra)
        RA = replace(RA, algebra=algebra)
        counted_reductions = []
        for red in reductions:
            target, made[red.scalar] = counted(red.target)
            counted_reductions.append(replace(red, rees=RA, target=target))
        return check(RA, counted_reductions)

    monkeypatch.setattr(cli, "check_reduction_tables", counting)
    out = tmp_path / "report.txt"
    assert cli.main(["rees-demo", *argv, "--out", str(out)]) == 0
    assert "m0_table: match" in out.read_text() and "m1_table: match" in out.read_text()
    pairs, top_pairs = rees_window_pair_counts(12)
    assert (pairs, top_pairs) == (18564, 1820)
    assert len(made["rees"]) == len(made[1]) == pairs
    assert len(made[0]) == top_pairs


def test_nakayama_solve_refuses_the_rees_demo_extension():
    # the Rees Gram matrix is not scalar (its determinant test is exact),
    # so the solve stops before it would draw a random Rees index
    _, rext = rees_extension(ell_centre_extension(quantum_weyl(3), 3))
    cert = verify_frobenius(rext)
    assert cert.verdict == "frobenius"
    assert cert.gram_status.method == "exact-determinant"
    with pytest.raises(UnsupportedStructure, match="scalar Gram matrix"):
        nakayama_on_generators(rext, cert)


class MisScaled(ConeReduction):
    """The reduction at 1 with the image of one Rees index doubled."""

    def map_term(self, idx):
        t, c = super().map_term(idx)
        return (t, 2 * c) if idx == ((1, 1), 3) else (t, c)


def test_a_wrong_index_map_fails_at_its_first_pair(weyl3):
    # the first failing pair comes from products of mapped elements,
    # made through multiply
    window = 7
    RA = rees_of(weyl3, window)
    m0, _ = canonical(RA)
    wrong = MisScaled(rees=RA, scalar=1, target=weyl3)
    failing = failing_pairs(RA, wrong, window)
    assert failing[0] == (((0, 0), 1), ((1, 1), 2))
    assert check_reduction_tables(RA, (m0, wrong)) == [None, not_multiplicative_at(failing[0])]


def broken_target(target, bad):
    """The target algebra with its product wrong (by the unit) on one base pair."""

    def mul(b, c):
        prod = target.mul_indices(b, c)
        if (b, c) == bad:
            prod = (Element(target.field, prod) + target.monomial(target.one)).terms
        return prod

    return replace(target, mul_indices=mul)


def failing_pairs(RA, red, window):
    RAlg = RA.algebra
    adm = admissible_in_order(window)
    return [
        (u, v)
        for u in adm
        for v in adm
        if u[1] + v[1] <= window
        and image(red, Element(RA.field, RAlg.mul_indices(u, v)))
        != multiply(red.target, image(red, RAlg.monomial(u)), image(red, RAlg.monomial(v)))
    ]


def not_multiplicative_at(pair, scalar=1):
    return "cone reduction at {} is not multiplicative at {}, {}".format(scalar, *pair)


def test_reduction_tables_name_first_failing_pair(weyl3):
    # a target table wrong on one base pair whose degrees sum to the window:
    # the only failing Rees pair has cone degrees adding up to the window
    window = 7
    RA = rees_of(weyl3, window)
    m0, _ = canonical(RA)
    bad = ((0, 4), (3, 0))
    m1_bad = ConeReduction(rees=RA, scalar=1, target=broken_target(weyl3, bad))
    failing = failing_pairs(RA, m1_bad, window)
    assert failing == [((bad[0], 4), (bad[1], 3))]

    # only m1 broken: m0 passes, m1 names the pair
    got = check_reduction_tables(RA, (m0, m1_bad))
    assert got == [None, not_multiplicative_at(failing[0])]

    # both broken, at different pairs: each names its own
    m0_bad = ConeReduction(rees=RA, scalar=0, target=broken_target(m0.target, ((1, 0), (0, 2))))
    failing0 = failing_pairs(RA, m0_bad, window)
    assert failing0 == [(((1, 0), 1), ((0, 2), 2))]
    got = check_reduction_tables(RA, (m0_bad, m1_bad))
    assert got == [not_multiplicative_at(failing0[0], 0), not_multiplicative_at(failing[0])]

    # a reduction that fails at the unit does not stop the other
    no_unit = ConeReduction(rees=RA, scalar=1, target=replace(weyl3, one=(1, 0)))
    got = check_reduction_tables(RA, (no_unit, m1_bad))
    assert got == ["1 reduction does not send unit to unit", not_multiplicative_at(failing[0])]

    # a nonzero scalar into gr keeps the lower terms gr drops
    wrong = ConeReduction(rees=RA, scalar=2, target=m0.target)
    failing2 = failing_pairs(RA, wrong, window)
    assert check_reduction_tables(RA, (wrong,)) == [not_multiplicative_at(failing2[0], 2)]


def test_products_make_no_group_elements(rees3, weyl3, monkeypatch):
    # after warm-up a gr product allocates no degree, and a Rees product
    # adds its cone degrees as ints
    G = gr_of(weyl3)
    RAlg = rees3.algebra
    G.mul_indices((1, 1), (0, 2))
    u, v = ((2, 0), 3), ((1, 0), 2)
    want = {((3, 0), 5): 1}
    made = []
    init = GroupElement.__init__

    def counted(g, coords):
        made.append(coords)
        init(g, coords)

    monkeypatch.setattr(GroupElement, "__init__", counted)
    assert G.mul_indices((1, 1), (0, 2)) == weyl3.mul_indices((1, 1), (0, 2))
    assert RAlg.mul_indices(u, v) == want
    assert made == []


def test_reduction_maps_unit_to_unit(rees3, weyl3):
    m0, m1 = canonical(rees3)
    one = rees3.algebra.monomial(rees3.algebra.one)
    assert image(m0, one) == gr_of(weyl3).monomial(weyl3.one)
    assert image(m1, one) == weyl3.monomial(weyl3.one)


def test_m0_recovers_quantum_plane_table(rees3, weyl3):
    # structure constants of the m0 quotient equal the graded table
    m0, _ = canonical(rees3)
    G = gr_of(weyl3)
    RAlg = rees3.algebra
    for a in range(3):
        for b in range(3):
            u = ((a, b), a + b)
            for c in range(3):
                for d in range(3):
                    v = ((c, d), c + d)
                    got = image(m0, Element(rees3.field, RAlg.mul_indices(u, v)))
                    want = G.mul_indices((a, b), (c, d))
                    assert got.terms == want


def test_m1_recovers_weyl_table(rees3, weyl3):
    _, m1 = canonical(rees3)
    RAlg = rees3.algebra
    for a in range(3):
        for b in range(3):
            u = ((a, b), a + b + 1)  # deliberately above the minimal degree
            for c in range(3):
                for d in range(3):
                    v = ((c, d), c + d)
                    got = image(m1, Element(rees3.field, RAlg.mul_indices(u, v)))
                    want = weyl3.mul_indices((a, b), (c, d))
                    assert got.terms == want


def test_rees_form_slot_example(weyl3, rees3):
    ell = 3
    ext = ell_centre_extension(weyl3, ell)
    phi = rees_extension(ext, window=9)[1].form
    top = (ell - 1, ell - 1)
    assert phi({(top, 4): 1}) == {((0, 0), 0): 1}


def test_rees_form_homogeneity_random(weyl3, rees3):
    ell = 3
    ext = ell_centre_extension(weyl3, ell)
    d = GroupElement((-2 * (ell - 1),))
    phi = rees_extension(ext, window=9)[1].form
    RAlg = rees3.algebra
    rng = random.Random(12)
    indices = [idx for idx in enumerate_admissible(rees3, 8)]
    checked = 0
    for _ in range(100):
        idx = indices[rng.randrange(len(indices))]
        val = phi({idx: 1})
        if not val:
            continue
        degrees = {RAlg.degree_of(t) for t in val}
        assert degrees == {RAlg.degree_of(idx) + d}
        checked += 1
    assert checked > 0


def test_rees_form_rejects_inadmissible_index(weyl3, rees3):
    ell = 3
    ext = ell_centre_extension(weyl3, ell)
    phi = rees_extension(ext, window=9)[1].form
    top = (ell - 1, ell - 1)  # deg top = 2(ell - 1) > 2(ell - 1) - 1
    with pytest.raises(DomainError, match="is not admissible"):
        phi({(top, 2 * (ell - 1) - 1): 1})


def test_rees_extension_rejects_non_projection_form(weyl3):
    ext = ell_centre_extension(weyl3, 3)
    opaque = ext.with_form(lambda y: ext.form(y))
    with pytest.raises(UnsupportedStructure, match="slot-projection"):
        rees_extension(opaque)


@pytest.mark.parametrize("ell", [2, 3])
def test_rees_gram_matches_base_gram_shifted(ell):
    # the expected matrix comes from the base Gram matrix and base degrees
    # alone: the entry at ((b, deg b), (c, deg c)) is the sum of
    # (t, deg b + deg c - deg top) over the terms t of Phi(b * c)
    W = quantum_weyl(ell)
    ext = ell_centre_extension(W, ell)
    deg = sum  # the q-Weyl filtration is by total degree
    top = deg(ext.engine.top_slot())
    expected = {
        ((b, deg(b)), (c, deg(c))): {
            (t, deg(b) + deg(c) - top): coeff for t, coeff in el.terms.items()
        }
        for b, row in zip(ext.basis, dense_rows(ext.gram(), Element(W.field)))
        for c, el in zip(ext.basis, row)
    }
    _, rext = rees_extension(ext)
    got = {
        (u, v): el.terms
        for u, row in zip(rext.basis, dense_rows(rext.gram(), Element(rext.ambient.field)))
        for v, el in zip(rext.basis, row)
    }
    assert got == expected


def test_rees_extension_verifies(weyl3):
    ell = 3
    ext = ell_centre_extension(weyl3, ell)
    base_cert = verify_frobenius(ext)
    RA, rext = rees_extension(ext)
    assert RA.window == 12  # 3 x top basis degree 2(ell-1)
    cert = verify_frobenius(rext)
    assert cert.verdict == "frobenius"
    assert cert.rank == base_cert.rank == ell**2
    assert cert.phi_degree == base_cert.phi_degree
    assert cert.gram_status.kind == "unit-determinant"
    assert cert.gram_status.method == "exact-determinant"


def test_rees_decomposition_round_trip(weyl3, rees3):
    ell = 3
    ext = ell_centre_extension(weyl3, ell)
    _, rext = rees_extension(ext, window=9)
    RAlg = rext.ambient
    rng = random.Random(3)
    indices = list(enumerate_admissible(rees3, 7))
    for _ in range(25):
        terms = {
            indices[rng.randrange(len(indices))]: rng.randrange(1, 7)
            for _ in range(rng.randrange(1, 3))
        }
        y = Element(weyl3.field, terms)
        assert reassemble(RAlg, rext.engine.decompose(y)) == y


def test_inadmissible_index_is_refused_by_split_and_projection(weyl3):
    _, rext = rees_extension(ell_centre_extension(weyl3, 3), window=9)
    engine = rext.engine
    bad = ((1, 1), 1)  # deg b = 2 > 1
    with pytest.raises(DomainError, match="not admissible"):
        engine.split(bad)
    for slot in engine.basis:
        with pytest.raises(DomainError, match="not admissible"):
            ProjectionForm(engine, slot)({bad: 1, ((0, 0), 0): 1})


def test_windowed_enumeration_needs_rank_one():
    # a Z^2-graded base is refused when its Rees algebra is built
    from frobex.qas import make_qas

    A = make_qas(
        2, 2, 5,
        degrees=(GroupElement((1, 0)), GroupElement((0, 1))),
    ).algebra()
    with pytest.raises(UnsupportedStructure, match="rank-one"):
        rees_of(A, 2)
    ext = ell_centre_extension(A, 2)
    for window in (None, 2):
        with pytest.raises(UnsupportedStructure, match="rank-one"):
            rees_extension(ext, window=window)


def test_generic_cone_reductions_are_homomorphisms(weyl3):
    # the remaining maximal ideals of the cone line: send the parameter to
    # any nonzero scalar; the quotient table matches the base algebra table
    RA = rees_of(weyl3, 5)
    reductions = [cone_reduction(RA, c) for c in (2, 3, 5)]
    assert all(red.target is weyl3 for red in reductions)
    assert check_reduction_tables(RA, reductions) == [None, None, None]


def test_cone_reduction_scalar_powers(rees3):
    red = cone_reduction(rees3, 3)
    # the cone exponent is the full degree: (y, 3) maps to 3^3 * y
    assert red.map_term(((1, 0), 3)) == ((1, 0), pow(3, 3, 7))


def test_cone_reduction_specializes_to_m0_m1(rees3):
    m0, m1 = canonical(rees3)
    assert m0.scalar == 0 and m0.target.mode == "graded"
    assert m1.scalar == 1 and m1.target is rees3.base
    idx = ((1, 1), 4)
    assert m0.map_term(idx) is None
    assert m1.map_term(idx) == ((1, 1), 1)
