"""Acceptance suite: one test per exit criterion, exact tolerances.

Each test prints a single PASS/FAIL line (run with -s to see them inline).
Criterion 8 asserts that the freeness sweep refutes freeness of the quantum
Grassmannian's distinguished family over the ell-th powers, as it must: the
family has 40 elements at ell = 2 while the generic rank there is 2^5 = 32,
and the sweep first overcounts at census degree 5 with the explicit
dependence x2^2 * x4x5 = x4^2 * x2x3.  Its expected counts and its
collision check come from tests/oracles.py.
"""

import itertools
import random
import time

import pytest

from frobex.algcore import filtered_degree, gr_of, multiply
from frobex.frobenius import (
    ell_centre_extension,
    lift_form,
    nakayama_on_generators,
    reduce_at_point,
    verify_frobenius,
)
from frobex.grassmannian import (
    GrGrassmannian,
    alternate_s_matrix,
    default_s_matrix,
    degree_census,
    normal_form_word,
    verify_freeness_window,
)
from frobex.grpdeg import DegreeMultiset, GroupElement, multiset_symmetry_witness
from frobex.qas import (
    QuantumAffineSpace,
    make_qas,
    quantum_plane_of_weyl,
    quantum_weyl,
)
from frobex.rees import (
    check_cone_freeness,
    check_reduction_tables,
    cone_reduction,
    rees_extension,
)
from frobex.algcore import RootField

from oracles import (
    _hilbert_series_gr24,
    extension_oracle,
    gr24_products_oracle,
    gr24_sweep_counts_oracle,
    qas_mul_oracle,
)


PRIMES = {2: 5, 3: 7, 5: 11}
GRID = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 5)]


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _random_lex_nonneg(rng):
    first = rng.randrange(0, 3)
    second = rng.randrange(-2, 4) if first > 0 else rng.randrange(0, 4)
    return GroupElement((first, second))


def _random_antisymmetric(n, rng):
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            C[i][j] = rng.randrange(-3, 4)
            C[j][i] = -C[i][j]
    return tuple(tuple(row) for row in C)


def _grid_fixture(n, ell, seed):
    rng = random.Random(seed)
    C = _random_antisymmetric(n, rng)
    degrees = [_random_lex_nonneg(rng) for _ in range(n)]
    if all(d.is_zero() for d in degrees):
        degrees[0] = GroupElement((0, 1))
    fld = RootField(PRIMES[ell], ell, seed=seed)
    A = QuantumAffineSpace(fld, C, tuple(degrees))
    return A, ell_centre_extension(A.algebra(), ell)


@pytest.fixture(scope="module")
def grid():
    return [
        (n, ell, *_grid_fixture(n, ell, seed=17 * n + ell))
        for n, ell in GRID
    ]


def test_criterion_1_quantum_affine_space(grid):
    start = time.monotonic()
    ok = True
    detail = ""
    for n, ell, A, ext in grid:
        cert = verify_frobenius(ext)
        expected_degree = GroupElement((0, 0))
        for d in A.degrees:
            expected_degree = expected_degree + (-(ell - 1)) * d
        checks = (
            cert.verdict == "frobenius"
            and cert.rank == ell**n
            and cert.phi_degree == expected_degree
            and cert.gram_status.kind == "unit-determinant"
            and cert.gram_status.method == "generalized-permutation"
        )
        if not checks:
            ok = False
            detail = f"(n={n}, ell={ell}): {cert}"
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _report(1, "quantum affine space certificates", ok, detail or f"{elapsed:.1f}s")


def test_criterion_2_f1_witnesses(grid):
    ok = True
    detail = ""
    for n, ell, A, ext in grid:
        alg = A.algebra()
        for a in itertools.product(range(ell), repeat=n):
            c = tuple(ell - 1 - e for e in a)
            right = ext.form(multiply(alg, alg.monomial(a), alg.monomial(c)).terms)
            left = ext.form(multiply(alg, alg.monomial(c), alg.monomial(a)).terms)
            if not right or not left:
                ok = False
                detail = f"(n={n}, ell={ell}), a={a}"
                break
        if not ok:
            break
    _report(2, "two-sided complement witnesses", ok, detail)


def test_criterion_3_nakayama(grid):
    ok = True
    detail = ""
    for n, ell, A, ext in grid:
        # 200 random pairs are checked inside; a failure raises
        nak = nakayama_on_generators(ext, verify_frobenius(ext), rng=random.Random(5))
        if nak.checked_pairs != 200:
            ok, detail = False, f"(n={n}, ell={ell}) checked {nak.checked_pairs}"
            break
        fld = A.field
        mul = qas_mul_oracle(A.cmatrix, ell, fld.zeta, fld.p)
        images = [nak.images[name].terms for name in A.names]
        fixes = all(
            extension_oracle(mul, fld.p, images, {s: 1}) == {s: 1}
            for s in ext.engine.subring_generators
        )
        if not fixes:
            ok, detail = False, f"(n={n}, ell={ell}) moves a central generator"
            break
    if ok:
        # identity automorphism in the commutative case
        A = make_qas(2, 3, 7, cmatrix=((0, 0), (0, 0)))
        ext = ell_centre_extension(A.algebra(), 3)
        nak = nakayama_on_generators(ext, verify_frobenius(ext), rng=random.Random(6))
        ok = nak.trivial
        detail = "" if ok else "commutative fixture has nontrivial automorphism"
    _report(3, "Nakayama identity and invariances", ok, detail)


def test_criterion_4_transfer_round_trip():
    start = time.monotonic()
    ok = True
    detail = ""
    for ell in (2, 3):
        p = PRIMES[ell]
        W = quantum_weyl(ell, p)
        plane = quantum_plane_of_weyl(W)
        G = gr_of(W)
        window = GroupElement((3 * ell,))
        indices = list(W.enumerate_up_to(window))
        # (a) gr equals the quantum plane, exhaustively to degree 3*ell
        palg = plane.algebra()
        for i in indices:
            if palg.degree_of(i) != G.degree_of(i):
                ok, detail = False, f"degree mismatch at {i}"
                break
            for j in indices:
                if palg.mul_indices(i, j) != G.mul_indices(i, j):
                    ok, detail = False, f"ell={ell} table mismatch at {i},{j}"
                    break
            if not ok:
                break
        if not ok:
            break
        # (b) the lifted form verifies with rank ell^2 and matching degree
        graded = ell_centre_extension(palg, ell)
        graded_cert = verify_frobenius(graded)
        filtered = ell_centre_extension(W, ell)
        filtered = filtered.with_form(lift_form(filtered, graded))
        cert = verify_frobenius(filtered)
        if not (
            cert.verdict == "frobenius"
            and cert.rank == ell**2
            and cert.phi_degree == graded_cert.phi_degree
        ):
            ok, detail = False, f"ell={ell} filtered certificate {cert.verdict}"
            break
        # (c) the Rees extension verifies in its window
        RA, rext = rees_extension(filtered)
        rcert = verify_frobenius(rext)
        if not (
            rcert.verdict == "frobenius"
            and rcert.rank == cert.rank
            and rcert.phi_degree == cert.phi_degree
        ):
            ok, detail = False, f"ell={ell} rees certificate {rcert.verdict}"
            break
        # (d) canonical reductions match the graded and base tables exactly
        failures = check_reduction_tables(RA, (cone_reduction(RA, 0), cone_reduction(RA, 1)))
        if any(failures):
            ok, detail = False, f"ell={ell} reduction: {failures}"
            break
        try:
            check_cone_freeness(RA)
        except Exception as exc:  # pragma: no cover - failure is reported below
            ok, detail = False, f"ell={ell} cone freeness: {exc}"
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    _report(4, "filtered/graded/Rees transfer round trip", ok, detail or f"{elapsed:.1f}s")


def test_criterion_5_quotient_reduction(grid):
    ok = True
    detail = ""
    rng = random.Random(23)
    for n, ell, A, ext in grid:
        p = A.field.p
        for _ in range(10):
            lam = tuple(rng.randrange(p) for _ in range(n))
            red = reduce_at_point(ext, lam)
            if not (red.nondegenerate and red.pairing_rank == ell**n):
                ok = False
                detail = f"(n={n}, ell={ell}) at {lam}: rank {red.pairing_rank}"
                break
        if not ok:
            break
    _report(5, "full-rank pairing at random central points", ok, detail)


def test_criterion_6_degree_multiset_machinery(grid):
    ok = True
    detail = ""
    for n, ell, A, ext in grid:
        alg = A.algebra()
        # (a) a unitriangular degree-respecting change of basis keeps the multiset
        originals = [alg.monomial(b) for b in ext.basis]
        changed = []
        for el in originals:
            (idx, _), = el.terms.items()
            lower = next(
                (c for c in ext.basis if alg.degree_of(c) < alg.degree_of(idx)),
                None,
            )
            changed.append(el if lower is None else el + alg.monomial(lower))
        D1 = DegreeMultiset(filtered_degree(alg, el) for el in originals)
        D2 = DegreeMultiset(filtered_degree(alg, el) for el in changed)
        if D1 != D2:
            ok, detail = False, f"(n={n}, ell={ell}) multisets differ"
            break
        # (b) the witness exists and equals sum (ell-1) d_i
        expected = GroupElement((0, 0))
        for d in A.degrees:
            expected = expected + (ell - 1) * d
        if multiset_symmetry_witness(D1) != expected:
            ok, detail = False, f"(n={n}, ell={ell}) witness differs"
            break
        # (c) dropping one top element destroys the symmetry; rank-2 fixtures
        # stay trivially symmetric after truncation, so this runs for n >= 2
        if n >= 2:
            degrees = [filtered_degree(alg, el) for el in originals]
            degrees.remove(D1.max())
            truncated = DegreeMultiset(degrees)
            if multiset_symmetry_witness(truncated) is not None:
                ok, detail = False, f"(n={n}, ell={ell}) truncation kept a witness"
                break
    _report(6, "degree multiset machinery", ok, detail)


def _first_negative_term(ell, terms):
    """(degree, coefficient) of the first negative term of H_R / H_Z0 to
    `terms` terms, with H_Z0(t) = H_R(t^ell) from the Hilbert-series oracle."""
    h_r = _hilbert_series_gr24(terms - 1)
    h_z = [0] * terms
    for i in range((terms - 1) // ell + 1):
        h_z[i * ell] = h_r[i]
    quotient = []
    for n in range(terms):
        q = h_r[n] - sum(h_z[k] * quotient[n - k] for k in range(1, n + 1))
        if q < 0:
            return n, q
        quotient.append(q)
    return None


def test_criterion_7_grassmannian_census():
    start = time.monotonic()
    ok = True
    detail = ""
    for ell in (2, 3, 4, 5):
        a = degree_census(ell)
        checks = (
            a.counts.get(1, 0) == 2
            and a.max_degree == 8 * (ell - 1)
            and a.symmetry_d is None
            and a.verdict == "not-frobenius"
            and "no_elements_of_degree_8(ell-1)-1" in a.paper_agreement
            and a.obstruction == _first_negative_term(ell, 12 * ell)
        )
        if not checks:
            ok, detail = False, f"ell={ell}"
            break
    if ok:
        # the census reads no commutation scalars; the rewriting it stands
        # in for does, and sweeps out the same counts and the same first
        # collision under both scalar sets
        sweeps = [
            verify_freeness_window(GrGrassmannian(RootField(5, 2), s, t), 5)
            for s, t in ((default_s_matrix(), 1), (alternate_s_matrix(), 2))
        ]
        a, b = sweeps
        if a.collision is None or (a.per_degree, a.collision) != (b.per_degree, b.collision):
            ok, detail = False, f"scalar sets disagree: {a.collision} vs {b.collision}"
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _report(7, "Gr(2,4) degree census refutation", ok, detail or f"{elapsed:.1f}s")


def test_criterion_8_freeness_window():
    # the distinguished family is not free over the ell-th powers: it has
    # 40 elements at ell = 2 (315 at ell = 3) against a generic rank of
    # ell^5 = 32 (243).  Both sweeps must stop at the first degree where the
    # Hilbert-series recount has more products than standard monomials
    G2 = GrGrassmannian(RootField(5, 2))
    rep2 = verify_freeness_window(G2, 8, mode="match")
    G3 = GrGrassmannian(RootField(7, 3))
    rep3 = verify_freeness_window(G3, 12, mode="count")
    ok = True
    detail = ""
    for rep, ell, surplus_degree in ((rep2, 2, 5), (rep3, 3, 7)):
        counts = gr24_sweep_counts_oracle(ell, rep.cutoff)
        first = min(d for d, (pairs, targets) in counts.items() if pairs != targets)
        expected = {d: counts[d] for d in range(first + 1)}
        if (
            first != surplus_degree
            or counts[first][0] <= counts[first][1]
            or rep.ok
            or rep.per_degree != expected
        ):
            ok = False
            detail = f"ell={ell}: ok={rep.ok}, {rep.per_degree} vs oracle {expected}"
            break
    if ok:
        # the match sweep names a degree-5 collision; the oracle's own
        # rewriting of every degree-5 product collides there and nowhere
        # else, and reaches every standard monomial
        pairs, targets = gr24_sweep_counts_oracle(2, 5)[5]
        products = gr24_products_oracle(G2.s, G2.t_exp, 2, 5)
        collisions = {t: set(ps) for t, ps in products.items() if len(ps) > 1}
        c = rep2.collision
        ok = (
            c is not None
            and collisions == {c[2]: {c[0], c[1]}}
            and len(products) == targets
            and rep2.counterexample
            == f"degree 5: {pairs} products vs {targets} standard monomials; "
            f"{c[0]} and {c[1]} both reduce to {c[2]}"
        )
        detail = "" if ok else f"collision {c} vs oracle {collisions}"
    _report(8, "distinguished-basis freeness sweep", ok, detail)


def test_criterion_9_confluence():
    ok = True
    detail = ""
    for ell in (2, 3):
        G = GrGrassmannian(RootField(PRIMES[ell], ell))
        words_rng = random.Random(1000 + ell)
        words = [
            tuple(words_rng.randrange(6) for _ in range(words_rng.randrange(2, 11)))
            for _ in range(200)
        ]
        references = [normal_form_word(G, w) for w in words]
        for strategy in range(50):
            rng = random.Random(strategy)
            for w, ref in zip(words, references):
                if normal_form_word(G, w, rng=rng) != ref:
                    ok = False
                    detail = f"ell={ell} strategy {strategy} word {w}"
                    break
            if not ok:
                break
        if not ok:
            break
    _report(9, "rewriting is strategy independent", ok, detail)


def test_criterion_10_cli_determinism(tmp_path):
    from frobex.cli import main

    ok = True
    detail = ""
    for args in (
        ["qas-verify", "--n", "2", "--ell", "3", "--p", "7", "--seed", "4"],
        ["grassmannian-census", "--ell", "2", "--p", "5", "--seed", "4"],
        ["rees-demo", "--ell", "2", "--p", "5", "--seed", "4"],
    ):
        out1, out2 = tmp_path / "one.txt", tmp_path / "two.txt"
        code1 = main([*args, "--out", str(out1)])
        code2 = main([*args, "--out", str(out2)])
        if not (code1 == code2 == 0 and out1.read_bytes() == out2.read_bytes()):
            ok, detail = False, f"{args[0]} differs between runs"
            break
    _report(10, "byte-identical reports under a fixed seed", ok, detail)
