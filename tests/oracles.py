"""Independent brute-force oracles used to pin expected values.

The product oracles work on words in the free algebra and apply single
adjacent rewrite steps until a normal form is reached; the Gr(2,4) counts
come from Hilbert series.  None of it shares code with the package's
closed-form normal-ordering rules or enumerations; that is the point.
The Gram determinant oracle expands det over S permutation by permutation
instead of reading the structure the package's determinant paths use, and
the Gram matrix oracles project each product as a whole rather than its
terms through a table of form values.  The multiplicative extension of
generator images multiplies through a product callable, one generator
factor at a time, with no tables.  ``dense_rows`` and ``sparse_rows``
convert between the package's sparse Gram rows and dense matrices.
"""

import itertools


def sort_word_oracle(cmatrix, word):
    """Sort a q-commuting word by adjacent swaps.

    One step: ... x_a x_b ... with a > b rewrites to q_{a,b} ... x_b x_a ...
    where q_{a,b} = zeta^C[a][b].  Returns (zeta exponent, sorted word).
    """
    w = list(word)
    exponent = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                exponent += cmatrix[w[i]][w[i + 1]]
                w[i], w[i + 1] = w[i + 1], w[i]
                changed = True
                break
    return exponent, tuple(w)


def exps_to_word(exps):
    out = []
    for i, e in enumerate(exps):
        out.extend([i] * e)
    return tuple(out)


def word_to_exps(word, n):
    exps = [0] * n
    for letter in word:
        exps[letter] += 1
    return tuple(exps)


def dense_rows(rows, zero):
    """Sparse rows {column: entry} as the dense square matrix the Gram
    oracles return, with ``zero`` where a column is missing."""
    return [[row.get(j, zero) for j in range(len(rows))] for row in rows]


def sparse_rows(rows):
    """A hand-built dense matrix as sparse rows {column: entry}, keeping
    the nonzero entries only.  Not for checking that a matrix stores no
    zeros: it drops them."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def components_oracle(rows):
    """Connected components of a dense square matrix's nonzero pattern, as
    a set of (row tuple, column tuple), by breadth-first search from each
    row not yet reached; every column no row reaches is a component of its
    own.  Row i and column j are joined when rows[i][j] is nonzero."""
    n = len(rows)
    out, reached = set(), set()
    for start in range(n):
        if any(start in r for r, _ in out):
            continue
        rs, cs, frontier = {start}, set(), [start]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if rows[i][j] and j not in cs:
                    cs.add(j)
                    new = {k for k in range(n) if rows[k][j]} - rs
                    rs |= new
                    frontier.extend(new)
        reached |= cs
        out.add((tuple(sorted(rs)), tuple(sorted(cs))))
    return out | {((), (j,)) for j in range(n) if j not in reached}


def qas_product_oracle(cmatrix, ell, a, b):
    """x^a * x^b via free-algebra sorting; returns (exponent mod ell, a + b)."""
    n = len(cmatrix)
    word = exps_to_word(a) + exps_to_word(b)
    exponent, sorted_word = sort_word_oracle(cmatrix, word)
    return exponent % ell, word_to_exps(sorted_word, n)


def qas_mul_oracle(cmatrix, ell, zeta, p):
    """The product of exponent indices as a callable mul(a, b) returning
    {a + b: zeta^k}, through ``qas_product_oracle``."""

    def mul(a, b):
        k, e = qas_product_oracle(cmatrix, ell, a, b)
        return {e: pow(zeta, k, p)}

    return mul


def qas_gram_oracle(cmatrix, ell, zeta, p, weights):
    """Gram matrix over S of the form sum over r of weights[r] * (slot r).

    S is the polynomial ring in y_i = x_i^ell (central monomials multiply
    with scalar 1).  Entry (b, c) is {s: coeff}, meaning coeff * y^s, where
    x^b x^c = coeff' * x^(ell s) x^r and coeff = weights[r] * coeff'.
    """
    n = len(cmatrix)
    basis = list(itertools.product(range(ell), repeat=n))
    rows = []
    for b in basis:
        row = []
        for c in basis:
            k, e = qas_product_oracle(cmatrix, ell, b, c)
            r = tuple(x % ell for x in e)
            s = tuple(x // ell for x in e)
            k_split, _ = qas_product_oracle(cmatrix, ell, tuple(ell * x for x in s), r)
            coeff = weights.get(r, 0) * pow(zeta, (k - k_split) % ell, p) % p
            row.append({s: coeff} if coeff else {})
        rows.append(row)
    return rows


def det_over_s_oracle(M, p, nvars):
    """det M over F_p[y_1..y_nvars] by the permutation expansion.

    Entries are polynomials {exponent tuple: coeff}.  Every permutation is
    walked row by row with its sign from the inversions met so far; a
    branch stops at a zero entry, which only drops zero terms.  Ranks <= 9.
    """
    n = len(M)
    assert n <= 9, "the permutation expansion is for ranks <= 9"
    det: dict = {}

    def times(f, g):
        out: dict = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = (out.get(e, 0) + c1 * c2) % p
        return out

    def expand(i, used, sign, term):
        if i == n:
            for e, c in term.items():
                det[e] = (det.get(e, 0) + sign * c) % p
            return
        for j in range(n):
            if j not in used and M[i][j]:
                flips = sum(1 for k in used if k > j)
                expand(i + 1, used | {j}, -sign if flips % 2 else sign, times(term, M[i][j]))

    expand(0, frozenset(), 1, {(0,) * nvars: 1})
    return {e: c for e, c in det.items() if c}


def is_unit_oracle(poly, nvars):
    """Units of a polynomial ring over a field are the nonzero constants."""
    return list(poly) == [(0,) * nvars]


# letters for the q-Weyl oracle: 0 = y, 1 = x; normal order is all y first
def qweyl_word_oracle(fld, word) -> dict:
    """Expand a word in x, y using x*y -> q*y*x + 1, one redex at a time.

    Returns the normal-ordered dictionary {(a, b): coeff} meaning
    sum of coeff * y^a x^b.  The leftmost redex is rewritten first, and the
    normal form of every word met is kept for the length of one call, so a
    product of monomials costs polynomial, not exponential, time.
    """
    memo: dict = {}

    def normal_form(w) -> dict:
        if w in memo:
            return memo[w]
        pos = next((i for i in range(len(w) - 1) if w[i] == 1 and w[i + 1] == 0), None)
        if pos is None:
            a = sum(1 for letter in w if letter == 0)
            result = {(a, len(w) - a): 1}
        else:
            swapped = w[:pos] + (0, 1) + w[pos + 2:]
            dropped = w[:pos] + w[pos + 2:]
            result = {k: c * fld.zeta % fld.p for k, c in normal_form(swapped).items()}
            for k, c in normal_form(dropped).items():
                result[k] = (result.get(k, 0) + c) % fld.p
        memo[w] = result
        return result

    return {k: v for k, v in normal_form(tuple(word)).items() if v}


def qweyl_gram_oracle(fld, ell, weights):
    """Gram matrix over S of the form sum over r of weights[r] * (slot r) on
    the q-Weyl algebra over its ell-centre S = F_p[Y, X], Y = y^ell and
    X = x^ell.

    The basis is y^a x^b with a, b < ell in lexicographic order.  Entry
    (u, v) is {s: coeff}, meaning coeff * Y^s[0] X^s[1]: the sum of
    weights[r] * c over the terms c * y^a x^b of the word-rewritten product
    u*v with (a, b) = r + ell * s.  x^ell and y^ell are central, so
    y^(ell s0) x^(ell s1) * y^r0 x^r1 = y^(ell s0 + r0) x^(ell s1 + r1) and
    every term lands on its slot r = (a, b) mod ell with scalar 1.
    """
    basis = list(itertools.product(range(ell), repeat=2))
    rows = []
    for a1, b1 in basis:
        row = []
        for a2, b2 in basis:
            word = (0,) * a1 + (1,) * b1 + (0,) * a2 + (1,) * b2
            entry: dict = {}
            for (a, b), c in qweyl_word_oracle(fld, word).items():
                s = (a // ell, b // ell)
                entry[s] = (entry.get(s, 0) + weights.get((a % ell, b % ell), 0) * c) % fld.p
            row.append({s: c for s, c in entry.items() if c})
        rows.append(row)
    return rows


def rees_window_pair_counts(window):
    """(pairs, top pairs) of admissible Rees indices of the q-Weyl algebra
    with cone degrees adding up to at most the window.

    A base index y^a x^b is admissible at cone degree g when a + b <= g:
    (g + 1)(g + 2) / 2 of them, g + 1 with a + b = g (the top symbols).
    """
    n = [(g + 1) * (g + 2) // 2 for g in range(window + 1)]
    top = [g + 1 for g in range(window + 1)]
    pairs = [(g, h) for g in range(window + 1) for h in range(window + 1 - g)]
    return sum(n[g] * n[h] for g, h in pairs), sum(top[g] * top[h] for g, h in pairs)


def qweyl_product_oracle(fld, i, j) -> dict:
    """Product of normal-ordered q-Weyl monomials via word rewriting, as
    {(a, b): coeff}."""
    (a1, b1), (a2, b2) = i, j
    word = (0,) * a1 + (1,) * b1 + (0,) * a2 + (1,) * b2
    return qweyl_word_oracle(fld, word)


def top_terms_oracle(degree, terms):
    """The terms of a nonzero term dict on its largest ``degree(index)``:
    its top symbol."""
    top = max(map(degree, terms))
    return {i: c for i, c in terms.items() if degree(i) == top}


def terms_product_oracle(mul, p, f, g):
    """The bilinear product of term dicts {index: coeff} mod p, every
    pair of terms multiplied through ``mul(i, j) -> {index: coeff}``."""
    out: dict = {}
    for i, c in f.items():
        for j, d in g.items():
            for t, v in mul(i, j).items():
                out[t] = (out.get(t, 0) + c * d * v) % p
    return {t: v for t, v in out.items() if v}


def extension_oracle(mul, p, images, terms):
    """The multiplicative extension of generator images to a term dict.

    ``images[k]`` is the image {index: coeff} of the k-th generator, and
    the exponent index a stands for the ordered product g_1^a_1 ... g_n^a_n
    of generator powers, so its image is built up from the unit (0, ..., 0)
    by multiplying on the right by images[k], a_k times for each k in turn.
    """
    out: dict = {}
    for a, c in terms.items():
        image = {(0,) * len(a): 1}
        for k, e in enumerate(a):
            for _ in range(e):
                image = terms_product_oracle(mul, p, image, images[k])
        for t, v in image.items():
            out[t] = (out.get(t, 0) + c * v) % p
    return {t: v for t, v in out.items() if v}


# Gr(2,4): letters 0..5 stand for x1..x6, census degrees 2, 1, 2, 1, 2, 2
GR24_DEGREES = (2, 1, 2, 1, 2, 2)


def gr24_rewrite_oracle(smatrix, t_exp, ell, word):
    """Rewrite a Gr(2,4) word, always at its leftmost redex.

    Redexes: x3 x4 -> zeta^t x2 x5, and x_a x_b -> zeta^s[a][b] x_b x_a
    for a > b.  Returns (zeta exponent mod ell, exponent 6-tuple).
    """
    w = list(word)
    exponent = 0
    while True:
        pos = next(
            (i for i in range(len(w) - 1)
             if w[i] > w[i + 1] or (w[i], w[i + 1]) == (2, 3)),
            None,
        )
        if pos is None:
            return exponent % ell, word_to_exps(w, 6)
        a, b = w[pos], w[pos + 1]
        if (a, b) == (2, 3):
            exponent += t_exp
            w[pos], w[pos + 1] = 1, 4
        else:
            exponent += smatrix[a][b]
            w[pos], w[pos + 1] = b, a


def gr24_family_oracle(ell):
    """The distinguished family, straight from its inequalities: exponents
    below ell, never both x3 and x4, and k2 + ki < ell or ki + k5 < ell."""
    out = []
    for k1, k2, k3, k4, k5, k6 in itertools.product(range(ell), repeat=6):
        ki = k3 + k4
        if k3 * k4 == 0 and (k2 + ki < ell or ki + k5 < ell):
            out.append((k1, k2, k3, k4, k5, k6))
    return out


def _gr24_degree(exps):
    return sum(e * w for e, w in zip(exps, GR24_DEGREES))


def _hilbert_series_gr24(cutoff):
    """Coefficients of H_R = (1 - t^3) / ((1 - t)^2 (1 - t^2)^4) to cutoff."""
    free = [1] + [0] * cutoff
    for w in GR24_DEGREES:  # divide by (1 - t^w)
        for i in range(w, cutoff + 1):
            free[i] += free[i - w]
    return [free[i] - (free[i - 3] if i >= 3 else 0) for i in range(cutoff + 1)]


def gr24_sweep_counts_oracle(ell, cutoff):
    """Per-degree (products, standard monomials) of the freeness sweep.

    Standard monomials are counted by H_R, the central ones (ell-th powers)
    by H_R(t^ell), and products by H_R(t^ell) times the family polynomial.
    """
    targets = _hilbert_series_gr24(cutoff)
    central = [0] * (cutoff + 1)
    for i, c in enumerate(targets[: cutoff // ell + 1]):
        central[i * ell] = c
    family = [0] * (cutoff + 1)
    for exps in gr24_family_oracle(ell):
        d = _gr24_degree(exps)
        if d <= cutoff:
            family[d] += 1
    return {
        d: (sum(central[e] * family[d - e] for e in range(d + 1)), targets[d])
        for d in range(cutoff + 1)
    }


def gr24_products_oracle(smatrix, t_exp, ell, degree):
    """Every product z * b of census degree `degree`, z an ell-th power of a
    standard monomial and b in the family, grouped by normal form:
    {standard monomial: [(z, b), ...]}."""
    out: dict = {}
    for b in gr24_family_oracle(ell):
        rest = degree - _gr24_degree(b)
        if rest < 0 or rest % ell:
            continue
        for m in itertools.product(range(rest // ell + 1), repeat=6):
            if m[2] * m[3] or _gr24_degree(m) * ell != rest:
                continue
            z = tuple(ell * e for e in m)
            _, target = gr24_rewrite_oracle(
                smatrix, t_exp, ell, exps_to_word(z) + exps_to_word(b)
            )
            out.setdefault(target, []).append((z, b))
    return out
