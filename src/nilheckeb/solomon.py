"""The exterior-derivative picture of the invariant calculus.

Even polynomials map into the dx superalgebra via the exterior
derivative, on which the group and the divided differences act as on
the w generators.  An admissible tuple p of even polynomials yields an
upper triangular matrix P with constant diagonal; solving it against
the exterior derivatives of invariant generators f produces a map J
from the odd generators into the dx ring obeying the same
divided-difference table as the w generators.  Admissible tuples are
tuples of even ExtPoly; an entry that holds an odd generator is refused
wherever a tuple enters.  On even entries x-degree 0 means constant, so
P of a tuple that validates has a nonzero constant diagonal.  The table
is verified, not assumed: every generator-table condition, on the images
of J and in condition three of the second characterization alike, is
checked by ``_follows_generator_table`` as the polynomial identity
F - s_k F = alpha_k * G that says d_k F = G, where the table G and the
root alpha_k come from ``demazure._generator_table`` and
``demazure._simple_root``, the homes the demazure and nilhecke suites
read too.  Nothing is divided.  The invariant dx polynomials match the
products of the generators f_i and their differentials df_i in every
bidegree (``solomon_compare``) by leading terms and a count of Molien's
series against Solomon's product, with no rank.  Each one-form
J(S_(i)) is peeled on those leading terms into the d e_k, and the
change of basis is anti-triangular with a nonzero constant
anti-diagonal, so the J(S_beta) times monomials in the f_i are a basis
of the invariant dx polynomials over the invariants (``verify_J``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._kernels_py import accumulate
from .demazure import _generator_table, _simple_root, demazure, demazure_word
from .extpoly import (
    DX,
    OMEGA,
    ExtPoly,
    XDEG,
    degree,
    normalize_coeff,
    render,
)
from .report import SuiteReport
from .schur import default_invariant_gens, exponents, invariant_schur_basis
from .weylb import act_gen

__all__ = [
    "PolyMatrix",
    "exterior_d",
    "chain_word",
    "default_admissible",
    "validate_admissible",
    "p_matrix",
    "check_char1",
    "check_char2",
    "JMap",
    "build_J",
    "verify_J",
    "solomon_compare",
    "verify_solomon",
]


def exterior_d(f):
    """Total differential of an even polynomial, in the dx family."""
    if not f.is_even():
        raise ValueError("the differential of an odd element is not defined here")
    n = f.nvars
    out = {}
    for (e, _), c in f.terms.items():
        for i in range(n):
            if not e[i]:
                continue
            ee = list(e)
            ee[i] -= 1
            accumulate(out, (tuple(ee), (i + 1,)), c * e[i])
    return ExtPoly(n, DX, out)


# -- admissible tuples and their matrices -------------------------------


def chain_word(j, n):
    """The word s_{j+1} s_j s_{j+2} s_{j+1} ... s_n s_{n-1}; empty for j=n."""
    if not 1 <= j <= n:
        raise ValueError(f"index {j} out of range 1..{n}")
    out = []
    for t in range(j, n):
        out.extend((t + 1, t))
    return tuple(out)


def _one_per_variable(polys, what):
    """polys as a tuple, checked to share one rank and hold one entry per variable."""
    polys = tuple(polys)
    ranks = sorted({q.nvars for q in polys})
    if not polys:
        raise ValueError(f"expected one of the {what} per variable, got none")
    if len(ranks) > 1:
        raise ValueError(f"the {what} mix the ranks {', '.join(map(str, ranks))}")
    if ranks[0] != len(polys):
        raise ValueError(f"expected {ranks[0]} {what}, one per variable, got {len(polys)}")
    return polys


def _admissible_tuple(p):
    """p as a tuple of even polynomials, one per variable."""
    p = _one_per_variable(p, "admissible-tuple entries")
    for q in p:
        if not q.is_even():
            raise ValueError(f"admissible-tuple entry {render(q)} holds an odd generator")
    return p


def default_admissible(n):
    """The tuple p_i = (-1)^(n-i) x_n^(2(n-i)); at n = 1 it is p = (1,)."""
    entries = []
    for i in range(1, n + 1):
        e = [0] * n
        e[n - 1] = 2 * (n - i)
        sign = -1 if (n - i) % 2 else 1
        entries.append(ExtPoly(n, OMEGA, {(tuple(e), ()): sign}))
    return tuple(entries)


def validate_admissible(p):
    """Check the four admissibility conditions; returns a report."""
    p = _admissible_tuple(p)
    n = len(p)
    rep = SuiteReport("admissible")

    ok = all(
        act_gen(i, pj) == pj for pj in p for i in range(1, n - 1)
    )
    rep.add("symmetric in the first n-1 variables", ok)

    ok = all(act_gen(n, pj) == pj for pj in p)
    rep.add("fixed by the sign change", ok)

    ok = True
    for j, pj in enumerate(p, start=1):
        want = 2 * (n - j)
        ok = ok and not pj.is_zero() and degree(pj, XDEG) == want
    rep.add("degrees 2(n-j)", ok)

    ok = True
    for j, pj in enumerate(p, start=1):
        img = demazure_word(chain_word(j, n), pj)
        ok = ok and not img.is_zero() and degree(img, XDEG) == 0
    rep.add("chain of divided differences lands in nonzero constants", ok)

    return rep


class PolyMatrix:
    """A square matrix of even polynomials, one row and one column per variable."""

    __slots__ = ("entries", "nvars")

    def __init__(self, entries):
        entries = [list(_one_per_variable(row, "row entries")) for row in entries]
        ranks = sorted({len(row) for row in entries})
        if [len(entries)] != ranks:
            raise ValueError(f"expected one row per variable, got {len(entries)} of ranks {ranks}")
        self.entries = entries
        self.nvars = ranks[0]

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    __hash__ = None

    def mul_vector(self, vec):
        """Matrix times a column of (possibly odd) polynomials, one per row."""
        if len(vec) != len(self.entries):
            raise ValueError(
                f"a column of {len(vec)} entries against a matrix of size {len(self.entries)}")
        out = []
        for row in self.entries:
            acc = None
            for a, v in zip(row, vec):
                piece = a.as_family(v.family) * v
                acc = piece if acc is None else acc + piece
            out.append(acc)
        return out

    def __repr__(self):
        rows = [
            "[" + ", ".join(render(e) for e in row) + "]" for row in self.entries
        ]
        return "[" + ",\n ".join(rows) + "]"


def p_matrix(p):
    """The matrix with (i,j) entry the c[j]-chain applied to p_i."""
    p = _admissible_tuple(p)
    n = len(p)
    rows = []
    for pi in p:
        rows.append([demazure_word(chain_word(j, n), pi) for j in range(1, n + 1)])
    return PolyMatrix(rows)


def check_char1(p):
    """The two matrix identities an admissible tuple must satisfy."""
    P = p_matrix(p)
    n = P.nvars
    rep = SuiteReport("char1")

    shifts, killed = _column_conditions(P)
    rep.add("double divided difference shifts the columns", shifts)
    rep.add("the sign-change divided difference kills the matrix", killed)

    ok = True
    for i in range(n):
        for j in range(n):
            e = P.entries[i][j]
            if i > j:
                ok = ok and e.is_zero()
            elif i == j:
                ok = ok and not e.is_zero() and degree(e, XDEG) == 0
            elif not e.is_zero():
                ok = ok and degree(e, XDEG) == 2 * (j - i)
    rep.add("triangular with the degree pattern 2(j-i)", ok)

    rep.add(
        "last column validates as admissible",
        validate_admissible([row[n - 1] for row in P.entries]).passed,
    )

    return rep


def _column_conditions(P):
    """Whether d_(k+1) d_k P is column k of P moved to column k+1 for every
    k < n, and whether d_n P = 0."""
    n = P.nvars
    shifts = all(
        demazure(k + 1, demazure(k, e)) == (row[k - 1] if j == k else 0)
        for k in range(1, n) for row in P.entries for j, e in enumerate(row)
    )
    killed = all(demazure(n, e).is_zero() for row in P.entries for e in row)
    return shifts, killed


def _follows_generator_table(theta):
    """Whether d_k theta_j is the value ``demazure._generator_table`` gives
    for every k and j, checked as theta_j - s_k theta_j = alpha_k * d_k theta_j
    with alpha_k from ``demazure._simple_root``; nothing is divided."""
    n, family = len(theta), theta[0].family
    return all(v - act_gen(k, v) == _simple_root(k, n, family) * want
               for k in range(1, n + 1) for v, want in zip(theta, _generator_table(k, theta)[1]))


def check_char2(P, theta):
    """Evaluate the three linked conditions on (P, theta) and the implication.

    theta is a column of n odd elements (w or dx family).  Condition three
    is normalized so that the bare generator column passes: the entry
    below the active row enters with the factor -(x_k + x_{k+1}).  Conditions
    two and three are checked as identities of the group action.
    """
    n = P.nvars
    theta = _one_per_variable(theta, "column entries")
    if len(theta) != n:
        raise ValueError(f"a column of rank {len(theta)} against a matrix of rank {n}")
    rep = SuiteReport("char2")

    shifts, killed = _column_conditions(P)
    cond1 = killed and shifts

    xi = P.mul_vector(theta)
    cond2 = all(act_gen(k, x) == x for k in range(1, n + 1) for x in xi)
    cond3 = _follows_generator_table(theta)

    rep.add("condition 1: column-shift identity for the matrix", cond1)
    rep.add("condition 2: the transported column is invariant", cond2)
    rep.add("condition 3: the column obeys the generator table", cond3)
    count = sum((cond1, cond2, cond3))
    rep.add("no two conditions hold without the third", count != 2)
    return rep


# -- the J homomorphism -------------------------------------------------


class JMap:
    """The multiplicative extension of a generator assignment w_i -> dx image."""

    __slots__ = ("images", "nvars")

    def __init__(self, images, nvars):
        self.images = list(images)
        self.nvars = nvars

    def of_generator(self, i):
        return self.images[i - 1]

    def apply(self, f):
        """Image of a w-family polynomial in the dx ring.

        The terms of f are grouped by odd mask, so each mask's product of
        images is formed once.
        """
        if f.family != OMEGA:
            raise ValueError("the map is defined on the w family")
        n = f.nvars
        by_mask = {}
        for (e, mask), c in f.terms.items():
            by_mask.setdefault(mask, {})[(e, ())] = c
        out = ExtPoly.zero(n, DX)
        for mask, even in by_mask.items():
            prod = ExtPoly.one(n, DX)
            for j in mask:
                prod = prod * self.images[j - 1]
            out = out + ExtPoly(n, DX, even) * prod
        return out


def build_J(fgens=None, p=None, n=None):
    """Solve the matrix relation df = P * J(w) for the generator images.

    P is upper triangular with constant diagonal, so back substitution gives
    J_j = (df_j - sum_{t>j} P_jt J_t) / P_jj for j = n, ..., 1.
    """
    if fgens is None:
        if n is None:
            raise ValueError("need either generators or the variable count")
        fgens = default_invariant_gens(n)
    fgens = _one_per_variable(fgens, "invariant generators")
    if n is not None and n != len(fgens):
        raise ValueError(f"n = {n} disagrees with the generators' rank {len(fgens)}")
    n = len(fgens)
    p = default_admissible(n) if p is None else _admissible_tuple(p)
    if len(p) != n:
        raise ValueError(f"the admissible tuple has rank {len(p)}, the generators rank {n}")
    if not validate_admissible(p).passed:
        raise ValueError(f"tuple ({', '.join(map(render, p))}) is not admissible")
    P = p_matrix(p).entries
    images = [None] * n
    for j in reversed(range(n)):
        c = P[j][j].constant_term()
        rest = exterior_d(fgens[j])
        for t in range(j + 1, n):
            rest = rest - P[j][t].as_family(DX) * images[t]
        images[j] = ExtPoly(n, DX, {k: normalize_coeff(Fraction(v) / c)
                                    for k, v in rest.terms.items()})
    return JMap(images, n)


def verify_J(n, fgens=None, p=None):
    """Check J on the generator table, on invariants, and Solomon's basis.

    J is an algebra map, so the image of each invariant Schur element S_beta
    is the wedge of the one-forms theta_i = J(S_(i)), i in beta.  The paper's
    statement is that the J(S_beta), times monomials in the f_i, are a basis
    of the invariant dx polynomials over the invariants.  ``solomon_compare``
    proves that the products m * d e_k, m a monomial in the
    e_j = e_j(x_1^2, ..., x_n^2), have distinct leading terms and span every
    bidegree.  So each theta_i is sum_k g_k d e_k with invariant g_k, and
    peeling leading terms finds them (``_peel``).  theta_i has x-degree
    2(n-i)+1 and d e_k has 2k-1, so by x-degree g_k = 0 for k > n-i+1 and
    g_(n-i+1) is a constant c_i.  The change of basis from the d e_k to the
    theta_i is therefore anti-triangular with determinant +-prod_i c_i.  It
    is invertible over the invariants exactly when every c_i is nonzero;
    then the wedges of the theta_i are those of the d e_k under an
    invertible change of basis, and with the f-monomials they are a basis,
    which is the paper's statement.  The check peels each theta_i and asks
    for a nonzero constant times d e_(n-i+1) plus lower d e_k; its detail
    names the first theta_i that fails and why.

    Invariance is checked on the n images theta_i, once each, with no
    random draw.  J and each s_k are linear, so s_k fixes the image
    sum_i c_i theta_i of a combination of the S_(i) whenever it fixes
    every theta_i, and each S_(i) is such a combination: checking the n
    images is checking every combination.  Beyond the span of the S_(i),
    J is multiplicative and fixes even invariants, and each s_k is a
    ring map, so invariant theta_i make every image of an invariant
    invariant.
    """
    return _verify_built_J(build_J(fgens, p, n))


def _verify_built_J(J):
    """The checks of ``verify_J`` on a J already built."""
    n = J.nvars
    rep = SuiteReport(f"J(n={n})")

    rep.add("generator images are bihomogeneous of the right degrees", _images_bihomogeneous(J))
    rep.add("divided differences of the images follow the generator table",
            _follows_generator_table(J.images))

    theta = {i: J.apply(s) for (i,), s in invariant_schur_basis(n, 1)}
    moved = [f"s_{k} moves J(S_({i}))" for i, img in theta.items()
             for k in range(1, n + 1) if act_gen(k, img) != img]
    rep.add("images of invariants are invariant", not moved, moved[0] if moved else "")

    es, des = _e_table(n)
    faults = [f"J(S_({i})): {why}" for i, img in theta.items()
              if (why := _peel(img, n - i + 1, es, des)[1])]
    rep.add("each J(S_(i)) peels to a nonzero constant times d e_(n-i+1) plus lower d e_k",
            not faults, faults[0] if faults else "")

    rep.add("unit maps to unit", J.apply(ExtPoly.one(n)) == ExtPoly.one(n, DX))

    return rep


def _e_table(n):
    """([e_k], [d e_k]) for k = 1..n: e_k = e_k(x_1^2, ..., x_n^2), the
    generators of ``default_invariant_gens`` in reverse, in the dx family."""
    es = [f.as_family(DX) for f in reversed(default_invariant_gens(n))]
    return es, [exterior_d(e) for e in es]


def _peel(form, top, es, des):
    """Write a one-form as sum_k g_k d e_k, k <= top, by its leading terms.

    Returns ({(k, a): coefficient}, fault): g_k is the sum of the
    coefficients times e^a = e_1^a_1 ... e_n^a_n.  Each step takes the
    form's lex-leading term (x_1 > ... > x_n).  Its single odd exponent
    gives k.  The leading term of e^a d e_k has the exponent
    sum_j 2 a_j (1, ..., 1, 0, ..., 0), with j ones, plus that of
    x_1^2 ... x_(k-1)^2 x_k, so the exponent drops by 2 a_i from x_i to
    x_(i+1), and by 1 more at i = k - 1 and i = k; that gives a.  The
    matching multiple of e^a d e_k is subtracted.

    The fault is "" when the form peels to zero with a nonzero constant
    times d e_top and lower d e_k.  Otherwise it names a leading term
    without exactly one dx letter, with its dx letter off the odd
    exponent, with a negative or odd 2 a_j, or beyond a constant times
    d e_top, or else says that no d e_top term was found.  Nothing raises;
    the dict then holds the steps made before the fault.
    """
    n, coeffs = form.nvars, {}
    while key := max(form.terms, default=()):
        (e, mask), lead = key, render(ExtPoly(n, DX, {key: form.terms[key]}))
        if len(mask) != 1:
            return coeffs, f"the leading term {lead} has {len(mask)} dx letters"
        if [i for i, v in enumerate(e, 1) if v % 2] != [k := mask[0]]:
            return coeffs, f"the leading term {lead} has dx_{k} off its odd exponent"
        twice = tuple(u - v - (i in (k - 1, k)) for i, (u, v) in enumerate(zip(e, e[1:] + (0,)), 1))
        if any(v < 0 or v % 2 for v in twice):
            return coeffs, f"the leading term {lead} decodes to the e-exponents 2a = {twice}"
        if (k, twice) > (top, (0,) * n):  # k > top, or k = top and a != 0
            return coeffs, f"the leading term {lead} is beyond a constant times d e_{top}"
        a = tuple(v // 2 for v in twice)
        prod = math.prod((ej for ej, aj in zip(es, a) for _ in range(aj)), start=des[k - 1])
        c = coeffs[k, a] = normalize_coeff(Fraction(form.terms[key]) / prod.terms[key])
        form = form - c * prod
    return coeffs, "" if (top, (0,) * n) in coeffs else f"no d e_{top} term"


def _images_bihomogeneous(J):
    """Each J(w_j) is nonzero, with one dx letter and x-degree 2(n-j)+1 per term."""
    n = J.nvars
    for j in range(1, n + 1):
        img = J.of_generator(j)
        if not img or any(len(mask) != 1 or sum(e) != 2 * (n - j) + 1 for e, mask in img.terms):
            return False
    return True


# -- invariant dimension comparison -------------------------------------


def _signed_classes(n):
    """{signed cycle type: class size} over the conjugacy classes of B_n.

    A signed cycle type, the sorted (length, product of signs) of the
    cycles, is a bipartition (lambda+, lambda-) of n with m_k^+- parts k;
    its class has 2^n n! / prod_k (2k)^(m_k^+ + m_k^-) m_k^+! m_k^-!
    elements (Macdonald, Symmetric Functions, App. B).
    """
    out = {}
    for mults in exponents(list(range(1, n + 1)) * 2, n):
        size, cycles = 2**n * math.factorial(n), []
        for idx, m in enumerate(mults):
            k = idx % n + 1
            size //= (2 * k) ** m * math.factorial(m)
            cycles += [(k, 1 if idx < n else -1)] * m
        out[tuple(sorted(cycles))] = size
    return out


def _invariant_dimensions(n, max_a):
    """dims[a][b]: the dimension of the invariant dx polynomials of x-degree a
    with b dx letters, for a <= max_a and b <= n.

    Molien's formula: the generating function is
    |W|^-1 sum_w det(1 + t w) / det(1 - q w), as w acts alike on the x and on
    the dx.  A k-cycle of w whose signs multiply to e contributes the factors
    1 - e (-t)^k and 1 / (1 - e q^k), so the sum runs over signed cycle types,
    each weighted by its class size (``_signed_classes``).  A class's term
    is a polynomial in t times a series in q, formed apart.
    """
    classes = _signed_classes(n)
    total = [[0] * (n + 1) for _ in range(max_a + 1)]
    for cycles, size in classes.items():
        tpoly, qseries = [size] + [0] * n, [1] + [0] * max_a
        for k, sign in cycles:
            tk = sign * (-1) ** k  # 1 - e (-t)^k = 1 - tk t^k
            for b in reversed(range(k, n + 1)):
                tpoly[b] -= tk * tpoly[b - k]
            for a in range(k, max_a + 1):
                qseries[a] += sign * qseries[a - k]
        total = [[c + m * p for c, p in zip(row, tpoly)] for row, m in zip(total, qseries)]
    order = sum(classes.values())
    if any(c % order for row in total for c in row):
        raise RuntimeError(f"a Molien sum is not divisible by |W| = {order}")
    return [[c // order for c in row] for row in total]


def _product_counts(n, max_a):
    """counts[a][b]: the number of products m * df_T of x-degree a with
    |T| = b, m a monomial in the f_i: the coefficients of Solomon's series
    prod_k (1 + t q^(2k-1)) / (1 - q^(2k)), for a <= max_a and b <= n."""
    series = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(max_a)]
    for k in range(1, n + 1):
        for a in reversed(range(2 * k - 1, max_a + 1)):  # times 1 + t q^(2k-1)
            series[a] = [c + d for c, d in zip(series[a], [0] + series[a - 2 * k + 1])]
        for a in range(2 * k, max_a + 1):  # over 1 - q^(2k)
            series[a] = [c + d for c, d in zip(series[a], series[a - 2 * k])]
    return series


def solomon_compare(n):
    """Solomon's theorem for the dx forms, in every bidegree (a, b).

    The invariant dx polynomials of x-degree a with b dx letters have as
    a basis the products m * df_T, where m is a monomial in the invariant
    generators e_k = e_k(x_1^2, ..., x_n^2) (``default_invariant_gens``
    lists them as f_i = e_(n-i+1)) and df_T the product of the d e_k with
    k in T, |T| = b.  No rank is taken.

    Independence, by leading terms.  Order x-exponents lex with
    x_1 > ... > x_n.  The checks show that e_k leads with x_1^2 ... x_k^2
    and no odd letter, and that d e_k has one term of lex-largest
    exponent, x_1^2 ... x_(k-1)^2 x_k, which carries dx_k.  Lex is a
    monomial order, so m * df_T has one term of largest exponent, the
    product of the leading terms, with odd mask T: a wedge of distinct
    dx_k is not zero.  That term gives back the product.  Its
    mask is T, and its exponent less those of the d e_k, k in T, is
    sum_k 2 a_k (1, ..., 1, 0, ..., 0) with k ones, which gives the
    exponent a_k of e_k in m.  Products with distinct leading terms are
    independent.  The e_k and d e_k are s_i-invariant for every i, as
    checked, and s_i is a ring map, so the products are invariant; in
    each bidegree their number bounds the dimension from below.

    Spanning, by a count.  The number of products of bidegree (a, b) is
    the coefficient of q^a t^b in S = prod_k (1 + t q^(2k-1)) / (1 - q^(2k))
    (``_product_counts``), and the dimension is that of Molien's series M
    (``_invariant_dimensions``).  Let D(q) = prod_k (1 - q^(2k)).  Then
    D S = prod_k (1 + t q^(2k-1)) has q-degree n^2, and D M is
    |W|^-1 sum_w det(1 + t w) D / det(1 - q w).  Each det(1 - q w) divides
    D: a k-cycle with sign product e gives the factor 1 - e q^k, which
    divides 1 - q^(2k), and for cycle lengths k_1, ..., k_r summing to n,
    D / prod_j (1 - q^(2 k_j)) is a q^2-multinomial coefficient, a
    polynomial.  So each summand of D M is a polynomial of q-degree
    n(n+1) - n = n^2.  The coefficient of q^a in D M or D S depends only
    on those of M or S up to a, so if M and S agree for a <= n^2, then
    D M = D S, and M = S since D has constant term 1.  The count is
    compared for a <= n^2, one check per b, so it holds in every
    bidegree.  A failing check names the first generator or bidegree
    that disagrees.
    """
    rep = SuiteReport(f"solomon(n={n})")
    es, des = [], []  # (where, polynomial, its wanted leading term (x-exponent, odd mask))
    for k, (f, df) in enumerate(zip(*_e_table(n)), start=1):
        top, rest = (2,) * (k - 1), (0,) * (n - k)
        es.append((f"e_{k}, bidegree ({2 * k},0)", f, ((*top, 2, *rest), ())))
        des.append((f"d e_{k}, bidegree ({2 * k - 1},1)", df, ((*top, 1, *rest), (k,))))
    # a leading term is the only term whose x-exponent is lex at least its own
    wrong_lead = lambda cases: [at for at, g, lt in cases
                                if [key for key in g.terms if key[0] >= lt[0]] != [lt]]
    dims, counts = _invariant_dimensions(n, n * n), _product_counts(n, n * n)
    for check, fails in [
            ("each e_k(x^2) leads with x_1^2...x_k^2 and no odd letter", wrong_lead(es)),
            ("each d e_k has one leading term, x_1^2...x_(k-1)^2 x_k dx_k", wrong_lead(des)),
            ("each e_k and d e_k is s_i-invariant for every i",
             [at for at, g, _ in es + des if any(act_gen(i, g) != g for i in range(1, n + 1))]),
            *((f"b = {b}: Molien's dimensions equal the product counts for a <= {n * n}",
               [f"bidegree ({a},{b}): dimension {dims[a][b]}, {counts[a][b]} products"
                for a in range(n * n + 1) if dims[a][b] != counts[a][b]]) for b in range(n + 1))]:
        rep.add(check, not fails, fails[0] if fails else "")
    return rep


# -- module verification ------------------------------------------------


def _first_failure(rep):
    """The first failing check of ``rep`` with its detail, or "" if all pass."""
    for c in rep.checks:
        if not c.passed:
            return f"{c.check}: {c.detail}" if c.detail else c.check
    return ""


def verify_solomon(n, trials=8, seed=0):
    """The exterior derivative, the admissible matrix, J and Solomon's count.

    Every check is deterministic: ``trials`` and ``seed`` are accepted
    so that every suite takes the same arguments, and draw nothing.  The
    checks that fold in the reports of ``verify_J`` and ``solomon_compare``
    name the first failing check of that report in their detail.
    """
    rep = SuiteReport(f"solomon module(n={n})")

    x1 = ExtPoly.x(1, n)
    got = exterior_d(x1 * x1)
    want = 2 * ExtPoly.x(1, n, DX) * ExtPoly.odd(1, n, DX)
    rep.add("differential of a square", got == want)
    if n >= 2:
        f = ExtPoly.x(1, n) ** 2 * ExtPoly.x(2, n) ** 2
        g = ExtPoly.x(1, n) ** 2 + ExtPoly.x(2, n) ** 2
        lhs = exterior_d(f * g)
        rhs = exterior_d(f) * g.as_family(DX) + f.as_family(DX) * exterior_d(g)
        rep.add("product rule", lhs == rhs)

    p = default_admissible(n)
    rep.add("default tuple is admissible", validate_admissible(p).passed)
    rep.add("characterization one", check_char1(p).passed)

    P = p_matrix(p)
    theta = [ExtPoly.odd(i + 1, n) for i in range(n)]
    rep.add("characterization two on the generator column", check_char2(P, theta).passed)

    J = build_J(n=n)
    rep.add("characterization two on the solved images", check_char2(P, J.images).passed)

    bad = [ExtPoly.x(1, n, OMEGA) * ExtPoly.odd(1, n)] + [
        ExtPoly.odd(i + 1, n) for i in range(1, n)
    ]
    c2 = check_char2(P, bad)
    checks = {c.check: c.passed for c in c2.checks}
    rep.add(
        "characterization two flags a broken column",
        not checks["condition 2: the transported column is invariant"]
        and not checks["condition 3: the column obeys the generator table"]
        and checks["no two conditions hold without the third"],
    )

    for check, sub in [("equivariance suite", _verify_built_J(J)),
                       ("invariant dimensions match the generator picture", solomon_compare(n))]:
        rep.add(check, sub.passed, _first_failure(sub))

    return rep

