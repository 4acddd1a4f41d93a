"""Independent oracles the tests compare the library against.

Everything here is written from scratch on sympy and plain tuples: a
symbolic divided difference for even polynomials, exact division by a
linear form, the closed form of the solved images J(w_j), and a
breadth-first model of the signed-permutation group with its signed
cycle types.  There are eight exceptions.  The generator action
``oracle_act_gen`` multiplies out the images of the generators with
``ExtPoly.__mul__``, so it checks ``act_gen`` against the polynomial
product.  The two-step divided difference ``oracle_demazure`` borrows
only ``act_gen``: it divides with ``exact_div_linear`` below, by synthetic
division, and not with the term-by-term kernel, which it checks.  The
brute-force operator product ``oracle_nh_mul`` borrows the package's
single-letter operators and polynomial arithmetic but does its own word
expansion and group bookkeeping.  The dense invariant count
``oracle_invariant_dimension`` borrows ``act_gen`` and the rank
``span_rank`` below (``rank``, the pivot count of ``linalg.rref``, over
the joint support) but not
Molien's formula, which it checks.  The dense product rank
``oracle_product_rank`` multiplies the package's invariant generators and
their ``exterior_d`` out with ``ExtPoly.__mul__`` and takes ``span_rank``:
it is the rank ``solomon_compare`` replaced with leading terms and a
count.  The basis oracles ``oracle_sign_rule`` (all 4^n products of the
invariant Schur basis against the product rule, by ``ExtPoly.__mul__``)
and ``oracle_basis_rank`` (its dense rank by ``span_rank``) are the
general checks that ``verify_schur``'s structural ones replace.  The word
oracles ``oracle_demazure_w`` and ``oracle_nh_mul_word`` run the
package's own operators along ``some_reduced_word`` (smallest descent
first), so they check that neither the largest-descent-first walk nor the
ascending runs of ``schubert`` change a result; ``oracle_nh_mul_word``
also keeps its pieces rational, where ``nh_mul`` clears denominators
first, so it checks the clearing too.  It reuses ``nilhecke._push_through``
itself, invariant slide included, so only ``oracle_nh_mul`` checks that
slide independently.  And ``all_reduced_words`` and
``oracle_some_reduced_word`` strip right descents with the package's
``compose`` and ``right_descents``: the first lists every reduced word
of a small element, the second is the stripping ``some_reduced_word``
did before it stepped one window in place.
"""

import itertools
import math
from fractions import Fraction

import sympy

from nilheckeb import (DX, ExtPoly, NHElement, OMEGA, SignedPerm, act_gen, compose,
                       default_invariant_gens, demazure, demazure_word, exterior_d, gen,
                       inverse, some_reduced_word)
from nilheckeb._kernels_py import accumulate
from nilheckeb.linalg import rref
from nilheckeb.nilhecke import _push_through
from nilheckeb.weylb import right_descents


def sy_vars(n):
    return sympy.symbols(f"x1:{n + 1}")


def to_sympy(f):
    """Even part only; raises if an odd generator is present."""
    xs = sy_vars(f.nvars)
    expr = sympy.Integer(0)
    for (e, mask), c in f.terms.items():
        if mask:
            raise ValueError("oracle handles even polynomials only")
        mono = sympy.Rational(c.numerator, c.denominator)
        for xi, p in zip(xs, e):
            mono *= xi**p
        expr += mono
    return sympy.expand(expr)


def from_sympy(expr, n, family=OMEGA):
    xs = sy_vars(n)
    poly = sympy.Poly(sympy.expand(expr), *xs)
    entries = []
    for e, c in poly.terms():
        q = sympy.Rational(c)
        entries.append((Fraction(int(q.p), int(q.q)), tuple(e), ()))
    return ExtPoly.from_terms(n, entries, family)


def sy_demazure(i, expr, n):
    """(f - s_i f) / (x_i - x_(i+1)), or the sign-flip one for i = n."""
    xs = sy_vars(n)
    if i < n:
        flipped = expr.subs([(xs[i - 1], xs[i]), (xs[i], xs[i - 1])], simultaneous=True)
        quot = sympy.cancel((expr - flipped) / (xs[i - 1] - xs[i]))
    else:
        flipped = expr.subs(xs[n - 1], -xs[n - 1])
        quot = sympy.cancel((expr - flipped) / (2 * xs[n - 1]))
    return sympy.expand(quot)


# -- exact division by a linear form -----------------------------------


class DivisionError(ArithmeticError):
    """Raised when an exact division leaves a nonzero remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


def div_linear_terms(a, i, j):
    """Divide a term dict by ``x_i - x_j`` (0-based slots ``i != j``).

    Synthetic division in ``x_i`` about ``x_i = x_j``: per term,
    ``x_i^k = (x_i - x_j) * sum_t x_i^t x_j^(k-1-t) + x_j^k``.
    Returns ``(quotient, remainder)``; the remainder is free of ``x_i``.
    """
    quot = {}
    rem = {}
    for (e, m), c in a.items():
        k = e[i]
        base = list(e)
        for t in range(k):
            q = list(base)
            q[i] = t
            q[j] = e[j] + (k - 1 - t)
            key = (tuple(q), m)
            v = quot.get(key)
            if v is None:
                quot[key] = c
            else:
                v = v + c
                if v:
                    quot[key] = v
                else:
                    del quot[key]
        r = list(base)
        r[i] = 0
        r[j] = e[j] + k
        key = (tuple(r), m)
        v = rem.get(key)
        if v is None:
            rem[key] = c
        else:
            v = v + c
            if v:
                rem[key] = v
            else:
                del rem[key]
    return quot, rem


def div_var_terms(a, i):
    """Divide a term dict by the single variable ``x_i`` (0-based slot).

    Returns ``(quotient, remainder)`` where the remainder collects the
    terms with ``x_i``-exponent zero, untouched.
    """
    quot = {}
    rem = {}
    for (e, m), c in a.items():
        if e[i] == 0:
            rem[(e, m)] = c
        else:
            q = list(e)
            q[i] -= 1
            quot[(tuple(q), m)] = c
    return quot, rem


def exact_div_linear(f, i, j=None):
    """Divide f exactly by x_i - x_j (i < j), or by x_i when j is None.

    Indices are 1-based; DivisionError, carrying the remainder, if the
    form does not divide f.
    """
    n = f.nvars
    if j is None:
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        quot, rem = div_var_terms(f.terms, i - 1)
        form = f"x{i}"
    else:
        if not 1 <= i < j <= n:
            raise ValueError(f"need indices 1 <= i < j <= {n}, got {i}, {j}")
        quot, rem = div_linear_terms(f.terms, i - 1, j - 1)
        form = f"x{i} - x{j}"
    if rem:
        raise DivisionError(
            f"{form} does not divide exactly",
            remainder=ExtPoly(f.nvars, f.family, rem),
        )
    return ExtPoly(f.nvars, f.family, quot)


def oracle_act_gen(i, f):
    """s_i(f) as the ordered product of the generator images, term by term.

    A term ``c * x^e * y_(m_1) * ... * y_(m_k)``, with y the odd family of
    f, maps to ``c * prod_k s_i(x_k)^(e_k) * s_i(y_(m_1)) * ... *
    s_i(y_(m_k))``, multiplied out left to right with ``ExtPoly.__mul__``.
    The images: s_i swaps x_i and x_(i+1) for i < n and s_n negates x_n;
    s_i(w_i) = w_i + (x_i^2 - x_(i+1)^2) w_(i+1) and s_i fixes every other
    w_j; s_i swaps dx_i and dx_(i+1) and s_n negates dx_n.
    """
    n, fam = f.nvars, f.family

    def x(k):
        return ExtPoly.x(k, n, fam)

    def y(k):
        return ExtPoly.odd(k, n, fam)

    if i < n:
        x_img = {i: x(i + 1), i + 1: x(i)}
        if fam == OMEGA:
            y_img = {i: y(i) + (x(i) ** 2 - x(i + 1) ** 2) * y(i + 1)}
        else:
            y_img = {i: y(i + 1), i + 1: y(i)}
    else:
        x_img = {n: -x(n)}
        y_img = {} if fam == OMEGA else {n: -y(n)}
    out = ExtPoly.zero(n, fam)
    for (e, m), c in f.terms.items():
        term = ExtPoly.const(n, c, fam)
        for k, p in enumerate(e, start=1):
            term = term * x_img.get(k, x(k)) ** p
        for k in m:
            term = term * y_img.get(k, y(k))
        out = out + term
    return out


def oracle_demazure(i, f):
    """(f - s_i f) divided exactly by x_i - x_(i+1), or by x_n and halved for i = n.

    Raises DivisionError if the division leaves a remainder.  Halving
    keeps an even ``int`` an ``int``.
    """
    n = f.nvars
    diff = f - act_gen(i, f)
    if i < n:
        return exact_div_linear(diff, i, i + 1)
    quot = exact_div_linear(diff, n)
    return ExtPoly(n, f.family, {k: _half(c) for k, c in quot.terms.items()})


def _half(c):
    if type(c) is int:
        return Fraction(c, 2) if c & 1 else c >> 1
    return c / 2


def oracle_demazure_w(w, f):
    """d_w along ``some_reduced_word(w)``, rightmost letter first."""
    return demazure_word(some_reduced_word(w), f)


def oracle_nh_mul_word(a, b):
    """The product a*b, pushing each D_u through along ``some_reduced_word(u)``.

    The pieces keep their rational coefficients: nothing is cleared of
    denominators, so the oracle also checks that ``nh_mul``'s clearing and
    final division change no result.  The letters go through
    ``nilhecke._push_through``, the same code as ``nh_mul``, so this oracle
    is not independent of the push-through's invariant slide;
    ``oracle_nh_mul`` is.  ``_push_through`` keys each tail t by the
    window of t^-1, so b's windows are inverted on the way in and the
    tails on the way out.
    """
    n = a.nvars
    out = {}
    parts_b = {inverse(SignedPerm(t)).window: poly.terms for t, poly in b.parts().items()}
    for wa, mono in a.parts().items():
        word = some_reduced_word(SignedPerm(wa))
        for k, terms in _push_through(reversed(word), parts_b, n).items():
            t = inverse(SignedPerm(k)).window
            for (e, m), c in (mono * ExtPoly(n, OMEGA, terms)).terms.items():
                accumulate(out, (e, m, t), c)
    return NHElement(n, out)


def sy_elementary(k, exprs):
    """The elementary symmetric polynomial e_k of ``exprs``."""
    return sympy.Add(*(sympy.Mul(*c) for c in itertools.combinations(exprs, k)))


def oracle_J_image(j, n):
    """J(w_j) = sum_{m=j..n} e_{m-j}(x_{j+1}^2, ..., x_n^2) * d f_m.

    Here f_m = e_{n-m+1}(x_1^2, ..., x_n^2) and d f = sum_i (df/dx_i) dx_i.
    """
    xs = sy_vars(n)
    squares = [x**2 for x in xs]
    coeffs = [sympy.Integer(0)] * n
    for m in range(j, n + 1):
        weight = sy_elementary(m - j, squares[j:])
        f = sy_elementary(n - m + 1, squares)
        for i, x in enumerate(xs):
            coeffs[i] += weight * sympy.diff(f, x)
    entries = []
    for i, c in enumerate(coeffs):
        for e, q in sympy.Poly(sympy.expand(c), *xs).terms():
            entries.append((Fraction(int(q.p), int(q.q)), tuple(e), (i + 1,)))
    return ExtPoly.from_terms(n, entries, DX)


def rank(rows):
    """The rank of a rational matrix: the number of pivots of ``linalg.rref``."""
    return len(rref(rows)[1])


def span_rank(polys):
    """Dimension of the span of polynomials, as vectors over their joint support."""
    keys = sorted({k for f in polys for k in f.terms})
    return rank([[f.terms.get(k, 0) for k in keys] for f in polys])


def oracle_invariant_dimension(n, a, b):
    """Dimension of the invariant dx polynomials of x-degree a with b dx letters.

    Dense: the number of monomials minus the rank of every s_i f - f.
    """
    masks = list(itertools.combinations(range(1, n + 1), b))
    monos = [
        ExtPoly(n, DX, {(e, m): 1})
        for e in itertools.product(range(a + 1), repeat=n) if sum(e) == a
        for m in masks
    ]
    moved = [act_gen(i, f) - f for i in range(1, n + 1) for f in monos]
    return len(monos) - span_rank(moved)


def oracle_product_rank(n, a, b, fgens=None):
    """Rank of the products m * df_T of x-degree a with |T| = b, dense.

    m runs over the monomials in the invariant generators f_i, of degree
    2(n-i+1), and df_T is the product of the df_i, i in T; ``fgens``
    defaults to ``default_invariant_gens(n)``.
    """
    fgens = default_invariant_gens(n) if fgens is None else fgens
    degs = [2 * (n - i) for i in range(n)]
    fdx = [f.as_family(DX) for f in fgens]
    dfs = [exterior_d(f) for f in fgens]
    prods = []
    for T in itertools.combinations(range(n), b):
        dT = math.prod((dfs[t] for t in T), start=ExtPoly.one(n, DX))
        rest = a - sum(degs[t] - 1 for t in T)
        for expo in itertools.product(*(range(rest // d + 1) for d in degs)):
            if sum(k * d for k, d in zip(expo, degs)) == rest:
                prods.append(math.prod((f**k for f, k in zip(fdx, expo)), start=dT))
    return span_rank(prods)


def oracle_sign_rule(basis):
    """The product rule on every ordered pair of a {beta: S_beta} basis.

    S_a S_b is zero when a and b meet, else (-1)^inv(a, b) S_(a u b),
    inv(a, b) counting the pairs of a in a and b in b with a > b: 4^n
    products at rank n.
    """
    def holds(b1, b2):
        prod = basis[b1] * basis[b2]
        if set(b1) & set(b2):
            return prod.is_zero()
        return prod == basis[tuple(sorted(b1 + b2))] * (-1) ** sum(a > b for a in b1 for b in b2)

    return all(holds(b1, b2) for b1 in basis for b2 in basis)


def oracle_basis_rank(basis):
    """Rank over Q of the values of a {beta: S_beta} basis, dense."""
    return span_rank(list(basis.values()))


def oracle_some_reduced_word(w):
    """Strip the smallest right descent with ``compose`` until the identity."""
    letters = []
    while True:
        ds = right_descents(w)
        if not ds:
            break
        w = compose(w, gen(ds[0], w.n))
        letters.append(ds[0])
    assert w.is_identity()
    return tuple(reversed(letters))


def all_reduced_words(w):
    """Every reduced word of w (exponential; meant for small ranks)."""
    if w.is_identity():
        return [()]
    out = []
    for i in right_descents(w):
        for u in all_reduced_words(compose(w, gen(i, w.n))):
            out.append(u + (i,))
    return out


# -- plain-tuple model of the group -------------------------------------


def win_gen(i, n):
    """Generator windows: adjacent swap, or last-entry sign flip."""
    w = list(range(1, n + 1))
    if i < n:
        w[i - 1], w[i] = w[i], w[i - 1]
    else:
        w[-1] = -n
    return tuple(w)


def win_mul(u, v):
    """(u v)(j) = u(v(j)) on windows."""
    def app(w, j):
        t = w[abs(j) - 1]
        return t if j > 0 else -t

    return tuple(app(u, v[j]) for j in range(len(u)))


def bfs_lengths(n):
    """Every window with its distance from the identity in the Cayley graph."""
    e = tuple(range(1, n + 1))
    gens = [win_gen(i, n) for i in range(1, n + 1)]
    dist = {e: 0}
    frontier = [e]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                u = win_mul(w, g)
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def oracle_poincare(n):
    dist = bfs_lengths(n)
    coeffs = [0] * (max(dist.values()) + 1)
    for d in dist.values():
        coeffs[d] += 1
    return coeffs


def signed_cycle_type(w):
    """The sorted (length, product of signs) of the cycles of the window w."""
    seen = set()
    out = []
    for start in range(1, len(w) + 1):
        if start in seen:
            continue
        k, sign, i = 0, 1, start
        while i not in seen:
            seen.add(i)
            k += 1
            sign = sign if w[i - 1] > 0 else -sign
            i = abs(w[i - 1])
        out.append((k, sign))
    return tuple(sorted(out))


def win_reduced_word(w, dist):
    """A reduced word of the window w: strip right descents down to e."""
    n = len(w)
    letters = []
    while dist[w]:
        i = next(i for i in range(1, n + 1) if dist[win_mul(w, win_gen(i, n))] < dist[w])
        w = win_mul(w, win_gen(i, n))
        letters.append(i)
    return tuple(reversed(letters))


def oracle_nh_mul(a, b):
    """The product a*b, expanding every subword of a reduced word of u.

    Each letter of D_u, right to left, splits a piece into D_i(poly) on
    the same tail word and s_i(poly) on the word with i prepended.  Tails
    that are not reduced, or whose lengths fail to add with v, are dropped
    only at the end.
    """
    n = a.nvars
    dist = bfs_lengths(n)
    e = tuple(range(1, n + 1))
    out = {}
    for (ea, ma, wa), ca in a.terms.items():
        word = win_reduced_word(wa, dist)
        mono = ExtPoly(n, OMEGA, {(ea, ma): ca})
        for (eb, mb, wb), cb in b.terms.items():
            pieces = {(): ExtPoly(n, OMEGA, {(eb, mb): cb})}
            for i in reversed(word):
                new = {}
                for tail, poly in pieces.items():
                    for key, part in ((tail, demazure(i, poly)), ((i,) + tail, act_gen(i, poly))):
                        if part:
                            new[key] = new[key] + part if key in new else part
                pieces = new
            for tail, poly in pieces.items():
                t = e
                for i in tail:
                    t = win_mul(t, win_gen(i, n))
                tv = win_mul(t, wb)
                if dist[tv] != len(tail) + dist[wb]:
                    continue
                for (ex, m), c in (mono * poly).terms.items():
                    out[(ex, m, tv)] = out.get((ex, m, tv), 0) + c
    return NHElement(n, {k: c for k, c in out.items() if c})
