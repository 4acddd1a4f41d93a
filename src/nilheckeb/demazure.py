"""Divided-difference (Demazure) operators on extended polynomials.

For i < n the operator is (id - s_i)/(x_i - x_{i+1}); for the sign
generator it is (id - s_n)/(2 x_n).  Both act on the twisted extended
ring (the w family).  ``_kernels_py.demazure_terms`` writes the quotient
term by term, so nothing is divided and nothing is halved: integral
polynomials go to integral ones and an ``int`` coefficient stays an
``int``.  The identity f - s_i f = alpha_i * d_i f is not checked on
each call; the suite's "s_i = id - form * op_i" trials check it, and
the tests compare every operator with the two-step definition
(``tests/reference.oracle_demazure``).

The rest of the algebra's presentation on polynomials has one home
each: ``_simple_root`` gives alpha_i, and ``_generator_table`` the values
of d_i on x_1..x_n and on a column of odd generators, the w_j or their
images under ``solomon.build_J``.  ``verify_nil_relations``,
``nilhecke._relation_pairs`` and ``solomon._follows_generator_table``
read them, and the braid words from ``weylb._braid_relations``.

``demazure`` is the one-step operator; the chains ``demazure_w`` and
``demazure_word`` check their input once, step the term dict through the
kernel and wrap the result in one ``ExtPoly``.
"""

from __future__ import annotations

import random

from . import _kernels_py as _k
from .extpoly import OMEGA, XDEG, ExtPoly, degree, random_poly
from .report import SuiteReport
from .weylb import _braid_relations, act_gen, compose, descent_walk, from_word, length

__all__ = ["demazure", "demazure_word", "demazure_w", "verify_nil_relations"]


def _checked(f, letters=()):
    """The term dict of f, once f is in the w family and every letter is in range."""
    if f.family != OMEGA:
        raise ValueError("divided differences act on the w family")
    n = f.nvars
    for i in letters:
        if not 1 <= i <= n:
            raise ValueError(f"operator index {i} out of range 1..{n}")
    return f.terms


def demazure(i, f):
    """Apply the i-th divided difference (1-based, i = n is the sign one)."""
    return ExtPoly(f.nvars, OMEGA, _k.demazure_terms(_checked(f, (i,)), i, f.nvars))


def demazure_word(word, f):
    """Compose operators along a word, rightmost letter first; every letter is checked at entry."""
    terms, n = _checked(f, reversed(word)), f.nvars
    for i in reversed(word):
        terms = _k.demazure_terms(terms, i, n)
    return ExtPoly(n, OMEGA, terms)


def demazure_w(w, f):
    """The operator d_w of a group element, along the largest-descent-first word.

    d_w does not depend on the reduced word, but its cost does: every
    intermediate d_u f is a polynomial of its own, and on the staircase
    x^delta it is the Schubert polynomial of an element on the path, of 1
    to 1,144 terms at n = 5.  Stripping the largest right descent first
    (``weylb.descent_walk``) suits the chains of w_0 that ``schur_ext``
    runs: d_(w_0) x^delta at n = 5 feeds the kernel 435 terms in all,
    where stripping the smallest descent first feeds 2,809.  It reads the
    word off the window as it goes.  ``schur.schubert`` walks its own
    chain in ascending runs, which suit most other elements better.  The
    rank and family are checked at entry, whatever the word; the term
    dict is stepped until it is empty, and one ``ExtPoly`` wraps it.
    """
    if w.n != f.nvars:
        raise ValueError("rank mismatch")
    terms, n = _checked(f), f.nvars
    for i in descent_walk(w.window):
        if not terms:
            break
        terms = _k.demazure_terms(terms, i, n)
    return ExtPoly(n, OMEGA, terms)


def _simple_root(i, n, family=OMEGA):
    """alpha_i = x_i - x_(i+1) for i < n and alpha_n = 2 x_n: on polynomials
    s_i = id - alpha_i * d_i."""
    x = lambda j: ExtPoly.x(j, n, family)
    return x(i) - x(i + 1) if i < n else 2 * x(n)


def _generator_table(i, column):
    """The values of d_i on the generators, as two lists: on x_1..x_n, and
    on the odd column theta_1..theta_n, the w_j or their images under J.

    d_i x_i = 1 and d_i x_(i+1) = -1 for i < n, d_n x_n = 1, and
    d_i theta_i = -(x_i + x_(i+1)) theta_(i+1) for i < n; every other
    generator goes to 0.  The x's are taken in the column's family.
    """
    n, family = len(column), column[0].family
    x = lambda j: ExtPoly.x(j, n, family)
    evens = [ExtPoly.const(n, (j == i) - (j == i + 1), family) for j in range(1, n + 1)]
    odds = [-(x(i) + x(i + 1)) * column[i] if j == i < n else ExtPoly.zero(n, family)
            for j in range(1, n + 1)]
    return evens, odds


def verify_nil_relations(n, trials=25, seed=0):
    """Check the operator table, nil/braid relations, and twisted Leibniz."""
    rep = SuiteReport(f"demazure(n={n})")
    rng = random.Random(seed)

    odd = [ExtPoly.odd(j, n) for j in range(1, n + 1)]
    tables = [(i, *_generator_table(i, odd)) for i in range(1, n + 1)]
    rep.add("values on even variables",
            all(demazure(i, ExtPoly.x(j, n)) == v
                for i, evens, _ in tables for j, v in enumerate(evens, start=1)))
    rep.add("values on odd generators",
            all(demazure(i, g) == v for i, _, odds in tables for g, v in zip(odd, odds))
            and not any(demazure(i, ExtPoly.one(n)) for i in range(1, n + 1)))

    def rnd():
        return random_poly(n, OMEGA, max_xdeg=3, max_terms=4, rng=rng)

    rep.trials("squares vanish", trials,
               lambda f: all(demazure(i, demazure(i, f)).is_zero() for i in range(1, n + 1)),
               rnd)
    names = {"distant": "distant operators commute", "adjacent": "adjacent braid",
             "length-4": "length-4 braid with the sign operator"}
    for kind, pairs in _braid_relations(n).items():
        rep.trials(names[kind], trials,
                   lambda f, pairs=pairs: all(demazure_word(a, f) == demazure_word(b, f)
                                              for a, b in pairs),
                   rnd)
    rep.trials("twisted Leibniz rule", trials,
               lambda f, g: all(demazure(i, f * g)
                                == demazure(i, f) * g + act_gen(i, f) * demazure(i, g)
                                for i in range(1, n + 1)),
               rnd, rnd)

    rep.trials("s_i = id - form * op_i", trials,
               lambda f: all(act_gen(i, f) == f - _simple_root(i, n) * demazure(i, f)
                             for i in range(1, n + 1)),
               rnd)
    rep.trials("images are s_i-invariant", trials,
               lambda f: all(act_gen(i, g) == g
                             for i in range(1, n + 1) for g in (demazure(i, f),)),
               rnd)
    rep.trials("degree drops by one", trials,
               lambda f, i: all(not img or degree(img, XDEG) == d - 1
                                for d, comp in f.homogeneous_components(XDEG).items()
                                for img in (demazure(i, comp),)),
               rnd, lambda: rng.randint(1, n))

    def rnd_elem():
        return from_word(tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3))), n)

    def composes(f, u, v):
        du = demazure_w(u, demazure_w(v, f))
        uv = compose(u, v)
        if length(uv) == length(u) + length(v):
            return du == demazure_w(uv, f)
        return du.is_zero()

    rep.trials("composition law for reduced products", trials, composes, rnd, rnd_elem, rnd_elem)

    return rep
