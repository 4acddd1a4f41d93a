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

``demazure`` is the one-step operator; the chains ``demazure_w`` and
``demazure_word`` check their input once, step the term dict through the
kernel and wrap the result in one ``ExtPoly``.
"""

from __future__ import annotations

import random

from . import _kernels_py as _k
from .extpoly import OMEGA, XDEG, ExtPoly, degree, random_poly
from .report import SuiteReport
from .weylb import act_gen, compose, descent_walk, from_word, length

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


def verify_nil_relations(n, trials=25, seed=0):
    """Check the operator table, nil/braid relations, and twisted Leibniz."""
    rep = SuiteReport(f"demazure(n={n})")
    rng = random.Random(seed)

    ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            got = demazure(i, ExtPoly.x(j, n))
            if i < n:
                want = ExtPoly.const(n, 1 if j == i else (-1 if j == i + 1 else 0))
            else:
                want = ExtPoly.const(n, 1 if j == n else 0)
            ok = ok and got == want
    rep.add("values on even variables", ok)

    ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            got = demazure(i, ExtPoly.odd(j, n))
            if i < n and j == i:
                want = -(ExtPoly.x(i, n) + ExtPoly.x(i + 1, n)) * ExtPoly.odd(i + 1, n)
            else:
                want = ExtPoly.zero(n)
            ok = ok and got == want
        ok = ok and demazure(i, ExtPoly.one(n)).is_zero()
    rep.add("values on odd generators", ok)

    def rnd():
        return random_poly(n, OMEGA, max_xdeg=3, max_terms=4, rng=rng)

    rep.trials("squares vanish", trials,
               lambda f: all(demazure(i, demazure(i, f)).is_zero() for i in range(1, n + 1)),
               rnd)
    rep.trials("distant operators commute", trials,
               lambda f: all(demazure_word((i, j), f) == demazure_word((j, i), f)
                             for i in range(1, n) for j in range(i + 2, n + 1)),
               rnd)
    rep.trials("adjacent braid", trials,
               lambda f: all(demazure_word((i, i + 1, i), f) == demazure_word((i + 1, i, i + 1), f)
                             for i in range(1, n - 1)),
               rnd)
    if n >= 2:
        rep.trials("length-4 braid with the sign operator", trials,
                   lambda f: demazure_word((n, n - 1, n, n - 1), f)
                   == demazure_word((n - 1, n, n - 1, n), f),
                   rnd)
    rep.trials("twisted Leibniz rule", trials,
               lambda f, g: all(demazure(i, f * g)
                                == demazure(i, f) * g + act_gen(i, f) * demazure(i, g)
                                for i in range(1, n + 1)),
               rnd, rnd)

    def form(i):
        return ExtPoly.x(i, n) - ExtPoly.x(i + 1, n) if i < n else 2 * ExtPoly.x(n, n)

    rep.trials("s_i = id - form * op_i", trials,
               lambda f: all(act_gen(i, f) == f - form(i) * demazure(i, f)
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
