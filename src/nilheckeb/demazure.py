"""Divided-difference (Demazure) operators on extended polynomials.

For i < n the operator is (id - s_i)/(x_i - x_{i+1}); for the sign
generator it is (id - s_n)/(2 x_n).  Both act on the twisted extended
ring; the division is exact and raises DivisionError if not, so every
application doubles as a consistency assertion.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .extpoly import OMEGA, XDEG, ExtPoly, LinearForm, degree, exact_div_linear, random_poly
from .report import SuiteReport
from .weylb import (
    act_gen,
    compose,
    from_word,
    length,
    some_reduced_word,
)

__all__ = ["demazure", "demazure_word", "demazure_w", "verify_nil_relations"]

_HALF = Fraction(1, 2)


def demazure(i, f):
    """Apply the i-th divided difference (1-based, i = n is the sign one)."""
    n = f.nvars
    if not 1 <= i <= n:
        raise ValueError(f"operator index {i} out of range 1..{n}")
    diff = f - act_gen(i, f)
    if i < n:
        return exact_div_linear(diff, LinearForm.diff(i, i + 1))
    return exact_div_linear(diff, LinearForm.var(n)) * _HALF


def demazure_word(word, f):
    """Compose operators along a word, rightmost letter applied first."""
    for i in reversed(word):
        f = demazure(i, f)
    return f


def demazure_w(w, f):
    """The operator of a group element, via any reduced word."""
    return demazure_word(some_reduced_word(w), f)


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

    ok = True
    for _ in range(trials):
        f = rnd()
        for i in range(1, n + 1):
            ok = ok and demazure(i, demazure(i, f)).is_zero()
    rep.add("squares vanish", ok)

    ok = True
    for _ in range(trials):
        f = rnd()
        for i in range(1, n):
            for j in range(i + 2, n + 1):
                ok = ok and demazure_word((i, j), f) == demazure_word((j, i), f)
    rep.add("distant operators commute", ok)

    ok = True
    for _ in range(trials):
        f = rnd()
        for i in range(1, n - 1):
            ok = ok and demazure_word((i, i + 1, i), f) == demazure_word((i + 1, i, i + 1), f)
    rep.add("adjacent braid", ok)

    if n >= 2:
        ok = True
        for _ in range(trials):
            f = rnd()
            ok = ok and demazure_word((n, n - 1, n, n - 1), f) == demazure_word(
                (n - 1, n, n - 1, n), f
            )
        rep.add("length-4 braid with the sign operator", ok)

    ok = True
    for _ in range(trials):
        f, g = rnd(), rnd()
        for i in range(1, n + 1):
            lhs = demazure(i, f * g)
            rhs = demazure(i, f) * g + act_gen(i, f) * demazure(i, g)
            ok = ok and lhs == rhs
    rep.add("twisted Leibniz rule", ok)

    ok = True
    for _ in range(trials):
        f = rnd()
        for i in range(1, n + 1):
            if i < n:
                form = ExtPoly.x(i, n) - ExtPoly.x(i + 1, n)
            else:
                form = 2 * ExtPoly.x(n, n)
            ok = ok and act_gen(i, f) == f - form * demazure(i, f)
    rep.add("s_i = id - form * op_i", ok)

    ok = True
    for _ in range(trials):
        f = rnd()
        for i in range(1, n + 1):
            g = demazure(i, f)
            ok = ok and act_gen(i, g) == g
    rep.add("images are s_i-invariant", ok)

    ok = True
    for _ in range(trials):
        f = rnd()
        i = rng.randint(1, n)
        for d, comp in f.homogeneous_components(XDEG).items():
            img = demazure(i, comp)
            if img:
                ok = ok and degree(img, XDEG) == d - 1
    rep.add("degree drops by one", ok)

    ok = True
    for _ in range(trials):
        f = rnd()
        wu = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3)))
        wv = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3)))
        u, v = from_word(wu, n), from_word(wv, n)
        du = demazure_w(u, demazure_w(v, f))
        uv = compose(u, v)
        if length(uv) == length(u) + length(v):
            ok = ok and du == demazure_w(uv, f)
        else:
            ok = ok and du.is_zero()
    rep.add("composition law for reduced products", ok)

    return rep
