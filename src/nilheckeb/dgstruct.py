"""Differentials turning the odd polynomial ring into a complex.

For each N >= 1 there is a square-zero odd derivation d_N with
d_N(x_i) = 0 and d_N(w_i) = (-1)^i * h_{N-i+1}(x_1^2 .. x_i^2), where
h is the complete homogeneous symmetric polynomial (h_0 = 1, h_{<0} = 0).
It raises the N-grading (x of degree 1, w_i of degree 2(N-i)+1) by
exactly one and commutes with every divided difference, so it descends
to the operator algebra with D_w treated as even and killed by d.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .demazure import demazure
from .extpoly import DGN, OMEGA, ExtPoly, degree, normalize_coeff, random_poly
from .nilhecke import NHElement, nh_mul
from .report import SuiteReport
from .schur import homog_B

__all__ = ["Differential", "d_apply", "d_apply_nh", "verify_dg"]


class Differential:
    """The odd derivation d_N on polynomials in n variables; N and the rank
    n are ``int``s >= 1 (no ``bool``), as ranks are for ``NHElement``."""

    __slots__ = ("N", "nvars", "_images")

    def __init__(self, N, nvars):
        for name, v in (("differential index N", N), ("rank nvars", nvars)):
            if type(v) is not int or v < 1:
                raise ValueError(f"the {name} = {v!r} is not an int >= 1")
        self.N = N
        self.nvars = nvars
        self._images = tuple(homog_B(N - i + 1, i, nvars) * (-1) ** i for i in range(1, nvars + 1))

    def of_generator(self, i):
        """The image of w_i: (-1)^i h_{N-i+1} in the first i squares."""
        return self._images[i - 1]

    def grading(self):
        return DGN(self.N)

    def __repr__(self):
        return f"Differential(N={self.N}, nvars={self.nvars})"


def d_apply(dN, f):
    """Apply the odd derivation to a polynomial.

    Each term c*x^k*w_{j_1}..w_{j_r} contributes, for every position t,
    the prefix sign (-1)^(t-1) times the term with w_{j_t} replaced by
    its (even) image, the other odd factors kept in place.
    """
    if f.family != OMEGA:
        raise ValueError("the differential acts on the w family")
    if f.nvars != dN.nvars:
        raise ValueError("variable-count mismatch")
    n = f.nvars
    out = ExtPoly.zero(n)
    for (xe, mask), c in f.terms.items():
        for t, j in enumerate(mask):
            rest = mask[:t] + mask[t + 1 :]
            sign = -1 if t % 2 else 1
            piece = ExtPoly(n, OMEGA, {(xe, rest): c * sign})
            out = out + piece * dN.of_generator(j)
    return out


def d_apply_nh(dN, a):
    """Apply the differential to an operator-algebra element.

    The operator letters are even and are killed by d, so d acts on the
    polynomial coefficient of each normal-form term.  ``d_apply`` returns
    well-formed terms and distinct windows keep them apart, so the result
    keeps the PBW rule and is built unchecked.
    """
    if not isinstance(a, NHElement):
        raise TypeError("expected an operator-algebra element")
    out = {}
    for win, poly in a.parts().items():
        for (xe, mask), c in d_apply(dN, poly).terms.items():
            out[(xe, mask, win)] = c
    return NHElement._unchecked(a.nvars, out)


def verify_dg(n, N, trials=25, seed=0):
    rep = SuiteReport(f"dg(n={n}, N={N})")
    rng = random.Random(seed)
    dN = Differential(N, n)

    x1 = ExtPoly.x(1, n)
    w1 = ExtPoly.odd(1, n)
    rep.add("x generators are killed", d_apply(dN, x1**5).is_zero())
    want = -(x1 ** (2 * N))
    rep.add("image of w1 is minus the power", d_apply(dN, w1) == want)

    if n >= 2:
        w2 = ExtPoly.odd(2, n)
        got = d_apply(dN, w1 * w2)
        want = -(x1 ** (2 * N)) * w2 - homog_B(N - 1, 2, n) * w1
        rep.add("two-letter image with prefix sign", got == want)

    def rnd():
        return random_poly(n, OMEGA, max_xdeg=3, max_terms=4, rng=rng)

    def small():
        return random_poly(n, OMEGA, max_xdeg=2, max_terms=3, rng=rng)

    rep.trials("square of the differential vanishes", trials,
               lambda f: d_apply(dN, d_apply(dN, f)).is_zero(), rnd)

    grading = dN.grading()
    ok = True
    checked = 0
    for _ in range(trials * 2):
        f = rnd()
        for d, comp in f.homogeneous_components(grading).items():
            img = d_apply(dN, comp)
            if img.is_zero():
                continue
            checked += 1
            ok = ok and degree(img, grading) == d + 1
    rep.add(f"raises the N-grading by one ({checked} components)", ok and checked > 0)

    def leibniz(f, g):
        """d(pg) = d(p)g + (-1)^|p| p d(g) for the even and the odd part p of f."""
        dg = d_apply(dN, g)
        for parity in (0, 1):
            p = ExtPoly(n, OMEGA, {k: c for k, c in f.terms.items() if len(k[1]) % 2 == parity})
            if p and d_apply(dN, p * g) != d_apply(dN, p) * g + p * dg * (-1) ** parity:
                return False
        return True

    rep.trials("odd derivation rule", trials, leibniz, small, small)

    def commutes(f):
        df = d_apply(dN, f)
        return all(demazure(i, df) == d_apply(dN, demazure(i, f)) for i in range(1, n + 1))

    rep.trials("commutes with every divided difference", trials, commutes, rnd)

    if n >= 2:
        lhs = demazure(1, d_apply(dN, w1))
        rhs = d_apply(dN, demazure(1, w1))
        rep.add("generator instance of the commutation", lhs == rhs)

    def extends(a, b):
        sign = -1 if _omega_parity_nh(a) else 1
        dab = d_apply_nh(dN, nh_mul(a, b))
        return (dab == d_apply_nh(dN, a) * b + a * d_apply_nh(dN, b) * sign
                and d_apply_nh(dN, dab).is_zero())

    rep.trials("extends to the operator algebra", trials, extends,
               lambda: _random_parity_nh(n, rng), lambda: _random_parity_nh(n, rng))

    return rep


def _random_parity_nh(n, rng):
    """A small operator element whose terms share an odd parity."""
    parity = rng.randrange(2)
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        xe = tuple(rng.randrange(3) for _ in range(n))
        pool = list(range(1, n + 1))
        rng.shuffle(pool)
        size = parity + 2 * rng.randrange(0, (n - parity) // 2 + 1)
        mask = tuple(sorted(pool[:size]))
        w = tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(3)))
        coeff = normalize_coeff(Fraction(rng.randrange(1, 5), rng.randrange(1, 3)))
        key = (xe, mask, w)
        terms[key] = terms.get(key, 0) + coeff
    out = NHElement.zero(n)
    for (xe, mask, w), c in terms.items():
        mono = NHElement.from_poly(ExtPoly(n, OMEGA, {(xe, mask): c}))
        out = out + nh_mul(mono, NHElement.dee_word(w, n))
    return out


def _omega_parity_nh(a):
    """0/1 parity when all terms share it, else None."""
    seen = {len(mask) % 2 for (_, mask, _) in a.terms}
    if not seen:
        return 0
    return seen.pop() if len(seen) == 1 else None
