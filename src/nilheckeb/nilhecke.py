"""The extended nilHecke algebra of type B in PBW form.

Elements are sums of terms ``x^a * w^mask * D_w`` with nonzero rational
coefficients, stored as ``(xexp, omask, window) -> coefficient``, each
coefficient an ``int`` or a ``Fraction``.  This PBW rule has one home,
``_pbw_fault``: ``NHElement(n, terms)`` runs it and raises with the
first bad term, and ``pbw_well_formed`` reports it.  The operations are
closed on well-formed elements, so ``+``, ``-``, scaling, ``nh_mul``,
``NHElement.dee`` and ``dgstruct.d_apply_nh`` build their results with
``NHElement._unchecked`` and check nothing.  ``zero`` and ``from_poly``
keep the check: the rank of ``zero`` is the caller's, and an ``ExtPoly``
built directly is unchecked.  ``one``, ``x``, ``omega``, ``dee`` and
``nh_mul`` give ``int``-first coefficients, an ``int`` wherever
integral; ``NHElement(n, terms)``, ``from_poly``, ``+``, ``-`` and
scaling keep the types they are given, so an integral ``Fraction`` such
as ``Fraction(2, 1)`` can stay.

The ground truth for the multiplication is the faithful action on the
extended polynomial ring: a divided difference is pushed through a
polynomial with the operator form of the twisted Leibniz rule,

    D_i * g  =  D_i(g)  +  s_i(g) * D_i,

and pure D-words compose by the nil law, D_i * D_t = D_{s_i t} when
l(s_i t) = l(t) + 1 and zero otherwise.  Since (s_i t)^-1 = t^-1 s_i,
that is a right step on t^-1: it lengthens t^-1 exactly when i is not a
right descent of t^-1.  ``nh_mul`` pushes the letters of a reduced word
of u (``weylb.descent_walk``, largest descent first) through ``g * D_v``
one at a time, keeping the pieces keyed by the window of the inverse of
their tail, and prunes a tail at the first letter that fails to lengthen
it.  On polynomials s_i = id - alpha_i * D_i, with
alpha_i = x_i - x_{i+1} and alpha_n = 2 x_n, so a g that D_i kills is
s_i-invariant and slides past D_i unchanged, D_i * g = g * D_i: such a
piece moves on with no s_i applied.  Both rules are linear over the
rationals, so ``nh_mul`` clears each operand of denominators once, works
on ``int`` term dicts, and divides once at the end: it returns
``int``-first coefficients, also from operands that hold integral
``Fraction``s such as ``Fraction(2, 1)``.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import reduce

from . import _kernels_py as _k
from .demazure import _generator_table, _simple_root, demazure_w
from .extpoly import (OMEGA, ExtPoly, join_terms, monomial_factors, normalize_coeff,
                      parse_term, random_poly, render, split_terms)
from .report import SuiteReport
from .schur import schubert
from .weylb import (SignedPerm, _braid_relations, _descends, _inverse_window, _is_window, act_gen,
                    descent_walk, from_word, identity, is_reduced, length, random_element,
                    some_reduced_word)

__all__ = [
    "NHElement",
    "nh_mul",
    "nh_act",
    "parse_nh",
    "render_nh",
    "pbw_well_formed",
    "verify_presentation",
]


def _pbw_fault(n, terms):
    """The first break of the PBW rule by ``terms`` at rank ``n``, as
    the exception to raise, or None when there is none.

    The rule is that of ``ExtPoly.from_terms`` and ``normalize_coeff``:
    the rank is an ``int`` >= 1; each key is a tuple ``(xexp, omask,
    window)`` of tuples, with one nonnegative ``int`` exponent per
    variable, odd indices ``int``s in 1..n, strictly increasing, and a
    window of ``int``s that is a signed permutation of rank n
    (``weylb._is_window``, the rule of ``SignedPerm``); each coefficient is
    a nonzero ``int`` or ``Fraction``.  No ``bool`` or ``float`` passes.
    A coefficient of another type is a ``TypeError``, any other fault a
    ``ValueError``; either names the term.
    """
    if type(n) is not int or n < 1:
        return ValueError(f"rank {n!r} is not an int >= 1")
    for key, c in terms.items():
        if type(c) is not int and not isinstance(c, Fraction):
            return TypeError(f"term {key!r}: coefficient {c!r} is neither an int nor a Fraction")
        if not c:
            return ValueError(f"term {key!r}: zero coefficient")
        if type(key) is not tuple or len(key) != 3 or any(type(p) is not tuple for p in key):
            return ValueError(f"term {key!r} is not a tuple (xexp, omask, window) of tuples")
        e, m, win = key
        if len(e) != n or any(type(v) is not int or v < 0 for v in e):
            return ValueError(f"term {key!r}: exponents are not {n} nonnegative ints")
        if any(type(i) is not int or not 1 <= i <= n for i in m) or list(m) != sorted(set(m)):
            return ValueError(f"term {key!r}: odd mask is not increasing ints in 1..{n}")
        if not _is_window(win, n):
            return ValueError(f"term {key!r}: window is not a signed permutation of rank {n}")
    return None


def pbw_well_formed(a):
    """True when ``a`` keeps the PBW rule of ``_pbw_fault``.

    ``NHElement(n, terms)`` raises on any element this rejects, so only an
    element whose ``nvars`` or ``terms`` was replaced after construction,
    or a result of a faulty operation, can read False.
    """
    return _pbw_fault(a.nvars, a.terms) is None


class NHElement:
    """A PBW-normal-form element; treat instances as immutable.

    ``NHElement(n, terms)`` keeps ``terms`` as given, after checking it
    against the PBW rule: ``_pbw_fault`` names the first bad term, and
    the constructor raises it, a ``TypeError`` for a coefficient that is
    neither an ``int`` nor a ``Fraction``, else a ``ValueError``.
    Operations on checked elements build their results with
    ``_unchecked``, which skips the rule.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        terms = {} if terms is None else terms
        fault = _pbw_fault(nvars, terms)
        if fault is not None:
            raise fault
        self.nvars, self.terms = nvars, terms

    @classmethod
    def _unchecked(cls, nvars, terms):
        """An element of ``terms`` known to keep the PBW rule at rank ``nvars``."""
        a = object.__new__(cls)
        a.nvars, a.terms = nvars, terms
        return a

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars):
        return cls.from_poly(ExtPoly.one(nvars))

    @classmethod
    def from_poly(cls, f):
        if f.family != OMEGA:
            raise ValueError("nilHecke elements carry the w family")
        e = identity(f.nvars).window
        return cls(f.nvars, {(xe, m, e): c for (xe, m), c in f.terms.items()})

    @classmethod
    def dee(cls, w):
        """The basis operator D_w of a group element."""
        n = w.n
        return cls._unchecked(n, {((0,) * n, (), w.window): 1})

    @classmethod
    def dee_word(cls, word, n):
        """D along a generator word: D_w for reduced words, else zero."""
        if is_reduced(word, n):
            return cls.dee(from_word(word, n))
        return cls.zero(n)

    @classmethod
    def x(cls, i, n):
        return cls.from_poly(ExtPoly.x(i, n))

    @classmethod
    def omega(cls, i, n):
        return cls.from_poly(ExtPoly.odd(i, n))

    # -- structure ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def parts(self):
        """The element as {window of w: ExtPoly coefficient of D_w}."""
        return {win: ExtPoly(self.nvars, OMEGA, t) for win, t in _split(self.terms).items()}

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("rank mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NHElement.from_poly(ExtPoly.const(self.nvars, other))
        if not isinstance(other, NHElement):
            return NotImplemented
        self._check(other)
        return self._unchecked(self.nvars, _k.add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return self._unchecked(self.nvars, _k.scale_terms(self.terms, -1))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NHElement.from_poly(ExtPoly.const(self.nvars, other))
        if not isinstance(other, NHElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._unchecked(self.nvars, _k.scale_terms(self.terms, normalize_coeff(other)))
        if isinstance(other, NHElement):
            return nh_mul(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NHElement.from_poly(ExtPoly.const(self.nvars, other))
        if not isinstance(other, NHElement):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"NHElement({self.nvars}, {render_nh(self)!r})"

    def __str__(self):
        return render_nh(self)


def _split(terms):
    """The ``(xexp, omask, window)`` dict as {window: term dict of its poly}.

    It checks nothing: ``terms`` is an element's, which its constructor
    checked against the PBW rule.
    """
    parts = {}
    for (e, m, win), c in terms.items():
        parts.setdefault(win, {})[(e, m)] = c
    return parts


def _push_through(letters, pieces, n):
    """Rewrite D_u * sum(poly * D_t) as a sum of poly * D_t.

    ``letters`` is a reduced word of u, rightmost letter first, and
    ``pieces`` maps the window of t^-1 to the term dict of its poly; they
    are not mutated, and the result is keyed the same way.  Each letter
    acts by the twisted Leibniz rule and the nil law,

        D_i * poly * D_t  =  D_i(poly) * D_t  +  s_i(poly) * D_i * D_t,
        D_i * D_t  =  D_{s_i t} if l(s_i t) = l(t) + 1, else 0.

    On the key the nil law is a right step, (s_i t)^-1 = t^-1 s_i: it
    swaps the entries at i, i + 1 unless they descend (i < n), or negates
    the last entry unless it is negative (i = n).  So a tail is dropped at
    the first letter that fails to lengthen it, and s_i(poly) is needed
    only for tails that survive.  D_i(poly) is written by
    ``_kernels_py.demazure_terms`` into a dict of its own; a one-term poly
    is first tested by ``_kernels_py.demazure_kills``, from its exponents
    and mask, and the kernel runs only when D_i does not kill it.  On
    polynomials s_i = id - alpha_i * D_i, so a poly that D_i kills is
    s_i-invariant and slides past D_i unchanged: constants, symmetric
    polynomials and the twisted invariants such as w_i - x_{i+1}^2 w_{i+1}
    move to s_i t as they are, with no ``act_gen`` call.  Otherwise
    s_i(poly) comes from ``weylb.act_gen``, the one implementation of
    s_i.  A moved poly's dict is shared with the previous level, or with
    ``pieces``, so two parts landing on one tail are merged by copying
    (``add_terms``) and no dict is ever added into in place.  A tail whose
    poly cancels to zero is skipped by the next letter, and all such tails
    are dropped once, from the result.  Both rules only add and negate, so
    the ``int`` pieces that ``nh_mul`` passes in, cleared of denominators,
    stay ``int``; rational pieces work the same.
    """
    for i in letters:
        new = {}
        for k, terms in pieces.items():
            if not terms:
                continue
            if len(terms) == 1:
                ((e, m),) = terms
                d = None if _k.demazure_kills(e, m, i, n) else _k.demazure_terms(terms, i, n)
            else:
                d = _k.demazure_terms(terms, i, n)
            if d:
                prev = new.get(k)
                new[k] = d if prev is None else _k.add_terms(prev, d)
            if i < n:
                a, b = k[i - 1], k[i]
                sk = None if _descends(a, b) else k[:i - 1] + (b, a) + k[i + 1:]
            else:
                sk = None if k[-1] < 0 else k[:-1] + (-k[-1],)
            if sk is not None:
                s = act_gen(i, ExtPoly(n, OMEGA, terms)).terms if d else terms
                prev = new.get(sk)
                new[sk] = s if prev is None else _k.add_terms(prev, s)
        pieces = new
    return {k: terms for k, terms in pieces.items() if terms}


def nh_mul(a, b):
    """Product in PBW normal form.

    Each operand is cleared of denominators once
    (``_kernels_py.clear_denominators``), so the push-through and the
    products of the pieces run on ``int`` coefficients.  The push-through
    keys each tail t by t^-1, so b's windows are inverted on entry and
    each distinct tail of the result at the end.  A piece that ∂_i kills
    is s_i-invariant and slides past D_i as it is; only the others take
    s_i from ``act_gen``.  A part of ``a`` that is a bare D_u, whose
    polynomial is the constant 1 once cleared, takes the pushed pieces as
    they are, with no ``mul_terms`` by 1; the result's dict is built
    fresh, so it shares none with the operands.  The result is divided
    once by the two denominators: a coefficient is an ``int`` when
    integral, also when an operand held integral ``Fraction``s.

    Operands of unequal rank raise ``ValueError``.  Nothing else is
    checked: the operands' constructors ran the PBW rule, and the product
    of well-formed elements is well formed, so it is built unchecked.
    """
    a._check(b)
    n = a.nvars
    da, ta = _k.clear_denominators(a.terms)
    db, tb = _k.clear_denominators(b.terms)
    parts_a = _split(ta)
    parts_b = {_inverse_window(t): terms for t, terms in _split(tb).items()}
    one = {((0,) * n, ()): 1}
    by_tail = {}
    for wa, mono in parts_a.items():
        bare = mono == one
        for k, terms in _push_through(descent_walk(wa), parts_b, n).items():
            prod = terms if bare else _k.mul_terms(mono, terms)
            prev = by_tail.get(k)
            by_tail[k] = prod if prev is None else _k.add_terms(prev, prod)
    out = {(e, m, t): c for k, terms in by_tail.items() for t in (_inverse_window(k),)
           for (e, m), c in terms.items()}
    return NHElement._unchecked(n, _k.divide_terms(out, da * db))


def nh_act(a, f):
    """Act on an extended polynomial: x's and w's multiply, D's divide."""
    if f.family != OMEGA:
        raise ValueError("the algebra acts on the w family")
    if a.nvars != f.nvars:
        raise ValueError("rank mismatch")
    out = ExtPoly.zero(a.nvars)
    for win, poly in a.parts().items():
        g = demazure_w(SignedPerm(win), f)
        if g:
            out = out + poly * g
    return out


# -- text form ----------------------------------------------------------

_D_RE = re.compile(r"^D\(\s*(\d+(?:\s*,\s*\d+)*)?\s*\)$")


def render_nh(a):
    words = {win: some_reduced_word(SignedPerm(win)) for win in {k[2] for k in a.terms}}

    def sort_key(key):
        e, m, win = key
        return (len(words[win]), win, m, tuple(-v for v in e))

    def factors(e, m, win):
        out = monomial_factors(e, m, OMEGA)
        if words[win]:
            out.append("D(" + ",".join(map(str, words[win])) + ")")
        return out

    return join_terms((a.terms[k], factors(*k)) for k in sorted(a.terms, key=sort_key))


def parse_nh(text, nvars):
    """Parse a sum of terms like ``x1^2*w1*D(1,2,1)``.

    Each term is the product of its factors in the order written, so
    ``D(1)*x1`` is ``1 + x2*D(1)`` and a term may hold several ``D(...)``.
    """
    total = NHElement.zero(nvars)
    for sign, chunk in split_terms(text):
        term = NHElement.one(nvars)
        for fac in chunk.split("*"):
            fac = fac.strip()
            m = _D_RE.match(fac)
            if m:
                word = tuple(int(v) for v in m.group(1).split(",")) if m.group(1) else ()
                factor = NHElement.dee_word(word, nvars)
            else:
                coeff, xexp, odd_seq, fam = parse_term(fac, nvars)
                if fam not in (None, OMEGA):
                    raise ValueError("nilHecke terms use the w family")
                factor = NHElement.from_poly(
                    ExtPoly.from_terms(nvars, [(coeff, xexp, odd_seq)], OMEGA))
            term = nh_mul(term, factor)
        total = total + term * sign
    return total


# -- verification suite -------------------------------------------------


def _relation_pairs(n):
    """Pairs of NH elements that the presentation declares equal.

    They are D_i^2 = 0, the braid relations of ``weylb._braid_relations``,
    the passage D_i * g = d_i(g) + (g - alpha_i d_i(g)) * D_i of D_i past
    each of the 2n generators g, x_1..x_n and w_1..w_n, with d_i(g) from
    ``demazure._generator_table`` and alpha_i from ``demazure._simple_root``,
    and, for i < n, the slide of the invariant w_i - x_(i+1)^2 w_(i+1) past
    D_i.  Both sides of every relation are products computed by ``nh_mul``
    (the D along a word are multiplied one letter at a time, never built
    by ``NHElement.dee_word``), so a fault in the product shows here.
    """
    dee = lambda i: NHElement.dee(from_word((i,), n))
    along = lambda word: reduce(nh_mul, map(dee, word))
    pairs = [(f"D{i}^2 = 0", along((i, i)), NHElement.zero(n)) for i in range(1, n + 1)]
    pairs += [(f"braid {a} = {b}", along(a), along(b))
              for words in _braid_relations(n).values() for a, b in words]
    xs = [ExtPoly.x(j, n) for j in range(1, n + 1)]
    ws = [ExtPoly.odd(j, n) for j in range(1, n + 1)]
    for i in range(1, n + 1):
        root, (dxs, dws) = _simple_root(i, n), _generator_table(i, ws)
        for g, dg in zip(xs + ws, dxs + dws):
            lhs = dee(i) * NHElement.from_poly(g)
            rhs = NHElement.from_poly(dg) + NHElement.from_poly(g - root * dg) * dee(i)
            pairs.append((f"D{i} passes {render(g)}", lhs, rhs))
    for i in range(1, n):
        inv = NHElement.from_poly(ws[i - 1] - xs[i] ** 2 * ws[i])
        pairs.append((f"invariant slides past D{i}", dee(i) * inv, inv * dee(i)))
    return pairs


def _random_nh(n, rng, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        m = tuple(i for i in range(1, n + 1) if rng.random() < 0.3)
        w = random_element(n, rng)
        c = normalize_coeff(Fraction(rng.choice([c for c in range(-4, 5) if c]),
                                     rng.randint(1, 3)))
        key = (e, m, w.window)
        terms[key] = terms.get(key, 0) + c
    return NHElement(n, {k: v for k, v in terms.items() if v})


# n = 7 held 902 MB past a 120 s timeout; n >= 8 ran out of memory in a product
_MAX_SUITE_RANK = 6


def verify_presentation(n, trials=25, seed=0):
    """Element-level relations, action compatibility, faithfulness evidence,
    on random operators whose D_w come from ``weylb.random_element``;
    n > _MAX_SUITE_RANK is refused before any work."""
    if n > _MAX_SUITE_RANK:
        raise ValueError(f"the nilhecke suite's random products are capped at n = {_MAX_SUITE_RANK}")
    rep = SuiteReport(f"nilhecke(n={n})")
    rng = random.Random(seed)

    pairs = _relation_pairs(n)
    bad = [name for name, lhs, rhs in pairs if lhs != rhs]
    rep.add("presentation relations in PBW form", not bad, ", ".join(bad) or f"{len(pairs)} relations")

    def rnd_poly():
        return random_poly(n, OMEGA, max_xdeg=3, max_terms=3, rng=rng)

    def rnd_nh():
        return _random_nh(n, rng)

    def rnd_small():
        return _random_nh(n, rng, max_terms=2)

    rep.trials("relations agree under the action", trials,
               lambda f, pair: nh_act(pair[1], f) == nh_act(pair[2], f),
               rnd_poly, lambda: pairs[rng.randrange(len(pairs))])
    rep.trials("multiplication matches composed action", trials,
               lambda a, b, f: nh_act(nh_mul(a, b), f) == nh_act(a, nh_act(b, f)),
               rnd_nh, rnd_nh, rnd_poly)
    rep.trials("associativity", trials,
               lambda a, b, c: nh_mul(nh_mul(a, b), c) == nh_mul(a, nh_mul(b, c)),
               rnd_small, rnd_small, rnd_small)
    rep.trials("faithfulness on a degree window", trials,
               lambda a: None if a.is_zero() else _detects_nonzero(a),
               rnd_nh)

    return rep


def _detects_nonzero(a):
    """Act on the Schubert polynomial S_u of a shortest u in the support.

    D_u(S_u) is a nonzero constant.  D_v(S_u) vanishes when l(v) > l(u),
    by degree, and when l(v) = l(u) with v != u, by the composition law.
    So a * S_u is a nonzero multiple of the coefficient of D_u.
    """
    u = min({win for (_, _, win) in a.terms}, key=lambda win: (length(SignedPerm(win)), win))
    return bool(nh_act(a, schubert(SignedPerm(u), a.nvars)))

