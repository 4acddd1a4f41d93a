"""Term-level arithmetic kernels on sparse polynomial dicts.

A polynomial with odd generators is stored as a dict mapping
``(xexp, omask) -> coefficient`` where ``xexp`` is a tuple of nonnegative
integer exponents (one slot per even variable) and ``omask`` is a strictly
increasing tuple of 1-based odd-generator indices.  A coefficient is an
``int`` or a ``Fraction``; the kernels only add, subtract and multiply, so
they keep whatever type they are given, and an integral ``Fraction`` stays
one.  Coefficients are kept nonzero, and no function mutates its inputs.
No kernel checks its input: the rules are held where the dicts are
built, by ``ExtPoly.from_terms``, ``normalize_coeff`` and the checking
constructor ``NHElement(n, terms)``.  Every function returns
a fresh dict, except that ``accumulate`` adds one term in place.
``demazure_terms`` only adds and negates: it writes a divided difference
term by term, with no division.  ``demazure_kills`` states, from a term's
exponents and mask alone, when ``demazure_terms`` sends it to zero, so a
caller can skip the call for a one-term dict.

Every kernel is linear over the rationals, so a computation can run on
``int`` coefficients alone: ``clear_denominators`` scales a dict by the lcm
of its denominators, and ``divide_terms`` divides by it once at the end,
giving an ``int`` wherever the quotient is integral.
"""

from fractions import Fraction
from math import lcm


def odd_merge(ma, mb):
    """Concatenate two odd masks with the anticommutation sign.

    Returns ``(sign, mask)`` with ``mask`` sorted ascending, or ``None``
    if the masks share an index (the product of a generator with itself
    vanishes).
    """
    if not ma:
        return 1, mb
    if not mb:
        return 1, ma
    inv = 0
    for b in mb:
        for a in ma:
            if a == b:
                return None
            if a > b:
                inv += 1
    mask = tuple(sorted(ma + mb))
    return (1 if inv % 2 == 0 else -1), mask


def accumulate(out, key, c):
    """Add ``c`` to ``out[key]`` in place, dropping the key if it cancels."""
    v = out.get(key)
    if v is None:
        out[key] = c
    else:
        v = v + c
        if v:
            out[key] = v
        else:
            del out[key]


def add_terms(a, b):
    out = dict(a)
    for k, c in b.items():
        v = out.get(k)
        if v is None:
            out[k] = c
        else:
            v = v + c
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def scale_terms(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def clear_denominators(terms):
    """``(den, int_terms)``: ``den`` is the lcm of the denominators and
    ``int_terms`` is ``den * terms`` with every coefficient an ``int``.

    Every coefficient must be an ``int`` or a ``Fraction``, as
    ``NHElement(n, terms)`` ensures for the elements ``nh_mul`` clears;
    nothing is checked here.  An integral ``Fraction`` such as ``Fraction(2, 1)`` adds
    nothing to ``den`` and is read as an ``int``.
    """
    den = 1
    for c in terms.values():
        if type(c) is not int:
            den = lcm(den, c.denominator)
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}


def divide_terms(terms, den):
    """``terms / den`` for ``int`` coefficients: an ``int`` where ``den``
    divides, else a ``Fraction``."""
    if den == 1:
        return dict(terms)
    out = {}
    for k, c in terms.items():
        q, r = divmod(c, den)
        out[k] = Fraction(c, den) if r else q
    return out


def mul_terms(a, b):
    """Product of two term dicts over the same variable set (order matters)."""
    out = {}
    for (ea, ma), ca in a.items():
        for (eb, mb), cb in b.items():
            merged = odd_merge(ma, mb)
            if merged is None:
                continue
            sign, mask = merged
            e = tuple(p + q for p, q in zip(ea, eb))
            c = ca * cb if sign > 0 else -(ca * cb)
            k = (e, mask)
            v = out.get(k)
            if v is None:
                out[k] = c
            else:
                v = v + c
                if v:
                    out[k] = v
                else:
                    del out[k]
    return out


def demazure_kills(e, m, i, n):
    """Whether ∂_i sends the term ``x^e * w^m`` to zero (1-based ``i``).

    For ``i < n`` that is ``e_i == e_{i+1}`` with no twist, that is not
    (``i`` in ``m`` and ``i + 1`` not in ``m``); for ``i = n`` it is an even
    ``e_n``.  These are exactly the terms on which ``demazure_terms`` writes
    nothing.
    """
    if i == n:
        return not e[n - 1] & 1
    return e[i - 1] == e[i] and (i not in m or i + 1 in m)


def demazure_terms(terms, i, n):
    """The divided difference ∂_i of a w-family term dict (1-based ``i``).

    Per term ``c * x^e * w^m``, for ``i < n`` with ``a = e_i``, ``b = e_{i+1}``:

    * ``c * (x^e - x^(s_i e)) / (x_i - x_{i+1})``, the ``|a - b|`` monomials
      ``x_i^(lo+t) x_{i+1}^(hi-1-t)`` (``lo, hi`` = min, max of ``a, b``),
      with the sign of ``a - b``;
    * the twist, when ``i`` is in ``m`` and ``i + 1`` is not:
      ``s_i(w_i) = w_i + (x_i^2 - x_{i+1}^2) w_{i+1}`` leaves
      ``-c * x^(s_i e) * (x_i + x_{i+1})`` on the mask with ``i`` moved to
      ``i + 1``, which stays sorted, so no reorder sign arises.

    For ``i = n`` it is ``(id - s_n) / (2 x_n)``: ``c * x^e / x_n`` when
    ``e_n`` is odd, else nothing.
    """
    if i == n:
        s = n - 1
        return {(e[:s] + (e[s] - 1,), m): c for (e, m), c in terms.items() if e[s] & 1}
    out = {}
    get = out.get
    s, r, j = i - 1, i, i + 1
    for (e, m), c in terms.items():
        a, b = e[s], e[r]
        q = list(e)
        if a != b:
            lo, hi, d = (b, a, c) if a > b else (a, b, -c)
            for t in range(lo, hi):
                q[s] = t
                q[r] = lo + hi - 1 - t
                key = (tuple(q), m)
                v = get(key)
                if v is None:
                    out[key] = d
                else:
                    v = v + d
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        if i in m and j not in m:
            shifted = tuple(j if x == i else x for x in m)
            neg = -c
            for p, p1 in ((b + 1, a), (b, a + 1)):
                q[s] = p
                q[r] = p1
                key = (tuple(q), shifted)
                v = get(key)
                if v is None:
                    out[key] = neg
                else:
                    v = v + neg
                    if v:
                        out[key] = v
                    else:
                        del out[key]
    return out
