"""Extended polynomial rings with exact rational coefficients.

An extended polynomial lives in Q[x_1..x_n] tensored with an exterior
algebra on n odd generators.  Two odd families are supported and never
mixed inside one element:

* ``OMEGA`` -- generators rendered ``w1..wn`` (the extended ring the
  divided-difference calculus acts on);
* ``DX`` -- generators rendered ``dx1..dxn`` (one-forms).

Terms are stored sparsely as ``(xexp, omask) -> coefficient`` with
``xexp`` a tuple of n exponents and ``omask`` a strictly increasing tuple
of 1-based odd indices; reordering signs are absorbed at construction.
A coefficient is an ``int`` or a ``Fraction``.  Where a coefficient is
made, it is an ``int`` when integral: the constructors pass their
coefficients through ``normalize_coeff``, ``nilhecke.nh_mul`` divides
once at the end, and the divided differences map integral polynomials to
integral ones, so a denominator appears only where the input or a solve
puts one.  ``+``, ``-`` and scaling keep the types they are given, so
``ExtPoly.const(2, Fraction(1, 2)) * 2`` and ``f + f`` keep a
``Fraction(1, 1)``; it equals ``1``.  The plain constructor
``ExtPoly(n, family, terms)`` checks the family and the variable count,
not the terms: the results of operations are built with it, and
``from_terms`` is the checked way in.

A grading is a plain function ``(xexp, omask, family) -> degree`` of one
term: ``XDEG`` (x_i counts 1, w_i counts -2i, dx_i counts 1), ``BIDEG``
(x-degree and number of odd letters) and ``DGN(N)`` (x_i counts 1, w_i
counts 2(N - i) + 1; w family only).  ``degree`` and
``ExtPoly.homogeneous_components`` call it on each term.
"""

from __future__ import annotations

import json
import numbers
import random
import re
from fractions import Fraction

from . import _kernels_py as _k

OMEGA = "w"
DX = "dx"

__all__ = [
    "OMEGA",
    "DX",
    "ExtPoly",
    "normalize_coeff",
    "XDEG",
    "BIDEG",
    "DGN",
    "degree",
    "parse",
    "render",
    "to_json",
    "from_json",
    "random_poly",
]


def normalize_coeff(c):
    """A coefficient as an ``int`` when integral, else as a ``Fraction``.

    Takes integers, rationals and their text (``"3"``, ``"-1/2"``).  A
    float or a bool raises TypeError: neither is read as a coefficient.
    Text with a zero denominator raises ValueError.
    """
    if type(c) is int:
        return c
    if isinstance(c, str):
        try:
            c = Fraction(c)
        except ZeroDivisionError:
            raise ValueError(f"coefficient {c!r} has a zero denominator") from None
    elif isinstance(c, bool) or not isinstance(c, numbers.Rational):
        raise TypeError(f"coefficient {c!r} is not an integer or a fraction")
    if c.denominator == 1:
        return int(c.numerator)
    return Fraction(c)


def _normalize_mask(seq):
    """Sort an odd-index sequence, returning (sign, tuple) or None on repeat;
    the letters are merged in one at a time by ``_kernels_py.odd_merge``."""
    sign, mask = 1, ()
    for i in seq:
        merged = _k.odd_merge(mask, (i,))
        if merged is None:
            return None
        s, mask = merged
        sign *= s
    return sign, mask


class ExtPoly:
    """Sparse extended polynomial.  Treat instances as immutable."""

    __slots__ = ("nvars", "family", "terms")

    def __init__(self, nvars, family=OMEGA, terms=None):
        if family not in (OMEGA, DX):
            raise ValueError(f"unknown odd family {family!r}")
        if nvars < 1:
            raise ValueError("nvars must be positive")
        self.nvars = nvars
        self.family = family
        self.terms = terms if terms is not None else {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars, family=OMEGA):
        return cls(nvars, family, {})

    @classmethod
    def const(cls, nvars, c, family=OMEGA):
        c = normalize_coeff(c)
        if not c:
            return cls.zero(nvars, family)
        return cls(nvars, family, {((0,) * nvars, ()): c})

    @classmethod
    def one(cls, nvars, family=OMEGA):
        return cls.const(nvars, 1, family)

    @classmethod
    def x(cls, i, nvars, family=OMEGA):
        """The even variable x_i (1-based)."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        e = [0] * nvars
        e[i - 1] = 1
        return cls(nvars, family, {(tuple(e), ()): 1})

    @classmethod
    def odd(cls, i, nvars, family=OMEGA):
        """The odd generator (w_i or dx_i, by family), 1-based."""
        if not 1 <= i <= nvars:
            raise ValueError(f"odd index {i} out of range 1..{nvars}")
        return cls(nvars, family, {((0,) * nvars, (i,)): 1})

    @classmethod
    def from_terms(cls, nvars, entries, family=OMEGA):
        """Build from ``(coeff, xexp, odd_seq)`` triples; odd order may be free.

        A variable count, exponent or odd index that is not an ``int`` in
        range raises ValueError; a repeated odd index makes its term zero.
        """
        if type(nvars) is not int:
            raise ValueError(f"bad variable count {nvars!r}")
        acc = {}
        for coeff, xexp, odd_seq in entries:
            c = normalize_coeff(coeff)
            xexp = tuple(xexp)
            if len(xexp) != nvars or any(type(e) is not int or e < 0 for e in xexp):
                raise ValueError(f"bad exponent tuple {xexp!r}")
            if any(type(i) is not int or not 1 <= i <= nvars for i in odd_seq):
                raise ValueError(f"bad odd index sequence {odd_seq!r}")
            norm = _normalize_mask(odd_seq)
            if norm is None or not c:
                continue
            sign, mask = norm
            key = (xexp, mask)
            c = c if sign > 0 else -c
            v = acc.get(key)
            acc[key] = c if v is None else normalize_coeff(v + c)
        return cls(nvars, family, {k: v for k, v in acc.items() if v})

    # -- basic queries --------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coeff_of(self, xexp, omask=()):
        return self.terms.get((tuple(xexp), tuple(omask)), 0)

    def constant_term(self):
        return self.coeff_of((0,) * self.nvars)

    def is_even(self):
        """True when no odd generator appears."""
        return all(not m for (_, m) in self.terms)

    def as_family(self, family):
        """Reinterpret in the other odd family; only for even elements."""
        if family == self.family:
            return self
        if not self.is_even():
            raise ValueError("cannot convert an element with odd generators")
        return ExtPoly(self.nvars, family, dict(self.terms))

    # -- arithmetic -----------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars or self.family != other.family:
            raise ValueError("operands live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExtPoly.const(self.nvars, other, self.family)
        if not isinstance(other, ExtPoly):
            return NotImplemented
        self._check(other)
        return ExtPoly(self.nvars, self.family, _k.add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExtPoly.const(self.nvars, other, self.family)
        if not isinstance(other, ExtPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return ExtPoly(self.nvars, self.family, _k.scale_terms(self.terms, -1))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExtPoly(self.nvars, self.family,
                           _k.scale_terms(self.terms, normalize_coeff(other)))
        if not isinstance(other, ExtPoly):
            return NotImplemented
        self._check(other)
        return ExtPoly(self.nvars, self.family, _k.mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = ExtPoly.one(self.nvars, self.family)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExtPoly.const(self.nvars, other, self.family)
        if not isinstance(other, ExtPoly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.family == other.family
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return f"ExtPoly({self.nvars}, {render(self)!r})"

    def __str__(self):
        return render(self)

    # -- grading helpers ------------------------------------------------

    def homogeneous_components(self, grading):
        """Split into homogeneous pieces: dict mapping degree -> ExtPoly."""
        parts = {}
        for key, c in self.terms.items():
            parts.setdefault(grading(*key, self.family), {})[key] = c
        return {d: ExtPoly(self.nvars, self.family, t) for d, t in sorted(parts.items())}


# -- gradings -----------------------------------------------------------


def XDEG(xexp, mask, family):
    """x-degree: x_i counts 1, w_i counts -2i and dx_i counts 1."""
    if family == OMEGA:
        return sum(xexp) - 2 * sum(mask)
    return sum(xexp) + len(mask)


def BIDEG(xexp, mask, family):
    """The pair (x-degree, number of odd letters)."""
    return sum(xexp), len(mask)


def DGN(N):
    """The N-grading of the w family: x_i counts 1 and w_i counts 2(N - i) + 1."""
    def dgn(xexp, mask, family):
        if family != OMEGA:
            raise ValueError("DGN grading applies to the w family only")
        return sum(xexp) + sum(2 * (N - i) + 1 for i in mask)
    return dgn


def degree(f, grading):
    """Common degree of all terms, or None when inhomogeneous (or zero)."""
    degs = {grading(e, m, f.family) for e, m in f.terms}
    if len(degs) != 1:
        return None
    return degs.pop()


# -- text form ----------------------------------------------------------

_FACTOR_RE = re.compile(r"^(?:(\d+(?:/\d+)?)|x(\d+)(?:\^(\d+))?|w(\d+)|dx(\d+))$")


def monomial_factors(xexp, mask, family):
    """The factors ``x_i`` / ``x_i^e`` and odd generators of one monomial."""
    factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(xexp, start=1) if e]
    factors.extend(f"{family}{i}" for i in mask)
    return factors


def join_terms(pieces):
    """Render ``(coeff, factors)`` pairs as a signed sum ``a + 2*b - c``; ``0`` if none."""
    out = []
    for c, factors in pieces:
        mag = abs(c)
        body = "*".join(factors if mag == 1 and factors else [str(mag), *factors])
        if out:
            out.append(("- " if c < 0 else "+ ") + body)
        else:
            out.append(("-" if c < 0 else "") + body)
    return " ".join(out) or "0"


def _term_sort_key(key):
    xexp, mask = key
    return (mask, tuple(-e for e in xexp))


def render(f):
    """Canonical text form; inverse of parse()."""
    keys = sorted(f.terms, key=_term_sort_key)
    return join_terms((f.terms[k], monomial_factors(*k, f.family)) for k in keys)


def _split_signs(text):
    """``text`` split at the signs outside parentheses, as
    ``[term, sign, term, ..., term]``."""
    parts, depth, start = [], 0, 0
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth <= 0:
            parts += [text[start:k], ch]
            start = k + 1
    parts.append(text[start:])
    return parts


def split_terms(text):
    """Split a signed sum ``['-'] term (('+' | '-') term)*`` into terms.

    Returns ``(sign, term text)`` pairs.  A sign inside parentheses, as in
    ``D(-1)``, belongs to its term and is left for the term's parser to
    reject.  Empty input, a lone sign, a doubled sign and a trailing sign
    raise ValueError naming what was expected and what was found instead.
    """
    parts = _split_signs(text)
    sign, after = 1, None
    if not parts[0].strip() and parts[1:2] == ["-"]:
        sign, after = -1, "-"
        parts = parts[2:]
    out = []
    for k in range(0, len(parts), 2):
        body = parts[k].strip()
        if not body:
            found = repr(parts[k + 1]) if k + 1 < len(parts) else "end of input"
            where = f" after {after!r}" if after else ""
            raise ValueError(f"expected a term{where}, found {found}")
        out.append((sign, body))
        if k + 1 < len(parts):
            after = parts[k + 1]
            sign = 1 if after == "+" else -1
    return out


def parse_term(chunk, nvars):
    """Parse one product chunk (no sign); returns (coeff, xexp, odd_seq, family).

    family is None when no odd generator occurs in the chunk.
    """
    coeff = 1
    xexp = [0] * nvars
    odd_seq = []
    family = None
    chunk = chunk.strip()
    if not chunk:
        raise ValueError("empty term")
    for factor in chunk.split("*"):
        factor = factor.strip()
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"cannot parse factor {factor!r}")
        rat, xi, xe, wi, dxi = m.groups()
        if rat is not None:
            coeff *= normalize_coeff(rat)
        elif xi is not None:
            i = int(xi)
            if not 1 <= i <= nvars:
                raise ValueError(f"variable x{i} out of range 1..{nvars}")
            xexp[i - 1] += int(xe) if xe else 1
        else:
            fam = OMEGA if wi is not None else DX
            i = int(wi if wi is not None else dxi)
            if not 1 <= i <= nvars:
                raise ValueError(f"odd index {i} out of range 1..{nvars}")
            if family is None:
                family = fam
            elif family != fam:
                raise ValueError("mixed odd families in one term")
            odd_seq.append(i)
    return normalize_coeff(coeff), tuple(xexp), odd_seq, family


def parse(text, nvars, family=None):
    """Parse the canonical text form.

    The odd family is inferred from the generators present; ``family``
    only disambiguates purely even input (default OMEGA).
    """
    entries = []
    seen_family = None
    for sign, chunk in split_terms(text):
        coeff, xexp, odd_seq, fam = parse_term(chunk, nvars)
        if fam is not None:
            if seen_family is None:
                seen_family = fam
            elif seen_family != fam:
                raise ValueError("mixed odd families")
        entries.append((sign * coeff, xexp, odd_seq))
    fam = seen_family or family or OMEGA
    if family is not None and seen_family is not None and family != seen_family:
        raise ValueError(f"expected family {family!r}, found {seen_family!r}")
    return ExtPoly.from_terms(nvars, entries, fam)


# -- JSON form ----------------------------------------------------------


def to_json(f):
    terms = []
    for key in sorted(f.terms, key=_term_sort_key):
        c = f.terms[key]
        terms.append({"coeff": str(c), "x": list(key[0]), "odd": list(key[1])})
    return {"nvars": f.nvars, "odd": f.family, "terms": terms}


def from_json(obj):
    if isinstance(obj, str):
        obj = json.loads(obj)
    entries = [(t["coeff"], tuple(t["x"]), tuple(t["odd"])) for t in obj["terms"]]
    return ExtPoly.from_terms(obj["nvars"], entries, obj["odd"])


# -- randomized inputs --------------------------------------------------


def random_poly(nvars, family=OMEGA, max_xdeg=3, max_terms=5, seed=0, rng=None):
    """Deterministic random element for property checks.

    Coefficients are small nonzero rationals; at most ``max_terms`` terms
    (fewer if drawn terms collide).
    """
    r = rng if rng is not None else random.Random(seed)
    entries = []
    for _ in range(r.randint(1, max_terms)):
        xexp = tuple(r.randint(0, max_xdeg) for _ in range(nvars))
        mask = [i for i in range(1, nvars + 1) if r.random() < 0.4]
        num = r.choice([c for c in range(-6, 7) if c])
        den = r.randint(1, 4)
        entries.append((Fraction(num, den), xexp, tuple(mask)))
    return ExtPoly.from_terms(nvars, entries, family)
