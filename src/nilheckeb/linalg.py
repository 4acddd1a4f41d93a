"""Exact linear algebra over the rationals (dense, small systems only)."""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["rref", "solve"]


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns).

    Each row is scaled to integers and eliminated without fractions, kept
    primitive (divided by the gcd of its entries); each pivot row is
    divided by its pivot once, at the end.  The reduced row echelon form
    is unique, so the rows are those of elimination over the rationals,
    as ``Fraction`` entries.
    """
    m = [_integer_row(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = _primitive([p * a - f * b for a, b in zip(m[i], top)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    out = [[Fraction(a, m[i][c]) for a in m[i]] for i, c in enumerate(pivots)]
    return out + [[Fraction(0)] * ncols for _ in range(len(m) - r)], pivots


def _integer_row(row):
    """The row times the least common denominator of its entries."""
    row = [v if type(v) is int else Fraction(v) for v in row]
    den = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (den // v.denominator) for v in row]


def _primitive(row):
    g = math.gcd(*row)
    return [a // g for a in row] if g > 1 else row


def solve(rows, rhs):
    """One exact solution of A x = b (free variables set to 0), or None."""
    if not rows:
        return [] if not any(rhs) else None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None  # inconsistent: pivot in the rhs column
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][-1]
    return x
