"""Exact linear algebra over the rationals (dense, small systems only)."""

from __future__ import annotations

from fractions import Fraction

__all__ = ["rref", "rank", "span_rank", "solve"]


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    m = [list(map(Fraction, r)) for r in rows]
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
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


def span_rank(polys):
    """Dimension of the span of polynomials, as vectors over their joint support."""
    keys = sorted({k for f in polys for k in f.terms})
    return rank([[f.terms.get(k, 0) for k in keys] for f in polys])


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
