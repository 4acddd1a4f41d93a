"""Term-level arithmetic kernels on sparse polynomial dicts.

A polynomial with odd generators is stored as a dict mapping
``(xexp, omask) -> coefficient`` where ``xexp`` is a tuple of nonnegative
integer exponents (one slot per even variable) and ``omask`` is a strictly
increasing tuple of 1-based odd-generator indices.  A coefficient is an
``int`` when integral, else a ``Fraction``; the kernels only add, subtract
and multiply, so they keep whatever type they are given.  Coefficients are
kept nonzero; all functions return fresh dicts and never mutate their inputs.
"""


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


def sub_terms(a, b):
    out = dict(a)
    for k, c in b.items():
        v = out.get(k)
        if v is None:
            out[k] = -c
        else:
            v = v - c
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def scale_terms(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


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


def div_linear_terms(a, i, j):
    """Divide by ``x_i - x_j`` (0-based slots ``i != j``).

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
    """Divide by the single variable ``x_i`` (0-based slot).

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
