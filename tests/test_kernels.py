"""Laws of the term kernels: odd signs and exact division."""

import random
from fractions import Fraction

from nilheckeb import _kernels_py as kern


def random_terms(rng, n, nterms, with_mask=True):
    out = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, 4) for _ in range(n))
        m = tuple(i for i in range(1, n + 1) if with_mask and rng.random() < 0.4)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if c:
            out[(e, m)] = out.get((e, m), Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def test_odd_merge_signs():
    assert kern.odd_merge((), (2,)) == (1, (2,))
    assert kern.odd_merge((1,), (2,)) == (1, (1, 2))
    assert kern.odd_merge((2,), (1,)) == (-1, (1, 2))
    assert kern.odd_merge((1, 3), (2,)) == (-1, (1, 2, 3))
    assert kern.odd_merge((2,), (2,)) is None


def test_division_reconstructs():
    rng = random.Random(5)
    for _ in range(20):
        n = 3
        a = random_terms(rng, n, 5)
        i, j = rng.sample(range(n), 2)
        quot, rem = kern.div_linear_terms(a, i, j)
        # quotient * (x_i - x_j) + remainder == a
        ei = [0] * n
        ei[i] = 1
        ej = [0] * n
        ej[j] = 1
        form = {(tuple(ei), ()): Fraction(1), (tuple(ej), ()): Fraction(-1)}
        back = kern.add_terms(kern.mul_terms(quot, form), rem)
        assert back == a
        assert all(e[i] == 0 for (e, _) in rem)


def test_var_division_reconstructs():
    rng = random.Random(6)
    for _ in range(20):
        n = 2
        a = random_terms(rng, n, 5)
        i = rng.randrange(n)
        quot, rem = kern.div_var_terms(a, i)
        ei = [0] * n
        ei[i] = 1
        var = {(tuple(ei), ()): Fraction(1)}
        back = kern.add_terms(kern.mul_terms(quot, var), rem)
        assert back == a
        assert all(e[i] == 0 for (e, _) in rem)
