"""Schur/Schubert values, the invariant basis, and graded ranks."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from nilheckeb import (
    SignedPerm,
    compose,
    decompose_schubert,
    demazure,
    demazure_w,
    enumerate_group,
    format_poincare,
    from_word,
    gen,
    identity,
    invariant_schur_basis,
    inverse,
    is_invariant,
    length,
    longest_element,
    poincare,
    random_poly,
    render,
    schubert,
    schur_closed_form,
    schur_ext,
    spine,
    spine_above,
    staircase,
    verify_schur,
)
from nilheckeb import OMEGA, ExtPoly, linalg, schur
from nilheckeb.linalg import rank
from nilheckeb.schur import exponents
from nilheckeb.weylb import right_descents

GOLDEN_N2 = [
    ((), (), "1"),
    ((), (1,), "w1 + x1^2*w2"),
    ((), (2,), "w2"),
    ((), (1, 2), "w1*w2"),
]

GOLDEN_N3 = [
    ((), (), "1"),
    ((), (1,), "w1 + x1^2*w2 + x1^2*x2^2*w3"),
    ((), (3,), "w3"),
]


@pytest.mark.parametrize("alpha,beta,text", GOLDEN_N2)
def test_golden_values_rank_two(alpha, beta, text):
    assert render(schur_ext(alpha, beta, 2)) == text


@pytest.mark.parametrize("alpha,beta,text", GOLDEN_N3)
def test_golden_values_rank_three(alpha, beta, text):
    assert render(schur_ext(alpha, beta, 3)) == text


def test_golden_products_rank_two():
    n = 2
    s1 = schur_ext((), (1,), n)
    s2 = schur_ext((), (2,), n)
    s12 = schur_ext((), (1, 2), n)
    assert s1 * s2 == s12
    assert (s1 * s12).is_zero()
    assert (s2 * s12).is_zero()


def test_closed_form_agrees():
    for n in (2, 3):
        for i in range(1, n + 1):
            assert schur_closed_form(i, n) == schur_ext((), (i,), n)


def test_staircase():
    assert render(staircase((), 2)) == "x1^3*x2"
    assert render(staircase((1,), 2)) == "x1^4*x2"


def test_schubert_values():
    n = 2
    assert render(schubert(from_word((), n))) == "1"
    assert render(schubert(from_word((1,), n))) == "x1"
    assert render(schubert(from_word((2,), n))) == "x1 + x2"
    w0 = from_word((1, 2, 1, 2), n)
    assert schubert(w0) == staircase((), n)


def assert_schubert_word_free(w, n):
    # the run-walk chain against the largest-first and the smallest-first words
    top = compose(inverse(w), longest_element(n))
    got = schubert(w, n)
    assert got == demazure_w(top, staircase((), n))
    assert got == reference.oracle_demazure_w(top, staircase((), n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_schubert_does_not_depend_on_the_word(n):
    for w in enumerate_group(n):
        assert_schubert_word_free(w, n)


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(1, 6)), st.lists(st.sampled_from((1, -1)), min_size=5, max_size=5))
def test_schubert_does_not_depend_on_the_word_at_rank_five(perm, signs):
    assert_schubert_word_free(SignedPerm(s * p for s, p in zip(signs, perm)), 5)


def spine_monomial(ell, n):
    """x_1^delta_1 ... x_k^delta_k x_(k+1)^r for ell = delta_1 + ... + delta_k + r."""
    e = []
    for i in range(1, n + 1):
        e.append(min(ell - sum(e), 2 * (n - i) + 1))
    return ExtPoly(n, OMEGA, {(tuple(e), ()): 1})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_spine_lemma(n):
    # the spine polynomials, from x^delta along the largest-descent-first word
    w0, top = longest_element(n), staircase((), n)
    for ell in range(n * n + 1):
        u = spine(ell, n)
        assert demazure_w(compose(inverse(u), w0), top) == spine_monomial(ell, n)


def test_spine_monomials_are_the_only_ones():
    # at each length exactly one Schubert polynomial is a single monomial
    n = 4
    singles = sorted(length(w) for w in enumerate_group(n) if len(schubert(w, n).terms) == 1)
    assert singles == list(range(n * n + 1))


@st.composite
def signed_perms(draw, max_rank):
    n = draw(st.integers(1, max_rank))
    perm = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return SignedPerm(s * p for s, p in zip(signs, perm))


@settings(max_examples=60, deadline=None)
@given(signed_perms(6))
def test_schubert_matches_the_smallest_descent_chain(w):
    n = w.n
    want = reference.oracle_demazure_w(compose(inverse(w), longest_element(n)), staircase((), n))
    assert schubert(w, n) == want
    assert spine_above(w) >= length(w)


def test_schubert_rejects_another_rank():
    with pytest.raises(ValueError, match="rank mismatch"):
        schubert(identity(3), 4)


def test_schubert_top_degree_is_length():
    n = 2
    for w in enumerate_group(n):
        f = schubert(w)
        top = max(sum(e) for (e, _) in f.terms)
        assert top == length(w)


def test_schubert_family_independent():
    n = 2
    group = enumerate_group(n)
    polys = [schubert(w) for w in group]
    monomials = sorted({key for f in polys for key in f.terms})
    rows = [[f.terms.get(k, 0) for k in monomials] for f in polys]
    assert rank(rows) == len(group)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_poincare_against_bfs_oracle(n):
    assert poincare(n) == reference.oracle_poincare(n)


def test_poincare_at_rank_eight():
    coeffs = poincare(8)
    assert len(coeffs) == 65 and coeffs == coeffs[::-1]
    assert sum(coeffs) == 2**8 * math.factorial(8) == 10_321_920


def test_poincare_text():
    assert format_poincare(poincare(2)) == "1 + 2q + 2q^2 + 2q^3 + q^4"


def test_invariant_basis():
    n = 2
    basis = [f for k in range(n + 1) for _, f in invariant_schur_basis(n, k)]
    assert len(basis) == 4
    assert all(is_invariant(f) for f in basis)


def test_schur_invariance_rank_three():
    for beta in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]:
        assert is_invariant(schur_ext((), beta, 3))


def test_decompose_schubert_round_trip():
    n = 2
    rng = random.Random(9)
    for _ in range(25):
        f = random_poly(n, OMEGA, max_xdeg=3, max_terms=4, rng=rng)
        coeffs = decompose_schubert(f)
        back = ExtPoly.zero(n)
        for w, g in coeffs.items():
            assert is_invariant(g)
            back = back + g * schubert(w)
        assert back == f


def test_rank_four_results_carry_int_coefficients():
    n = 4
    polys = [schubert(w, n) for w in enumerate_group(n)]
    assert len(polys) == 384
    polys += [schur_ext((), beta, n) for k in range(n + 1)
              for beta in itertools.combinations(range(1, n + 1), k)]
    assert all(type(c) is int for f in polys for c in f.terms.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_suite_green(n):
    rep = verify_schur(n, trials=10, seed=0)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_basis_passes_the_all_pairs_sign_rule_and_the_dense_rank(n):
    basis = {beta: s for k in range(n + 1) for beta, s in invariant_schur_basis(n, k)}
    assert reference.oracle_sign_rule(basis)
    assert reference.oracle_basis_rank(basis) == len(basis) == 2**n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_closed_form_is_unitriangular(n):
    # coefficient 1 on w_i, no w_l with l < i, and even coefficients, which
    # commute with every w
    for i in range(1, n + 1):
        terms = schur_closed_form(i, n).terms
        assert all(len(m) == 1 and m[0] >= i and not any(v % 2 for v in e) for e, m in terms)
        assert {k: c for k, c in terms.items() if k[1] == (i,)} == {((0,) * n, (i,)): 1}


def test_basis_checks_run_no_linear_algebra(monkeypatch):
    def refuse(rows):
        raise AssertionError("linear algebra in the schur suite")

    monkeypatch.setattr(linalg, "rref", refuse)
    assert verify_schur(4, trials=3, seed=0).passed


def _swap_two(layer, k):
    if k != 2:
        return layer
    (b0, s0), (b1, s1), *rest = layer
    return [(b0, s1), (b1, s0), *rest]


def _negate_one(layer, k):
    if k != 2:
        return layer
    (b0, s0), *rest = layer
    return [(b0, -s0), *rest]


def _add_below_the_diagonal(layer, k):
    if k != 1:
        return layer
    (b1, s1), (b2, s2), *rest = layer
    return [(b1, s1), (b2, s2 + s1), *rest]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("fault,check", [
    (_swap_two, "invariant basis: ordered products of the S_(i)"),
    (_negate_one, "invariant basis: ordered products of the S_(i)"),
    (_add_below_the_diagonal, "closed form matches divided differences"),
], ids=["two-swapped-in-a-layer", "a-product-negated", "w1-added-to-S2"])
def test_basis_checks_flag_a_broken_basis(monkeypatch, n, fault, check):
    # the swap and the negation keep every element invariant and the basis
    # independent, so only products see them; S_(2) + S_(1) also keeps the
    # span, but its w_1 lies below the diagonal, where the closed form is 0
    def fake(n, k):
        return fault(invariant_schur_basis(n, k), k)

    monkeypatch.setattr(schur, "invariant_schur_basis", fake)
    checks = {c.check: c.passed for c in verify_schur(n, trials=2, seed=0).checks}
    assert checks[check] is False
    basis = {beta: s for k in range(n + 1) for beta, s in fake(n, k)}
    assert not (reference.oracle_sign_rule(basis)
                and reference.oracle_basis_rank(basis) == 2**n)


def _one_ascent_more(w):
    descents = right_descents(w)
    return descents + [i for i in range(1, w.n + 1) if i not in descents][:1]


def _errs_on_recomputation():
    # the walk keeps the first value it reaches for each element, so doubling
    # every nonzero result seen before changes nothing but the revisits
    seen = set()

    def fake(i, f):
        d = demazure(i, f)
        key = render(d)
        if d and key in seen:
            return d * 2
        seen.add(key)
        return d

    return fake


def _misses(v, descent_at_identity=False):
    # the edges into v read as ascents and d_i on them as zero, so the walk
    # never reaches v and every other check holds; a descent at the identity
    # adds one element below the last level, which balances the count again
    n = v.n
    sv = schubert(v, n)

    def descents(w):
        if descent_at_identity and w.is_identity():
            return [1]
        return [i for i in right_descents(w) if compose(w, gen(i, n)) != v]

    def fake(i, f):
        d = demazure(i, f)
        return ExtPoly.zero(f.nvars) if d == sv else d

    return {"right_descents": descents, "demazure": fake}


@pytest.mark.parametrize("make_fakes", [
    lambda: {"staircase": lambda alpha, n: staircase(alpha, n) * 2},
    lambda: {"staircase": lambda alpha, n: staircase(alpha, n) + 1},
    lambda: {"demazure": lambda i, f: demazure(i, f) or ExtPoly.one(f.nvars)},
    lambda: {"demazure": _errs_on_recomputation()},
    lambda: {"right_descents": _one_ascent_more},
    lambda: _misses(gen(1, 3)),
    lambda: _misses(gen(1, 3), descent_at_identity=True),
], ids=["doubled-top", "constant-on-top", "nonzero-at-ascents", "wrong-on-revisits",
        "ascent-taken-for-descent", "misses-an-element", "descends-from-the-identity"])
def test_walk_flags_a_broken_step(monkeypatch, make_fakes):
    # the walk is linear, so only S_e = 1 tells twice the staircase apart; the
    # constant is killed at once, so only the degree check sees it; the next two
    # are caught only by the ascent check and the revisit comparison; a wrong
    # descent sends the walk up a level, so several checks see that one; the
    # last two are caught only by the reached count and by the empty last level
    for name, fake in make_fakes().items():
        monkeypatch.setattr(schur, name, fake)
    checks = {c.check: c.passed for c in verify_schur(3, trials=2, seed=0).checks}
    assert checks["Schubert degrees and independence"] is False


@pytest.mark.parametrize("degs", [(1,), (3,), (2, 4), (1, 1, 1), (6, 4, 2)])
@pytest.mark.parametrize("total", [-3, -1, 0, 1, 5, 8])
def test_exponents_match_brute_force(degs, total):
    box = itertools.product(range(max(total, 0) + 1), repeat=len(degs))
    want = [e for e in box if sum(k * d for k, d in zip(e, degs)) == total]
    assert exponents(degs, total) == want


def test_span_rank():
    span_rank = reference.span_rank
    x1, x2 = ExtPoly.x(1, 2), ExtPoly.x(2, 2)
    assert span_rank([]) == 0
    assert span_rank([ExtPoly.zero(2), ExtPoly.zero(2)]) == 0
    assert span_rank([x1 + x2, x1 - x2 * 2, x1 * 3]) == 2
    assert span_rank([x1, x2, x1 * x2]) == 3


@pytest.mark.parametrize("n", [-2, -1, True, False, 2.0, "2"])
def test_poincare_refuses_a_rank_that_is_not_an_int_at_least_zero(n):
    with pytest.raises(ValueError, match="rank n = "):
        poincare(n)


def test_poincare_of_rank_zero_is_one():
    assert poincare(0) == [1]
