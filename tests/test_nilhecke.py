"""Operator algebra: normal form, rewriting, and the polynomial action."""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from nilheckeb import (
    Differential,
    ExtPoly,
    NHElement,
    OMEGA,
    SignedPerm,
    cli,
    compose,
    d_apply_nh,
    demazure_w,
    descent_walk,
    enumerate_group,
    from_word,
    gen,
    invariant_schur_basis,
    length,
    longest_element,
    nh_act,
    nh_mul,
    normalize_coeff,
    parse_nh,
    pbw_well_formed,
    random_element,
    random_poly,
    render_nh,
    schubert,
    verify_presentation,
)
from nilheckeb import _kernels_py, nilhecke
from nilheckeb.nilhecke import _detects_nonzero, _push_through, _random_nh


def dee(i, n):
    return NHElement.dee(from_word((i,), n))


def test_basic_relations():
    n = 2
    one = NHElement.one(n)
    x1, x2 = NHElement.x(1, n), NHElement.x(2, n)
    d1, d2 = dee(1, n), dee(2, n)
    assert (d1 * d1).is_zero()
    assert (d2 * d2).is_zero()
    assert d1 * x1 - x2 * d1 == one
    assert d2 * x2 + x2 * d2 == one
    assert d1 * x2 - x1 * d1 == -one


def test_word_products_collapse_to_basis_elements():
    n = 3
    rng = random.Random(0)
    for _ in range(40):
        word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6)))
        prod = NHElement.one(n)
        for i in word:
            prod = nh_mul(prod, dee(i, n))
        assert prod == NHElement.dee_word(word, n)
        assert pbw_well_formed(prod)


def test_mixed_generator_words_terminate_in_pbw():
    n = 2
    rng = random.Random(1)
    gens = [NHElement.x(1, n), NHElement.x(2, n),
            NHElement.omega(1, n), NHElement.omega(2, n),
            dee(1, n), dee(2, n)]
    for _ in range(50):
        word = [rng.choice(gens) for _ in range(rng.randint(1, 6))]
        prod = NHElement.one(n)
        for g in word:
            prod = nh_mul(prod, g)
        assert pbw_well_formed(prod)


def test_action_is_by_divided_differences():
    n = 3
    rng = random.Random(2)
    group = enumerate_group(n)
    for _ in range(20):
        w = rng.choice(group)
        f = random_poly(n, OMEGA, rng=rng)
        assert nh_act(NHElement.dee(w), f) == demazure_w(w, f)


def test_parse_render_round_trip():
    n = 2
    for text in ["0", "D(1)", "x1*D(1)", "w1*w2*D(2,1)", "2*x1^2*w1 + D(1,2)"]:
        a = parse_nh(text, n)
        assert parse_nh(render_nh(a), n) == a


def test_render_sorts_by_length():
    n = 2
    a = parse_nh("D(1,2) + x1 + D(2)", n)
    text = render_nh(a)
    assert text.index("x1") < text.index("D(2)") < text.index("D(1,2)")


def _mixed_element():
    n = 2

    def win(*word):
        return from_word(word, n).window

    return NHElement(n, {
        ((1, 0), (2,), win()): Fraction(1),
        ((0, 2), (), win(1)): Fraction(-2, 3),
        ((0, 0), (1,), win(1)): Fraction(2, 3),
        ((0, 0), (), win(2)): Fraction(-1),
        ((0, 0), (), win(1, 2)): Fraction(1),
        ((1, 1), (1, 2), win(2, 1, 2)): Fraction(-2, 3),
    })


def test_render_golden_multi_window():
    assert render_nh(_mixed_element()) == (
        "x1*w2 - D(2) - 2/3*x2^2*D(1) + 2/3*w1*D(1) + D(1,2) - 2/3*x1*x2*w1*w2*D(2,1,2)"
    )


def test_parts_reassemble_the_element():
    a = _mixed_element()
    parts = a.parts()
    assert len(parts) == 5
    total = NHElement.zero(a.nvars)
    for window, poly in parts.items():
        assert poly
        total = total + NHElement.from_poly(poly) * NHElement.dee(SignedPerm(window))
    assert total == a
    assert NHElement.zero(2).parts() == {}


def test_omega_partial_square():
    # w1*D(1) does not square to zero: the twisted action feeds the
    # correction (x1^2 - x2^2) w2 back through the divided difference.
    n = 2
    a = parse_nh("w1*D(1)", n)
    sq = nh_mul(a, a)
    assert not sq.is_zero()
    assert sq == parse_nh("-x1*w1*w2*D(1) - x2*w1*w2*D(1)", n)


@pytest.mark.parametrize("n", [2, 3])
def test_suite_green(n):
    rep = verify_presentation(n, trials=25, seed=0)
    assert rep.passed, str(rep)


def test_suite_green_at_rank_four():
    rep = verify_presentation(4, trials=10, seed=0)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_faithfulness_probe_detects_every_basis_operator(n):
    for w in enumerate_group(n):
        assert _detects_nonzero(NHElement.dee(w)), w.window


def test_schubert_probe_sees_only_its_own_shortest_term():
    # S_u for u = s_1 s_2 is killed by D(2,1), which has the same length,
    # and by the longer D(1,2,3); only the x1*D(1,2) term acts on it.
    n = 3
    u = from_word((1, 2), n)
    a = parse_nh("D(2,1) + x1*D(1,2) + D(1,2,3)", n)
    assert nh_act(a, schubert(u, n)) == nh_act(parse_nh("x1*D(1,2)", n), schubert(u, n))
    assert _detects_nonzero(a)


@pytest.mark.parametrize("text", ["", "+", "-", "x1*D(1) ++ D(2)", "D(1) - -x1", "D(1) +"])
def test_parse_rejects_misplaced_signs(text):
    with pytest.raises(ValueError, match="expected a term"):
        parse_nh(text, 2)


def test_parse_multiplies_factors_in_order():
    n = 2
    x1, x2 = NHElement.x(1, n), NHElement.x(2, n)
    assert parse_nh("D(1)*x1", n) == NHElement.one(n) + x2 * dee(1, n)
    assert parse_nh("D(1)*x1", n) == dee(1, n) * x1
    assert parse_nh("x1*D(1)", n) == x1 * dee(1, n)
    assert parse_nh("-D(2)*w2*D(1)", n) == -(dee(2, n) * NHElement.omega(2, n) * dee(1, n))
    assert parse_nh("w2*w1", n) == -parse_nh("w1*w2", n)


def test_parse_allows_several_dee_factors():
    n = 2
    assert parse_nh("D(1)*D(2)*D(1)", n) == NHElement.dee(from_word((1, 2, 1), n))
    assert parse_nh("D(1)*D(1)", n).is_zero()
    assert parse_nh("D(1,2)*D(2)", n).is_zero()


def test_matches_brute_force_oracle_at_rank_three():
    n = 3
    rng = random.Random(11)
    for _ in range(40):
        a = _random_nh(n, rng)
        b = _random_nh(n, rng)
        assert nh_mul(a, b) == reference.oracle_nh_mul(a, b)


@pytest.mark.parametrize("g", ["x1", "w1"])
def test_longest_element_matches_brute_force_oracle_at_rank_four(g):
    n = 4
    a = NHElement.dee(longest_element(n))
    b = parse_nh(g, n)
    assert nh_mul(a, b) == reference.oracle_nh_mul(a, b)


# one case per shape of g in the benchmark's rank-4 products: lengths of u,
# x-degree of g, odd mask of g
@pytest.mark.parametrize("lengths,xdeg,mask", [
    (range(11, 17), 1, ()),
    (range(13, 17), 1, (3,)),
    (range(14, 17), 0, (2,)),
    ((16,), 0, (1,)),
], ids=["x", "xw3", "w2", "w1"])
def test_rational_long_operator_products_match_brute_force_oracle_at_rank_four(
        lengths, xdeg, mask):
    # halves, thirds and integral Fractions on both sides; every output of the
    # degree-0 shapes is integral, and the degree-1 shapes mix the two types
    n = 4
    rng = random.Random(4)
    long = [w for w in enumerate_group(n) if length(w) in lengths]
    e0, ident = (0,) * n, tuple(range(1, n + 1))
    us = rng.sample(long, min(2, len(long)))
    a = NHElement(n, {(e0, (), u.window): c for u, c in zip(us, (Fraction(6, 2), Fraction(3, 2)))})
    if xdeg:
        coeffs = (Fraction(1, 2), Fraction(-2, 3), Fraction(6, 3), Fraction(5, 6))
        g = NHElement(n, {(tuple(int(k == j) for k in range(n)), mask, ident): c
                          for j, c in enumerate(coeffs)})
    else:
        g = NHElement(n, {(e0, mask, ident): Fraction(2, 3)})
    got = nh_mul(a, g)
    assert got == reference.oracle_nh_mul(a, g)
    assert got and all(type(c) is int for c in got.terms.values() if c.denominator == 1)


@pytest.mark.parametrize("n", [2, 3])
def test_product_matches_the_smallest_descent_word(n):
    rng = random.Random(20 + n)
    for _ in range(40):
        a, b = _random_nh(n, rng), _random_nh(n, rng)
        assert render_nh(nh_mul(a, b)) == render_nh(reference.oracle_nh_mul_word(a, b))


def test_long_operator_times_polynomial_matches_the_smallest_descent_word():
    n = 4
    rng = random.Random(24)
    long = [w for w in enumerate_group(n) if length(w) >= 11]
    for _ in range(6):
        a = NHElement.dee(rng.choice(long))
        b = NHElement.from_poly(random_poly(n, OMEGA, max_xdeg=3, max_terms=3, rng=rng))
        assert render_nh(nh_mul(a, b)) == render_nh(reference.oracle_nh_mul_word(a, b))


def _invariants(i, n):
    """s_i-invariant polynomials: a constant, and x_n^2 for i = n, or
    x_i*x_(i+1) and w_i - x_(i+1)^2*w_(i+1) for i < n."""
    x, w = ExtPoly.x, ExtPoly.odd
    if i == n:
        return [ExtPoly.const(n, 3), x(n, n) ** 2]
    return [ExtPoly.const(n, 3), x(i, n) * x(i + 1, n),
            w(i, n) - x(i + 1, n) ** 2 * w(i + 1, n)]


def _times_dee(f, w):
    """f * D_w, written down directly."""
    return NHElement(f.nvars, {(e, m, w.window): c for (e, m), c in f.terms.items()})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_invariant_pieces_match_brute_force_and_leave_operands_unchanged(n):
    # b holds an s_i-invariant on the tail e and x_i, which D_i does not kill,
    # next to another s_i-invariant on s_i.  Through the term D_(s_i) of a,
    # the invariant on e slides onto s_i, where D_i(x_i) lands.  The terms
    # D_u and x1*D_(u s_i) of a meet on the tail u s_i, and all three push
    # through the same b, so a dict that one of them changed in place would
    # show in the next.
    rng = random.Random(40 + n)
    everywhere = [f for i in range(1, n + 1) for f in _invariants(i, n)]
    x1 = ExtPoly.x(1, n)
    e = from_word((), n)
    for _ in range(8):
        i = rng.randint(1, n)
        si = from_word((i,), n)
        b = (_times_dee(rng.choice(_invariants(i, n)), e)
             + _times_dee(rng.choice(_invariants(i, n)) + ExtPoly.x(i, n), si)
             + _times_dee(rng.choice(everywhere), random_element(n, rng)))
        u = random_element(n, rng)
        while length(u * si) < length(u) or length(u) > 7:
            u = random_element(n, rng)
        a = NHElement.dee(si) + NHElement.dee(u) + _times_dee(x1, u * si)
        before = dict(a.terms), dict(b.terms)
        assert nh_mul(a, b) == reference.oracle_nh_mul(a, b)
        assert (a.terms, b.terms) == before


@pytest.mark.parametrize("n", [2, 3])
def test_nil_law_through_the_product(n):
    # D_i * D_t = D_(s_i t) when l(s_i t) = l(t) + 1, else 0; the push-through
    # tests it as a right step on the inverse of t
    for t in enumerate_group(n):
        for i in range(1, n + 1):
            st_ = compose(gen(i, n), t)
            want = NHElement.dee(st_) if length(st_) > length(t) else NHElement.zero(n)
            assert nh_mul(dee(i, n), NHElement.dee(t)) == want


@pytest.mark.parametrize("n", [2, 3])
def test_push_through_leaves_its_pieces_unchanged(n):
    rng = random.Random(50 + n)
    everywhere = [f for i in range(1, n + 1) for f in _invariants(i, n)]
    for _ in range(20):
        pieces = {random_element(n, rng).window: rng.choice(everywhere).terms
                  for _ in range(3)}
        before = {t: dict(terms) for t, terms in pieces.items()}
        _push_through(descent_walk(random_element(n, rng).window), pieces, n)
        assert pieces == before


@pytest.mark.parametrize("n", [5, 6])
def test_invariants_commute_with_long_operators_at_high_rank(n):
    # ranks the brute-force oracle cannot reach: an invariant slides past
    # every letter, so D_u * f = f * D_u
    rng = random.Random(60 + n)
    for _ in range(4):
        d = NHElement.dee(random_element(n, rng))
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        assert nh_mul(d, NHElement.from_poly(ExtPoly.const(n, c))) == c * d
        _, f = rng.choice(invariant_schur_basis(n, rng.randint(0, n)))
        assert nh_mul(d, NHElement.from_poly(f)) == NHElement.from_poly(f) * d


# one-term pieces: w_i with e_i == e_(i+1), which D_i does not kill (the
# twist); an even and an odd e_n under D_n; and w_n, which every letter lets
# slide.  The brute-force oracle has no slide.
@pytest.mark.parametrize("n,e,m", [
    (2, (1, 1), (1,)),
    (3, (0, 0, 2), (1,)),
    (3, (2, 2, 0), (1, 3)),
    (3, (1, 1, 1), (2,)),
    (3, (0, 0, 2), ()),
    (3, (1, 0, 3), ()),
    (3, (2, 1, 4), (2,)),
    (3, (1, 2, 1), (1,)),
    (2, (0, 0), (2,)),
    (3, (0, 0, 0), (3,)),
    (3, (1, 1, 0), (3,)),
], ids=["twist-n2", "twist-w1", "twist-w1w3", "twist-w2", "even-en", "odd-en",
        "even-en-w2", "odd-en-w1", "wn-n2", "wn", "wn-x1x2"])
def test_one_term_pieces_match_brute_force_oracle(n, e, m):
    g = NHElement(n, {(e, m, from_word((), n).window): Fraction(-3, 2)})
    for u in enumerate_group(n):
        a = NHElement.dee(u)
        assert nh_mul(a, g) == reference.oracle_nh_mul(a, g), u


def test_a_tail_that_cancels_mid_word_is_dropped():
    # D_1 * (1 - x1*D_1) = D_1 - D_1 = 0: the tail s_1 cancels at the first
    # letter of u = s_2 s_1, the next letter skips it, and x3*D_2 survives
    n = 3
    zero = (0,) * n
    pieces = {from_word((), n).window: {(zero, ()): 1},
              from_word((1,), n).window: {((1, 0, 0), ()): -1}}
    assert _push_through((1,), pieces, n) == {}
    assert _push_through((1, 2), pieces, n) == {}
    u = from_word((2, 1), n)
    assert next(iter(descent_walk(u.window))) == 1
    a = NHElement.dee(u)
    b = parse_nh("1 - x1*D(1) + x3*D(2)", n)
    got = nh_mul(a, b)
    assert got == reference.oracle_nh_mul(a, b)
    assert nh_mul(a, parse_nh("1 - x1*D(1)", n)).is_zero()
    assert got == nh_mul(a, parse_nh("x3*D(2)", n)) != 0


@pytest.mark.parametrize("c", [1, Fraction(1, 2), Fraction(-4, 3), Fraction(3, 1)])
def test_bare_operators_times_fractions_match_brute_force_oracle(c):
    n = 3
    rng = random.Random(70)
    for _ in range(12):
        a = NHElement.dee(random_element(n, rng)) * c
        b = _random_nh(n, rng)
        before = dict(a.terms), dict(b.terms)
        assert nh_mul(a, b) == reference.oracle_nh_mul(a, b)
        assert (a.terms, b.terms) == before


def test_longest_operator_times_one_runs_no_kernel(monkeypatch):
    calls = []
    for name in ("demazure_terms", "mul_terms"):
        kernel = getattr(_kernels_py, name)
        monkeypatch.setattr(_kernels_py, name,
                            lambda *args, _k=kernel, _name=name: calls.append(_name) or _k(*args))
    d = NHElement.dee(longest_element(3))
    assert nh_mul(d, NHElement.one(3)) == d
    assert calls == []
    assert nh_mul(d, NHElement.x(3, 3)) and "demazure_terms" in calls


@pytest.mark.parametrize("a,b", [
    ("D(1,2,1)", "1"),
    ("D(3,2)", "1/2*x1 - w2*D(1)"),
    ("2*x1*D(1)", "x2*w1 + D(2)"),
    ("1/3", "D(2,3) + x3"),
], ids=["bare-one", "bare-frac", "poly", "const"])
def test_mutating_the_product_leaves_the_operands_unchanged(a, b):
    n = 3
    a, b = parse_nh(a, n), parse_nh(b, n)
    before = dict(a.terms), dict(b.terms)
    got = nh_mul(a, b)
    assert got
    for k in list(got.terms):
        got.terms[k] = 99
    got.terms[((9,) * n, (), from_word((), n).window)] = 7
    assert (a.terms, b.terms) == before


def _replace_terms(terms):
    """A checked rank-2 element whose ``terms`` is swapped for ``terms`` afterwards."""
    a = NHElement(2, {})
    a.terms = terms
    return a


@pytest.mark.parametrize("terms,error", [
    ({((0, 0), (), (1, 2, 3)): 1}, ValueError),
    ({((0, 0), (), (1,)): 1}, ValueError),
    ({((True, 0), (), (1, 2)): 1}, ValueError),
    ({((1.0, 0), (), (1, 2)): 1}, ValueError),
    ({((0, 0), (True,), (1, 2)): 1}, ValueError),
    ({((0, 0), (), (True, 2)): 1}, ValueError),
    ({((0, 0), (), (1, 2)): 0.5}, TypeError),
    ({((0, 0), (), (1, 2)): True}, TypeError),
    ({((0, 0), (), (1, 2)): "1/2"}, TypeError),
], ids=["window-rank-3", "window-rank-1", "bool-exponent", "float-exponent",
        "bool-odd-index", "bool-window-entry", "float-coeff",
        "bool-coeff", "text-coeff"])
def test_pbw_well_formed_rejects_malformed_keys_and_coefficients(terms, error):
    # the constructor refuses each of these, naming the term
    [key] = terms
    with pytest.raises(error) as info:
        NHElement(2, terms)
    assert repr(key) in str(info.value)
    assert not pbw_well_formed(_replace_terms(terms))


@pytest.mark.parametrize("left,terms,error", [
    (True, {((0, 0), (), (1, 2, 3)): 1}, ValueError),
    (False, {((0, 0), (), (1, 2, 3)): 1}, ValueError),
    (False, {((0, 0), (), (1,)): 1}, ValueError),
    (True, {((0, 0), (), (1, 2)): 0.5}, TypeError),
    (False, {((0, 0), (), (1, 2)): 1.0}, TypeError),
    (True, {((0, 0), (), (1, 2)): True}, TypeError),
], ids=["window-rank-3-left", "window-rank-3-right", "window-rank-1-right",
        "float-coeff-left", "float-coeff-right", "bool-coeff-left"])
def test_nh_mul_rejects_a_window_of_another_rank_and_a_non_rational_coefficient(
        left, terms, error):
    # each was read as something else once: D_(1,2,3) * x1 gave x1, a float failed
    # with AttributeError deep in clear_denominators, and True was taken for 1;
    # now no such operand can be built
    x1 = NHElement.x(1, 2)
    with pytest.raises(error):
        bad = NHElement(2, terms)
        nh_mul(bad, x1) if left else nh_mul(x1, bad)


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
@pytest.mark.parametrize("terms", [
    {((0, 0), (), (1, 1)): 1},
    {((0, 0), (), (3, 1)): 1},
    {((0, 0, 0), (), (1, 2)): 1},
    {((0,), (), (1, 2)): 1},
], ids=["window-repeat", "window-out-of-range", "exponent-length-3", "exponent-length-1"])
def test_nh_mul_rejects_a_window_or_exponent_tuple_it_would_misread(left, terms):
    # D_(1,1) * x1 gave x1, read as D_e; D_(3,1) * x1 gave 1 + x2*D(1); and an
    # exponent (0, 0, 0) was cut to the rank by zip; now no such operand can be built
    x1 = NHElement.x(1, 2)
    with pytest.raises(ValueError):
        bad = NHElement(2, terms)
        nh_mul(bad, x1) if left else nh_mul(x1, bad)


@pytest.mark.parametrize("terms,reason", [
    ({((0, 0), (2, 1), (1, 2)): 1}, "odd mask"),
    ({((0, 0), (1, 1), (1, 2)): 1}, "odd mask"),
    ({((0, 0), (3,), (1, 2)): 1}, "odd mask"),
    ({((0, -1), (), (1, 2)): 1}, "exponents"),
    ({((0, 0), (), (1, 2)): 0}, "zero coefficient"),
    ({((0, 0), (), (1, 2)): Fraction(0)}, "zero coefficient"),
    ({((0, 0), "", (1, 2)): 1}, "of tuples"),
    ({((0, 0), ()): 1}, "of tuples"),
], ids=["unsorted-mask", "repeated-mask", "odd-index-3", "negative-exponent",
        "zero-coeff", "zero-fraction", "text-mask", "short-key"])
def test_the_constructor_names_a_key_or_coefficient_the_product_misread(terms, reason):
    # at rank 2, nh_mul(NHElement(2, terms), x1) kept the mask (2, 1) unsorted,
    # read (0, -1) and the index 3 as something else, and returned a zero term
    [key] = terms
    with pytest.raises(ValueError) as info:
        NHElement(2, terms)
    assert repr(key) in str(info.value) and reason in str(info.value)
    assert not pbw_well_formed(_replace_terms(terms))


@pytest.mark.parametrize("nvars", [0, -1, True, 2.0, "2"])
def test_the_constructor_refuses_a_rank_that_is_not_a_positive_int(nvars):
    terms = {((0,), (), (1,)): 1} if nvars is True else {}
    with pytest.raises(ValueError, match="rank"):
        NHElement(nvars, terms)


def test_from_poly_checks_a_polynomial_built_unchecked():
    with pytest.raises(ValueError, match="exponents"):
        NHElement.from_poly(ExtPoly(2, OMEGA, {((0, -1), ()): 1}))
    with pytest.raises(ValueError, match="zero coefficient"):
        NHElement.from_poly(ExtPoly(2, OMEGA, {((0, 0), ()): 0}))


def test_pbw_well_formed_reads_terms_replaced_after_construction():
    a = NHElement.x(1, 2)
    assert pbw_well_formed(a)
    a.terms = {((1, 0), (), (1, 1)): 1}
    assert not pbw_well_formed(a)
    a.terms = {((1, 0), (), (1, 2)): 1.5}
    assert not pbw_well_formed(a)


def test_pbw_well_formed_accepts_int_and_fraction_coefficients():
    n = 2
    assert pbw_well_formed(NHElement(n, {((1, 0), (2,), (-2, 1)): Fraction(1, 2),
                                         ((0, 3), (1, 2), (1, 2)): -4,
                                         ((0, 0), (), (2, -1)): Fraction(6, 3)}))


GROUPS = {n: enumerate_group(n) for n in (2, 3)}


@st.composite
def elements(draw, n, max_terms=3):
    term = st.tuples(
        st.tuples(*[st.integers(0, 2)] * n),
        st.sets(st.integers(1, n)).map(lambda m: tuple(sorted(m))),
        st.sampled_from(GROUPS[n]).map(lambda w: w.window),
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    )
    terms = draw(st.lists(term, min_size=1, max_size=max_terms))
    return NHElement(n, {(e, m, w): c for e, m, w, c in terms})


def probes(n):
    return st.integers(0, 10**6).map(
        lambda seed: random_poly(n, OMEGA, max_xdeg=3, max_terms=3, seed=seed))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(elements(n), elements(n), probes(n))))
def test_product_acts_as_composition(args):
    a, b, f = args
    assert nh_act(nh_mul(a, b), f) == nh_act(a, nh_act(b, f))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(
    lambda n: st.tuples(elements(n, 2), elements(n, 2), elements(n, 2))))
def test_product_is_associative(args):
    a, b, c = args
    assert nh_mul(nh_mul(a, b), c) == nh_mul(a, nh_mul(b, c))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(
    elements(n), elements(n),
    st.integers(-3, 3).filter(bool) | st.fractions(-3, 3, max_denominator=3).filter(bool),
    st.integers(1, 4))))
def test_operations_on_checked_elements_keep_the_pbw_rule(args):
    # these results are built with no check, so the rule must hold by closure
    a, b, c, N = args
    dN = Differential(N, a.nvars)
    for got in (a + b, a - b, -a, a * c, c * a, nh_mul(a, b), d_apply_nh(dN, a)):
        assert pbw_well_formed(got)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(elements))
def test_parse_inverts_render(a):
    assert parse_nh(render_nh(a), a.nvars) == a


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(elements(n), elements(n))))
def test_nh_command_prints_the_product(args):
    a, b = args
    n = a.nvars
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["nh", "--n", str(n), "--format", "json", "--",
                         render_nh(a), render_nh(b)])
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload["n"] == n
    printed = {(tuple(t["x"]), tuple(t["odd"]), from_word(t["word"], n).window):
               normalize_coeff(t["coeff"]) for t in payload["terms"]}
    want = nh_mul(a, b).terms
    assert printed == want
    assert all(type(printed[k]) is type(c) for k, c in want.items())


@pytest.mark.parametrize("n", [2, 3])
def test_a_product_that_breaks_the_nil_law_fails_the_presentation(monkeypatch, n):
    # the relation sides are nh_mul products: with no descent ever seen,
    # D_i * D_i comes out as D_e, and D_i^2 = 0 must fail
    monkeypatch.setattr(nilhecke, "_descends", lambda a, b: False)
    rep = verify_presentation(n, trials=1, seed=0)
    check = next(c for c in rep.checks if c.check == "presentation relations in PBW form")
    assert not check.passed
    assert "D1^2 = 0" in check.detail
