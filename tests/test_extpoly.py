"""Ring arithmetic, text and JSON round-trips, gradings, and the oracle's
exact division."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nilheckeb import (
    BIDEG,
    DGN,
    DX,
    OMEGA,
    XDEG,
    ExtPoly,
    act_gen,
    degree,
    demazure,
    from_json,
    normalize_coeff,
    parse,
    random_poly,
    render,
    to_json,
)
from nilheckeb.extpoly import _normalize_mask
from reference import DivisionError, exact_div_linear


def test_constructors():
    x1 = ExtPoly.x(1, 2)
    w2 = ExtPoly.odd(2, 2)
    assert render(x1) == "x1"
    assert render(w2) == "w2"
    assert render(ExtPoly.odd(2, 2, DX)) == "dx2"
    assert ExtPoly.zero(3).is_zero()
    assert render(ExtPoly.const(2, Fraction(-3, 2))) == "-3/2"


def test_odd_generators_anticommute_and_square_to_zero():
    w1 = ExtPoly.odd(1, 3)
    w2 = ExtPoly.odd(2, 3)
    assert w1 * w2 == -(w2 * w1)
    assert (w1 * w1).is_zero()
    assert ((w1 + w2) * (w1 + w2)).is_zero()


def test_even_center():
    rng = random.Random(0)
    for _ in range(15):
        f = random_poly(3, OMEGA, rng=rng)
        g = random_poly(3, OMEGA, rng=rng)
        even = ExtPoly(3, OMEGA, {k: c for k, c in f.terms.items() if not k[1]})
        assert even * g == g * even


@pytest.mark.parametrize("seed", range(8))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    f = random_poly(2, OMEGA, rng=rng)
    g = random_poly(2, OMEGA, rng=rng)
    h = random_poly(2, OMEGA, rng=rng)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == ExtPoly.zero(2)
    assert f * ExtPoly.one(2) == f


@pytest.mark.parametrize("text", [
    "0",
    "1",
    "x1",
    "w1 + x1^2*w2",
    "x1^3*x2 - 2*w1*w2",
    "-1/2*x2 + dx1",
    "dx1*dx2",
])
def test_parse_render_round_trip(text):
    n = 2
    f = parse(text, n)
    assert render(f) == text
    assert parse(render(f), n) == f


def test_parse_normalizes_odd_order():
    assert parse("w2*w1", 2) == -parse("w1*w2", 2)
    assert render(parse("w2*w1", 2)) == "-w1*w2"


def test_parse_rejects():
    with pytest.raises(ValueError):
        parse("x9", 2)
    with pytest.raises(ValueError):
        parse("w1*dx2", 2)
    with pytest.raises(ValueError):
        parse("x1 @ x2", 2)


@pytest.mark.parametrize("text, message", [
    ("", "expected a term, found end of input"),
    (" ", "expected a term, found end of input"),
    ("+", "expected a term, found '+'"),
    ("-", "expected a term after '-', found end of input"),
    ("x1 ++ x2", "expected a term after '+', found '+'"),
    ("x1 - -x2", "expected a term after '-', found '-'"),
    ("x1 +", "expected a term after '+', found end of input"),
])
def test_parse_rejects_misplaced_signs(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse(text, 2)


@st.composite
def polys(draw, n, family=None):
    if family is None:
        family = draw(st.sampled_from([OMEGA, DX]))
    term = st.tuples(
        st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
        st.tuples(*[st.integers(0, 3)] * n),
        st.sets(st.integers(1, n)).map(lambda m: tuple(sorted(m))),
    )
    return ExtPoly.from_terms(n, draw(st.lists(term, max_size=4)), family)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(polys))
def test_parse_inverts_render(f):
    assert parse(render(f), f.nvars, f.family) == f


@pytest.mark.parametrize("pair", [True, False], ids=["x_i-x_j", "x_i"])
@pytest.mark.parametrize("family", [OMEGA, DX])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_division_by_linear_forms(family, pair, data):
    n = data.draw(st.sampled_from([2, 3]))
    f = data.draw(polys(n, family))
    g = data.draw(polys(n, family))
    i = data.draw(st.integers(1, n - 1 if pair else n))
    args = (i, data.draw(st.integers(i + 1, n))) if pair else (i,)
    x = lambda k: ExtPoly.x(k, n, family)
    form = x(i) - x(args[1]) if pair else x(i)
    assert exact_div_linear(form * f, *args) == f
    # a part free of x_i is what is left over, whole
    rest = ExtPoly.from_terms(
        n, [(c, e[:i - 1] + (0,) + e[i:], m) for (e, m), c in g.terms.items()], family)
    assume(rest)
    with pytest.raises(DivisionError) as err:
        exact_div_linear(form * f + rest, *args)
    assert err.value.remainder == rest


@pytest.mark.parametrize("seed", range(6))
def test_json_round_trip(seed):
    rng = random.Random(seed)
    f = random_poly(3, DX if seed % 2 else OMEGA, rng=rng)
    obj = to_json(f)
    assert obj["nvars"] == 3
    assert from_json(obj) == f


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 3, 4]).flatmap(polys))
def test_json_round_trip_is_exact(f):
    obj = to_json(f)
    back = from_json(json.dumps(obj))
    assert back == f and back.family == f.family and back.nvars == f.nvars
    assert {k: type(c) for k, c in back.terms.items()} == {k: type(c) for k, c in f.terms.items()}
    assert to_json(back) == obj


def test_coefficients_are_int_when_integral():
    assert type(normalize_coeff(Fraction(6, 3))) is int
    assert normalize_coeff("-4/2") == -2 and type(normalize_coeff("-4/2")) is int
    assert normalize_coeff("1/3") == Fraction(1, 3)
    assert type(ExtPoly.const(2, Fraction(4, 2)).constant_term()) is int
    # terms that meet in from_terms (parse, from_json) sum to an int too
    assert type(parse("1/2*x1 + 1/2*x1", 2).terms[((1, 0), ())]) is int
    assert type(parse("2*1/2*x1", 2).coeff_of((1, 0))) is int
    assert render(ExtPoly.const(2, Fraction(4, 2))) == render(ExtPoly.const(2, 2)) == "2"


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, float("nan"), True, None, 1j])
def test_float_and_other_coefficients_are_rejected(bad):
    with pytest.raises(TypeError):
        ExtPoly.const(2, bad)
    with pytest.raises(TypeError):
        ExtPoly.from_terms(2, [(bad, (1, 0), ())])
    with pytest.raises(TypeError):
        from_json({"nvars": 2, "odd": OMEGA, "terms": [{"coeff": bad, "x": [1, 0], "odd": []}]})


@pytest.mark.parametrize("x, odd", [
    ([0.5, 0], []), ([1.0, 0], []), ([True, 0], []), (["1", 0], []),
    ([1, 0], [1.0]), ([1, 0], [True]), ([1, 0], [3, 3]), ([1, 0], [0, 0]), ([1, 0], [1, 3]),
], ids=["float", "integral-float", "bool", "text", "odd-float", "odd-bool",
        "repeat-above-n", "repeat-below-1", "odd-above-n"])
def test_bad_exponents_and_odd_indices_are_rejected(x, odd):
    for coeff in (1, 0):
        with pytest.raises(ValueError):
            ExtPoly.from_terms(2, [(coeff, x, odd)])
    with pytest.raises(ValueError):
        from_json({"nvars": 2, "odd": OMEGA, "terms": [{"coeff": "1", "x": x, "odd": odd}]})


@pytest.mark.parametrize("text", ["1/0", "12/0", "0/0"])
def test_zero_denominators_are_rejected_by_name(text):
    message = f"coefficient '{text}' has a zero denominator"
    with pytest.raises(ValueError, match=message):
        normalize_coeff(text)
    with pytest.raises(ValueError, match=message):
        from_json({"nvars": 2, "odd": OMEGA, "terms": [{"coeff": text, "x": [1, 0], "odd": []}]})
    with pytest.raises(ValueError, match=message):
        parse(f"{text}*x1", 2)


def test_from_json_takes_integers_and_strings():
    text = '{"nvars": 2, "odd": "w", "terms": [%s]}'
    term = '{"coeff": %s, "x": [1, 0], "odd": []}'
    for coeff, want in (("3", 3), ('"3"', 3), ('"-1/2"', Fraction(-1, 2)), ('"4/2"', 2)):
        f = from_json(text % (term % coeff))
        assert f.coeff_of((1, 0)) == want and type(f.coeff_of((1, 0))) is type(want)
    with pytest.raises(TypeError):
        from_json(text % (term % "0.5"))


@pytest.mark.parametrize("nvars, x", [(True, [2]), (2.0, None)], ids=["bool", "float"])
def test_from_json_rejects_a_variable_count_that_is_not_an_int(nvars, x):
    terms = [] if x is None else [{"coeff": 1, "x": x, "odd": [1]}]
    with pytest.raises(ValueError, match="bad variable count"):
        from_json({"nvars": nvars, "odd": OMEGA, "terms": terms})
    with pytest.raises(ValueError, match="bad variable count"):
        ExtPoly.from_terms(nvars, [(c["coeff"], c["x"], c["odd"]) for c in terms])


def _all_int(f):
    return all(type(c) is int for c in f.terms.values())


@st.composite
def int_polys(draw, n, family):
    term = st.tuples(
        st.integers(-6, 6).filter(bool),
        st.tuples(*[st.integers(0, 3)] * n),
        st.sets(st.integers(1, n)).map(lambda m: tuple(sorted(m))),
    )
    return ExtPoly.from_terms(n, draw(st.lists(term, min_size=1, max_size=4)), family)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integral_coefficients_stay_int(data):
    n = data.draw(st.sampled_from([1, 2, 3]))
    family = data.draw(st.sampled_from([OMEGA, DX]))
    f, g = data.draw(int_polys(n, family)), data.draw(int_polys(n, family))
    k = data.draw(st.integers(-4, 4))
    i = data.draw(st.integers(1, n))
    results = [f + g, f - g, f * g, -f, f * k, k * f, f * Fraction(k), f + k, k - f,
               act_gen(i, f), parse(render(f), n, family), from_json(to_json(f))]
    if family == OMEGA:
        results.append(demazure(i, f))
    x = lambda j: ExtPoly.x(j, n, family)
    results.append(exact_div_linear(x(i) * f, i))
    if i < n:
        results.append(exact_div_linear((x(i) - x(n)) * f, i, n))
    for r in results:
        assert _all_int(r), render(r)


def test_gradings():
    # x-degree counts w_i as -2i, so the golden basis element is homogeneous
    assert degree(parse("w1 + x1^2*w2", 2), XDEG) == -2
    assert degree(parse("x1^2*dx1", 2), XDEG) == 3
    assert degree(parse("x1*x2*w1", 2), BIDEG) == (2, 1)
    # the N-indexed grading: x has degree 1, w_i degree 2(N - i) + 1
    assert degree(parse("w1", 3), DGN(2)) == 3
    assert degree(parse("w3", 3), DGN(2)) == -1
    # inhomogeneous input has no degree
    assert degree(parse("x1 + x1^2", 2), XDEG) is None
    with pytest.raises(ValueError):
        degree(parse("dx1", 2), DGN(2))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=6))
@example([1, 1])
@example([3, 1, 2, 1])
def test_normalize_mask_signs_by_the_inversion_count(seq):
    # the sign is (-1)^(number of out-of-order pairs); a repeated index kills the term
    got = _normalize_mask(seq)
    if len(set(seq)) != len(seq):
        assert got is None
        return
    inversions = sum(a > b for k, a in enumerate(seq) for b in seq[k + 1:])
    assert got == ((-1) ** inversions, tuple(sorted(seq)))


def test_exact_division():
    f = parse("x1^2 - x2^2", 2)
    q = exact_div_linear(f, 1, 2)
    assert render(q) == "x1 + x2"
    with pytest.raises(DivisionError):
        exact_div_linear(parse("x1", 2), 1, 2)
    g = parse("x2^3 + x1*x2", 2)
    assert render(exact_div_linear(g, 2)) == "x1 + x2^2"
    for bad in [(2, 1), (1, 1), (0,), (3,), (1, 3)]:
        with pytest.raises(ValueError):
            exact_div_linear(f, *bad)


def test_homogeneous_components_sum_back():
    rng = random.Random(3)
    f = random_poly(3, OMEGA, max_xdeg=4, max_terms=6, rng=rng)
    parts = f.homogeneous_components(DGN(3))
    total = ExtPoly.zero(3)
    for d, piece in parts.items():
        assert degree(piece, DGN(3)) == d
        total = total + piece
    assert total == f


@pytest.mark.parametrize("family", [OMEGA, DX])
def test_subtraction_adds_the_negation(family):
    rng = random.Random(5)
    for _ in range(20):
        f, g = (random_poly(3, family, rng=rng) for _ in range(2))
        assert f - g == f + (-g)
        assert (f - f).is_zero() and (f - g) + g == f
        assert f - 2 == f + ExtPoly.const(3, -2, family)
    with pytest.raises(ValueError, match="different rings"):
        ExtPoly.x(1, 3, family) - ExtPoly.x(1, 2, family)
