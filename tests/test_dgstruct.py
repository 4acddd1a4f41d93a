"""The N-indexed differentials: frozen images, d^2 = 0, commutation."""

import random

import pytest

from nilheckeb import (
    DGN,
    Differential,
    NHElement,
    OMEGA,
    d_apply,
    d_apply_nh,
    degree,
    demazure,
    parse,
    random_poly,
    render,
    verify_dg,
)


def test_frozen_generator_images():
    d3 = Differential(3, 3)
    assert render(d3.of_generator(1)) == "-x1^6"
    assert render(d3.of_generator(2)) == "x1^4 + x1^2*x2^2 + x2^4"
    assert render(d3.of_generator(3)) == "-x1^2 - x2^2 - x3^2"
    d2 = Differential(2, 3)
    assert render(d2.of_generator(3)) == "-1"
    # N smaller than the index: the complete-homogeneous window is empty
    assert Differential(2, 3).of_generator(3) == parse("-1", 3)
    assert d_apply(Differential(1, 2), parse("w2", 2)) == parse("1", 2)


def test_kills_even_polynomials():
    dN = Differential(2, 2)
    rng = random.Random(0)
    f = random_poly(2, OMEGA, rng=rng)
    even = parse("x1^2*x2 + 3*x2", 2)
    assert d_apply(dN, even).is_zero()


def test_two_letter_prefix_sign():
    n, N = 2, 2
    dN = Differential(N, n)
    got = d_apply(dN, parse("w1*w2", n))
    # d(w1) w2 - w1 d(w2), with d(w2) = x1^2 + x2^2
    want = dN.of_generator(1) * parse("w2", n) - parse("w1", n) * dN.of_generator(2)
    assert got == want


@pytest.mark.parametrize("n,N", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_square_zero_and_grading(n, N):
    dN = Differential(N, n)
    rng = random.Random(n * 10 + N)
    for _ in range(10):
        f = random_poly(n, OMEGA, rng=rng)
        assert d_apply(dN, d_apply(dN, f)).is_zero()
        for deg, comp in f.homogeneous_components(DGN(N)).items():
            img = d_apply(dN, comp)
            if not img.is_zero():
                assert degree(img, DGN(N)) == deg + 1


@pytest.mark.parametrize("n,N", [(2, 2), (3, 2), (3, 4)])
def test_commutes_with_divided_differences(n, N):
    dN = Differential(N, n)
    rng = random.Random(n + N)
    for _ in range(10):
        f = random_poly(n, OMEGA, rng=rng)
        for i in range(1, n + 1):
            assert d_apply(dN, demazure(i, f)) == demazure(i, d_apply(dN, f))


def test_extends_to_operator_algebra():
    n, N = 2, 2
    dN = Differential(N, n)
    a = NHElement.omega(1, n) * NHElement.dee_word((1,), n)
    da = d_apply_nh(dN, a)
    want = NHElement.from_poly(dN.of_generator(1)) * NHElement.dee_word((1,), n)
    assert da == want
    # basis operators are cycles
    assert d_apply_nh(dN, NHElement.dee_word((1, 2), n)).is_zero()


@pytest.mark.parametrize("n,N", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_suite_green(n, N):
    rep = verify_dg(n, N, trials=10, seed=0)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("seed", range(10))
def test_odd_derivation_rule_runs_at_one_trial(seed):
    for N in (2, 3, 4):
        rep = verify_dg(2, N, trials=1, seed=seed)
        check = next(c for c in rep.checks if c.check == "odd derivation rule")
        assert check.passed
        assert check.detail != "no trial ran"


@pytest.mark.parametrize("N, nvars, named", [
    (True, 2, "N"), (0, 2, "N"), (2.0, 2, "N"),
    (2, 0, "nvars"), (2, -1, "nvars"), (2, True, "nvars"), (2, "2", "nvars")])
def test_a_differential_refuses_an_index_or_rank_that_is_not_a_positive_int(N, nvars, named):
    with pytest.raises(ValueError, match=f"{named} = "):
        Differential(N, nvars)
