"""Signed permutations against an independent breadth-first model."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from nilheckeb import (
    DX,
    OMEGA,
    ExtPoly,
    SignedPerm,
    act,
    act_gen,
    act_word,
    compose,
    descent_walk,
    enumerate_group,
    from_word,
    gen,
    identity,
    inverse,
    is_reduced,
    length,
    longest_element,
    longest_word,
    parse,
    random_element,
    random_poly,
    run_walk,
    some_reduced_word,
    spine,
    spine_above,
    verify_weyl,
)
from nilheckeb import weylb
from nilheckeb.weylb import _braid_relations, _spine_window, _step


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lengths_match_bfs(n):
    dist = reference.bfs_lengths(n)
    group = enumerate_group(n)
    assert len(group) == len(dist)
    for w in group:
        assert length(w) == dist[w.window]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_longest_element(n):
    w0 = longest_element(n)
    assert w0.window == tuple(-i for i in range(1, n + 1))
    assert length(w0) == n * n
    word = longest_word(n)
    assert len(word) == n * n
    assert from_word(word, n) == w0


def test_group_arithmetic_against_windows():
    rng = random.Random(1)
    n = 3
    group = enumerate_group(n)
    for _ in range(30):
        u, v = rng.choice(group), rng.choice(group)
        assert compose(u, v).window == reference.win_mul(u.window, v.window)
        assert compose(u, inverse(u)) == identity(n)


def test_reduced_words():
    n = 2
    w0 = longest_element(n)
    words = reference.all_reduced_words(w0)
    assert len(words) == 2  # (1,2,1,2) and (2,1,2,1)
    assert all(is_reduced(word, n) and from_word(word, n) == w0 for word in words)
    assert not is_reduced((1, 1), n)
    assert some_reduced_word(identity(n)) == ()
    assert is_reduced(some_reduced_word(w0), n)


def test_reduced_words_of_the_longest_element_at_rank_3():
    # as many as the standard tableaux of the 3x3 square: 9!/(5*4*3*4*3*2*3*2*1)
    n = 3
    w0 = longest_element(n)
    words = reference.all_reduced_words(w0)
    assert len(words) == len(set(words)) == 42
    assert all(is_reduced(word, n) and from_word(word, n) == w0 for word in words)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_descent_walk_spells_a_reduced_word(n):
    for w in enumerate_group(n):
        letters = list(descent_walk(w.window))
        assert len(letters) == length(w)
        assert from_word(reversed(letters), n) == w


def test_descent_walk_strips_the_largest_descent_first():
    assert list(descent_walk(longest_element(3).window)) == [3, 2, 3, 2, 1, 2, 3, 2, 1]
    assert list(descent_walk((2, 3, 1))) == [2, 1]
    assert list(descent_walk(identity(4).window)) == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_run_walk_spells_a_reduced_word(n):
    for w in enumerate_group(n):
        letters = list(run_walk(w.window))
        assert len(letters) == length(w)
        assert from_word(reversed(letters), n) == w


def test_run_walk_climbs_ascending_runs():
    # each run starts at the smallest descent and carries one entry right;
    # a run that reaches n flips the entry's sign
    assert list(run_walk(longest_element(3).window)) == [1, 2, 3, 1, 2, 3, 1, 2, 3]
    assert list(run_walk((1, -2, 3))) == [2, 3, 2]
    assert list(run_walk((-1, 2))) == [1, 2, 1]
    assert list(run_walk((4, 1, 2, 3))) == [1, 2, 3]
    assert list(run_walk((2, 3, 1))) == [2, 1]
    assert list(run_walk((-1,))) == [1]
    assert list(run_walk(identity(4).window)) == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_spine_climbs_one_length_at_a_time(n):
    elements = [spine(ell, n) for ell in range(n * n + 1)]
    assert elements[0] == identity(n) and elements[-1] == longest_element(n)
    assert [length(u) for u in elements] == list(range(n * n + 1))
    # the first block u_r is s_(h_r) ... s_(h_1) for h = 1, 2, ..., n, ..., 2, 1
    h = list(range(1, n + 1)) + list(range(n - 1, 0, -1))
    for r in range(2 * n):
        assert spine(r, n) == from_word(reversed(h[:r]), n)


def test_spine_windows():
    assert [spine(ell, 3).window for ell in range(10)] == [
        (1, 2, 3), (2, 1, 3), (3, 1, 2), (-3, 1, 2), (-2, 1, 3), (-1, 2, 3),
        (-1, 3, 2), (-1, -3, 2), (-1, -2, 3), (-1, -2, -3)]
    with pytest.raises(ValueError, match="out of range"):
        spine(10, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_spine_window_is_the_spine_window(n):
    assert all(_spine_window(ell, n) == spine(ell, n).window for ell in range(n * n + 1))
    for ell in (-1, n * n + 1):
        errors = []
        for make in (_spine_window, spine):
            with pytest.raises(ValueError, match="out of range") as err:
                make(ell, n)
            errors.append(str(err.value))
        assert errors == [f"spine length {ell} out of range 0..{n * n}"] * 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_spine_above_matches_a_scan(n):
    # the lowest U(ell) with l(w^-1 U) = l(U) - l(w), found by trying every ell
    elements = [spine(ell, n) for ell in range(n * n + 1)]
    for w in enumerate_group(n):
        lw = length(w)
        scan = next(ell for ell, u in enumerate(elements)
                    if length(compose(inverse(w), u)) == ell - lw)
        assert spine_above(w) == scan


def test_action_on_even_variables():
    n = 3
    x = lambda i: ExtPoly.x(i, n)
    assert act_gen(1, x(1)) == x(2)
    assert act_gen(1, x(3)) == x(3)
    assert act_gen(3, x(3)) == -x(3)
    # rightmost letter first: s_1 after s_3
    f = parse("x1^2*x3 + x2", n)
    assert act_word((1, 3), f) == parse("x1 - x2^2*x3", n)


def test_twisted_action_on_odd_generators():
    n = 2
    w1 = ExtPoly.odd(1, n)
    w2 = ExtPoly.odd(2, n)
    x1 = ExtPoly.x(1, n)
    x2 = ExtPoly.x(2, n)
    assert act_gen(1, w1) == w1 + (x1 * x1 - x2 * x2) * w2
    assert act_gen(1, w2) == w2
    assert act_gen(2, w1) == w1
    assert act_gen(2, w2) == w2


def test_action_on_differential_family():
    n = 2
    dx1 = ExtPoly.odd(1, n, DX)
    dx2 = ExtPoly.odd(2, n, DX)
    assert act_gen(1, dx1) == dx2
    assert act_gen(2, dx2) == -dx2
    # the swap on a two-letter dx word carries the sign of the transposition
    assert act_gen(1, dx1 * dx2) == dx2 * dx1
    assert act_gen(1, dx1 * dx2) == -(dx1 * dx2)


@st.composite
def acted_polys(draw, n, i, family):
    """Up to four terms; when i < n, maybe every mask holds i and not i + 1,
    which brings in the twist of s_i(w_i)."""
    mask = st.sets(st.integers(1, n))
    if i < n and draw(st.booleans()):
        mask = mask.map(lambda m: (m | {i}) - {i + 1})
    term = st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.tuples(*[st.integers(0, 3)] * n),
        mask.map(sorted),
    )
    return ExtPoly.from_terms(n, draw(st.lists(term, max_size=4)), family)


@pytest.mark.parametrize("family", [OMEGA, DX])
@pytest.mark.parametrize("n, i", [(n, i) for n in range(1, 6) for i in range(1, n + 1)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_act_gen_is_the_product_of_the_generator_images(family, n, i, data):
    f = data.draw(acted_polys(n, i, family))
    assert act_gen(i, f) == reference.oracle_act_gen(i, f)


@pytest.mark.parametrize("text, image", [
    # the twist key x1^2*w2 of s_1(w1) meets the swapped key of -x2^2*w2 and
    # cancels: w1 - x2^2*w2 is s_1-invariant
    ("w1 - x2^2*w2", "w1 - x2^2*w2"),
    ("w1 + x2^2*w2", "w1 + 2*x1^2*w2 - x2^2*w2"),
])
def test_act_gen_twist_meets_a_swapped_term(text, image):
    f = parse(text, 2)
    assert act_gen(1, f) == parse(image, 2) == reference.oracle_act_gen(1, f)


def test_action_is_a_group_action():
    rng = random.Random(4)
    n = 3
    group = enumerate_group(n)
    for _ in range(20):
        u, v = rng.choice(group), rng.choice(group)
        f = random_poly(n, OMEGA if rng.random() < 0.5 else DX, rng=rng)
        assert act(compose(u, v), f) == act(u, act(v, f))


@pytest.mark.parametrize("n", range(1, 9))
def test_random_element_is_a_signed_permutation(n):
    rng = random.Random(n)
    for _ in range(20):
        w = random_element(n, rng)
        assert type(w) is SignedPerm and w.n == n
        assert sorted(abs(v) for v in w.window) == list(range(1, n + 1))


def test_random_element_is_uniform_at_rank_two():
    rng = random.Random(0)
    counts = Counter(random_element(2, rng).window for _ in range(8000))
    assert set(counts) == {w.window for w in enumerate_group(2)}
    assert all(abs(c - 1000) <= 150 for c in counts.values()), counts


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_each_call_gets_its_own_list_of_the_shared_elements(n, monkeypatch):
    monkeypatch.setattr(weylb, "_GROUPS", {})
    first, second = enumerate_group(n), enumerate_group(n)
    assert first == second and first is not second
    assert all(u is v for u, v in zip(first, second))
    want = list(first)
    first.clear()
    second.reverse()
    assert enumerate_group(n) == want
    assert [w.window for w in want] == sorted(w.window for w in want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stored_lengths_match_bfs(n, monkeypatch):
    monkeypatch.setattr(weylb, "_GROUPS", {})
    dist = reference.bfs_lengths(n)
    for _ in range(2):  # the first call counts and stores, the second reads back
        group = enumerate_group(n)
        assert len(group) == len(dist)
        assert all(length(w) == dist[w.window] for w in group)
        assert all(length(SignedPerm(w.window)) == dist[w.window] for w in group)


def test_the_group_cap_raises_before_any_work(monkeypatch):
    monkeypatch.setattr(weylb, "_GROUPS", {})
    monkeypatch.setattr(weylb.itertools, "permutations", None)
    with pytest.raises(ValueError, match="capped at n = 5"):
        enumerate_group(6)
    assert weylb._GROUPS == {}


def test_the_weyl_suite_reads_the_same_twice_in_one_process():
    assert verify_weyl(4).to_json() == verify_weyl(4).to_json()


@pytest.mark.parametrize("n", [2, 3])
def test_suite_green(n):
    rep = verify_weyl(n, trials=25, seed=0)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_step_is_right_multiplication_by_a_generator(n):
    for t in enumerate_group(n):
        for i in range(1, n + 1):
            win = list(t.window)
            grew = _step(win, i)
            ts = compose(t, gen(i, n))
            assert tuple(win) == ts.window
            assert grew == (length(ts) > length(t))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_some_reduced_word_strips_the_smallest_descent_first(n):
    for w in enumerate_group(n):
        assert some_reduced_word(w) == reference.oracle_some_reduced_word(w)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_is_reduced_is_the_length_test(data):
    n = data.draw(st.integers(1, 5))
    word = tuple(data.draw(st.lists(st.integers(1, n), max_size=n * n + 2)))
    assert is_reduced(word, n) == (length(from_word(word, n)) == len(word))


@pytest.mark.parametrize("word", [(9,), (0,), (-1,), (2, 4), (1, 1, 9)])
def test_an_out_of_range_letter_raises(word):
    # (1, 1, 9) is not reduced by its second letter, and still raises
    for fn in (is_reduced, from_word):
        with pytest.raises(ValueError, match=r"generator index -?\d out of range 1\.\.3"):
            fn(word, 3)
    with pytest.raises(ValueError, match="generator index 4 out of range 1..3"):
        _step([1, 2, 3], 4)


@pytest.mark.parametrize("window", [(), (1.0, 2), (True, 2), (2, 1.0), (2, True)])
def test_a_window_of_rank_zero_or_with_entries_that_are_not_ints_is_refused(window):
    # (1.0, 2) compares equal to identity(2) and (True, 2) to its window
    with pytest.raises(ValueError, match="bad window"):
        SignedPerm(window)


@pytest.mark.parametrize("build", [identity, enumerate_group, longest_element,
                                   lambda n: random_element(n, random.Random(0))])
def test_the_group_constructors_refuse_rank_zero(build):
    with pytest.raises(ValueError):
        build(0)


@pytest.mark.parametrize("n", range(1, 7))
def test_braid_relations_pair_reduced_words_of_one_element(n):
    kinds = _braid_relations(n)
    assert list(kinds) == ["distant", "adjacent"] + (["length-4"] if n >= 2 else [])
    assert len(kinds["distant"]) == (n - 1) * (n - 2) // 2
    assert len(kinds["adjacent"]) == max(n - 2, 0)
    assert len(kinds.get("length-4", [])) == (n >= 2)
    for pairs in kinds.values():
        for a, b in pairs:
            assert a != b and len(a) == len(b)
            assert is_reduced(a, n) and is_reduced(b, n)
            assert from_word(a, n) == from_word(b, n)
