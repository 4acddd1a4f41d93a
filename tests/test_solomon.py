"""Exterior derivative, the admissible matrix, and J."""

import math
from collections import Counter
from fractions import Fraction

import pytest

import reference
from nilheckeb import (
    DX,
    ExtPoly,
    JMap,
    PolyMatrix,
    act_gen,
    build_J,
    chain_word,
    check_char1,
    check_char2,
    default_admissible,
    default_invariant_gens,
    demazure_word,
    enumerate_group,
    exterior_d,
    invariant_schur_basis,
    p_matrix,
    parse,
    render,
    solomon_compare,
    validate_admissible,
    verify_J,
    verify_solomon,
)
from nilheckeb import solomon
from nilheckeb.solomon import _invariant_dimensions, _product_counts, _signed_classes

INDEPENDENT = "images of the invariant basis stay independent"


def test_exterior_derivative():
    n = 2
    assert render(exterior_d(parse("x1^2*x2", n))) == "2*x1*x2*dx1 + x1^2*dx2"
    assert exterior_d(parse("5", n)).is_zero()
    # d of a square lands in the even-exponent lattice times dx
    f = parse("x1^2 + x2^2", n)
    assert render(exterior_d(f)) == "2*x1*dx1 + 2*x2*dx2"


def test_chain_words():
    assert chain_word(1, 3) == (2, 1, 3, 2)
    assert chain_word(2, 3) == (3, 2)
    assert chain_word(3, 3) == ()
    assert chain_word(1, 2) == (2, 1)


def test_default_tuple_is_admissible():
    for n in (2, 3):
        rep = validate_admissible(default_admissible(n))
        assert rep.passed, str(rep)


def test_tuple_must_have_one_entry_per_variable():
    short = default_admissible(3)[:2]
    for fn in (validate_admissible, p_matrix, check_char1):
        with pytest.raises(ValueError):
            fn(short)
    with pytest.raises(ValueError):
        build_J(n=3, p=short)
    assert p_matrix(list(default_admissible(3))) == p_matrix(default_admissible(3))


@pytest.mark.parametrize("fn", [validate_admissible, p_matrix, check_char1,
                                lambda p: build_J(p=p, n=2)],
                         ids=["validate_admissible", "p_matrix", "check_char1", "build_J"])
def test_a_tuple_entry_with_an_odd_generator_is_refused(fn):
    # x2^6*w2 has x-degree 2, as p_1 should, and once passed every check of
    # validate_admissible and check_char1
    with pytest.raises(ValueError, match="holds an odd generator"):
        fn((parse("x2^6*w2", 2), parse("1", 2)))


def test_build_J_rejects_generators_of_the_wrong_count():
    # two generators at rank 3 once gave a third image 0 without a word
    with pytest.raises(ValueError, match="expected 3 invariant generators"):
        build_J(fgens=default_invariant_gens(3)[:2])
    with pytest.raises(ValueError, match="got none"):
        build_J(fgens=[])


def test_build_J_rejects_generators_of_mixed_ranks():
    mixed = default_invariant_gens(3)[:2] + default_invariant_gens(2)[:1]
    with pytest.raises(ValueError, match="mix the ranks 2, 3"):
        build_J(fgens=mixed)


def test_build_J_rejects_a_rank_other_than_the_generators():
    with pytest.raises(ValueError, match="n = 2 disagrees"):
        build_J(fgens=default_invariant_gens(3), n=2)
    with pytest.raises(ValueError, match="n = 2 disagrees"):
        verify_J(2, fgens=default_invariant_gens(3))
    assert build_J(fgens=default_invariant_gens(3), n=3).images == build_J(n=3).images


def test_build_J_rejects_a_tuple_of_another_rank():
    with pytest.raises(ValueError, match="admissible tuple has rank 2, the generators rank 3"):
        build_J(n=3, p=default_admissible(2))
    with pytest.raises(ValueError, match="admissible tuple has rank 4, the generators rank 3"):
        build_J(fgens=default_invariant_gens(3), p=default_admissible(4))


@pytest.mark.parametrize("rows, reason", [
    ([], "one row per variable, got 0 of ranks \\[\\]"),
    ([[ExtPoly.one(2), ExtPoly.zero(3)], [ExtPoly.zero(2), ExtPoly.one(2)]], "mix the ranks 2, 3"),
], ids=["empty", "mixed-ranks"])
def test_poly_matrix_refuses_no_rows_and_mixed_ranks(rows, reason):
    # the empty matrix raised IndexError, and mixed ranks were taken silently
    with pytest.raises(ValueError, match=reason):
        PolyMatrix(rows)


def test_chain_on_default_tuple_gives_unit():
    n = 3
    p1, p2, p3 = default_admissible(n)
    assert render(p1) == "x3^4"
    assert render(p2) == "-x3^2"
    assert render(p3) == "1"
    assert render(demazure_word(chain_word(1, n), p1)) == "1"


def test_frozen_matrix_rank_two():
    P = p_matrix(default_admissible(2)).entries
    assert [[render(e) for e in row] for row in P] == [["1", "-x2^2"], ["0", "1"]]


def test_frozen_matrix_rank_three():
    P = p_matrix(default_admissible(3)).entries
    expected = [
        ["1", "-x2^2 - x3^2", "x3^4"],
        ["0", "1", "-x3^2"],
        ["0", "0", "1"],
    ]
    assert [[render(e) for e in row] for row in P] == expected


def test_frozen_omega_transform():
    n = 3
    P = p_matrix(default_admissible(n))
    omega = [ExtPoly.odd(i, n) for i in range(1, n + 1)]
    Pw = P.mul_vector(omega)
    assert render(Pw[0]) == "w1 - x2^2*w2 - x3^2*w2 + x3^4*w3"
    assert render(Pw[1]) == "w2 - x3^2*w3"
    assert render(Pw[2]) == "w3"


def test_characterizations():
    for n in (2, 3):
        p = default_admissible(n)
        rep = check_char1(p)
        assert rep.passed, str(rep)
        assert len(rep.checks) == 4
        P = p_matrix(p)
        theta = [ExtPoly.odd(i, n) for i in range(1, n + 1)]
        rep2 = check_char2(P, theta)
        assert rep2.passed, str(rep2)


def test_char2_flags_broken_column():
    n = 2
    P = p_matrix(default_admissible(n))
    bad = [ExtPoly.x(1, n) * ExtPoly.odd(1, n), ExtPoly.odd(2, n)]
    rep = check_char2(P, bad)
    assert not rep.passed


def test_condition_three_checks_every_table_entry():
    n = 3
    P = p_matrix(default_admissible(n))
    table = "condition 3: the column obeys the generator table"
    # d_1 (w1 + x3) = d_1 w1 as the table says, but d_2 (w1 + x3) = -1, not 0
    theta = [ExtPoly.odd(1, n) + ExtPoly.x(3, n), ExtPoly.odd(2, n), ExtPoly.odd(3, n)]
    assert not {c.check: c.passed for c in check_char2(P, theta).checks}[table]
    # dx1 - s_1 dx1 = dx1 - dx2 has no quotient by x1 - x2; nothing is divided
    bare_dx = [ExtPoly.odd(i, n, DX) for i in range(1, n + 1)]
    assert not {c.check: c.passed for c in check_char2(P, bare_dx).checks}[table]


def test_exterior_derivatives_of_invariants_are_killed():
    # every divided difference of df_j vanishes: df_j is fixed by each generator
    for n in (2, 3, 4):
        for f in default_invariant_gens(n):
            df = exterior_d(f)
            for k in range(1, n + 1):
                assert act_gen(k, df) == df


def test_solved_images_rank_two():
    n = 2
    J = build_J(n=n)
    f1, f2 = default_invariant_gens(n)
    assert J.of_generator(2) == exterior_d(f2)
    assert J.of_generator(1) == exterior_d(f1) + parse("x2^2", n).as_family(DX) * exterior_d(f2)


def test_equivariance_suite_rank_two():
    rep = verify_J(2)
    assert rep.passed, str(rep)


def test_clean_table_holds_rank_three():
    rep = verify_J(3)
    assert rep.passed, str(rep)
    table = [c for c in rep.checks if "generator table" in c.check]
    assert len(table) == 1 and table[0].passed


def test_mixing_matrix_values_rank_three():
    # d_k J(w) = M_k J(w) with M_k zero but for -(x_k + x_{k+1}) at (k, k+1),
    # checked as J(w_j) - s_k J(w_j) = alpha_k * (M_k J(w))_j
    n = 3
    J = build_J(n=n)
    x = lambda i: ExtPoly.x(i, n, DX)
    mixing = {(1, 1): -(x(1) + x(2)), (2, 2): -(x(2) + x(3))}  # (k, j) -> M_k[j, k + 1]
    for k in range(1, n + 1):
        root = x(k) - x(k + 1) if k < n else 2 * x(n)
        for j in range(1, n + 1):
            img = J.of_generator(j)
            if (k, j) in mixing:
                row = mixing[k, j] * J.of_generator(k + 1)
            else:
                row = ExtPoly.zero(n, DX)
            assert img - act_gen(k, img) == root * row, (k, j)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_solved_images_satisfy_the_matrix_relation(n):
    P = p_matrix(default_admissible(n))
    assert P.mul_vector(build_J(n=n).images) == [exterior_d(f) for f in default_invariant_gens(n)]


def test_doubled_tuple_halves_the_images():
    # 2p is admissible with diagonal 2: the one case that divides by a P_jj other than 1
    for n in (2, 3, 4):
        doubled = tuple(2 * q for q in default_admissible(n))
        assert validate_admissible(doubled).passed
        halved = [img * Fraction(1, 2) for img in build_J(n=n).images]
        assert build_J(p=doubled, n=n).images == halved, n


def test_columns_of_the_wrong_length_are_rejected():
    # a short column once gave a trailing 0 in mul_vector and an unrelated error in check_char2
    n = 3
    P = p_matrix(default_admissible(n))
    for size in (2, 4):
        theta = [ExtPoly.odd(i % n + 1, n) for i in range(size)]
        with pytest.raises(ValueError, match=f"a column of {size} entries"):
            P.mul_vector(theta)
        with pytest.raises(ValueError, match=f"expected 3 column entries, one per variable, got {size}"):
            check_char2(P, theta)
    with pytest.raises(ValueError, match="a column of rank 2 against a matrix of rank 3"):
        check_char2(P, [ExtPoly.odd(i, 2) for i in (1, 2)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_solved_images_match_closed_form(n):
    J = build_J(n=n)
    for j in range(1, n + 1):
        assert J.of_generator(j) == reference.oracle_J_image(j, n), j


@pytest.mark.parametrize("n, max_a", [(1, 8), (2, 8), (3, 6)])
def test_molien_matches_the_dense_oracle(n, max_a):
    want = [[reference.oracle_invariant_dimension(n, a, b) for b in range(n + 1)]
            for a in range(max_a + 1)]
    assert _invariant_dimensions(n, max_a) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_sizes_match_the_enumerated_cycle_types(n):
    counts = Counter(reference.signed_cycle_type(w.window) for w in enumerate_group(n))
    assert _signed_classes(n) == counts


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_invariant_dimensions_match(n):
    rep = solomon_compare(n)
    assert rep.passed, str(rep)
    assert len(rep.checks) == 3 + (n + 1)


@pytest.mark.parametrize("n", [2, 3])
def test_the_product_count_is_the_dense_product_rank(n):
    # the rank of every product m * df_T, which solomon_compare took for a <= 6
    counts = _product_counts(n, 6)
    for a in range(7):
        for b in range(n + 1):
            assert reference.oracle_product_rank(n, a, b) == counts[a][b], (a, b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_count_matches_molien_past_the_degree_bound(n):
    # solomon_compare stops at a = n^2 by its docstring's argument
    assert _invariant_dimensions(n, 3 * n * n) == _product_counts(n, 3 * n * n)


def test_a_generator_whose_leading_term_repeats_another_fails(monkeypatch):
    # e_1^2 in place of e_2: invariant, of the right degree, and leading with x1^4
    # like the f-monomial e_1^2, so the products of bidegree (4,0) lose a rank
    n = 3

    def patched(n):
        gens = default_invariant_gens(n)
        gens[n - 2] = gens[n - 1] ** 2
        return gens

    monkeypatch.setattr(solomon, "default_invariant_gens", patched)
    checks = {c.check: c for c in solomon_compare(n).checks}
    lead = checks["each e_k(x^2) leads with x_1^2...x_k^2 and no odd letter"]
    assert not lead.passed and lead.detail == "e_2, bidegree (4,0)"
    assert not checks["each d e_k has one leading term, x_1^2...x_(k-1)^2 x_k dx_k"].passed
    assert checks["each e_k and d e_k is s_i-invariant for every i"].passed
    assert reference.oracle_product_rank(n, 4, 0, patched(n)) == 1
    assert reference.oracle_product_rank(n, 4, 0) == _product_counts(n, 4)[4][0] == 2


def test_a_generator_that_is_not_invariant_fails(monkeypatch):
    # e_1 + x3^2 and its d lead like e_1 and d e_1, but s_2 moves them
    n = 3

    def patched(n):
        gens = default_invariant_gens(n)
        gens[n - 1] = gens[n - 1] + ExtPoly.x(n, n) ** 2
        return gens

    monkeypatch.setattr(solomon, "default_invariant_gens", patched)
    failed = [(c.check, c.detail) for c in solomon_compare(n).checks if not c.passed]
    assert failed == [("each e_k and d e_k is s_i-invariant for every i", "e_1, bidegree (2,0)")]


def test_a_wrong_molien_entry_fails_its_count_check(monkeypatch):
    n = 3

    def patched(n, max_a):
        dims = _invariant_dimensions(n, max_a)
        dims[5][1] += 1
        return dims

    monkeypatch.setattr(solomon, "_invariant_dimensions", patched)
    failed = [c for c in solomon_compare(n).checks if not c.passed]
    assert [(c.check, c.detail) for c in failed] == [
        ("b = 1: Molien's dimensions equal the product counts for a <= 9",
         "bidegree (5,1): dimension 5, 4 products")]


def test_verify_solomon_names_the_failing_count(monkeypatch):
    n = 3

    def patched(n, max_a):
        dims = _invariant_dimensions(n, max_a)
        dims[5][1] += 1
        return dims

    monkeypatch.setattr(solomon, "_invariant_dimensions", patched)
    failed = [(c.check, c.detail) for c in verify_solomon(n).checks if not c.passed]
    assert failed == [
        ("invariant dimensions match the generator picture",
         "b = 1: Molien's dimensions equal the product counts for a <= 9: "
         "bidegree (5,1): dimension 5, 4 products")]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_images_are_wedges_of_the_one_column_images(n):
    # the certificate's premise, and the dense rank over all 2^n images it replaces
    J = build_J(n=n)
    theta = {beta: J.apply(s) for (beta,), s in invariant_schur_basis(n, 1)}
    images = []
    for k in range(n + 1):
        for beta, s in invariant_schur_basis(n, k):
            images.append(J.apply(s))
            assert images[-1] == math.prod((theta[i] for i in beta), start=ExtPoly.one(n, DX))
    assert reference.span_rank(images) == len(images) == 2**n
    assert {c.check: c.passed for c in verify_J(n).checks}[INDEPENDENT]


def _patch_images(monkeypatch, change):
    """Make solomon.build_J return ``change`` of the solved images."""
    def patched(*args, **kwargs):
        J = build_J(*args, **kwargs)
        return JMap(change(J.images), J.nvars)
    monkeypatch.setattr(solomon, "build_J", patched)


def test_verify_solomon_builds_J_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_J(*args, **kwargs)

    monkeypatch.setattr(solomon, "build_J", counting)
    assert verify_solomon(3, trials=2).passed
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_repeated_image_fails_the_independence_check(monkeypatch, n):
    _patch_images(monkeypatch, lambda images: [images[0], images[0], *images[2:]])
    assert not {c.check: c.passed for c in verify_J(n).checks}[INDEPENDENT]
    assert not verify_solomon(n, trials=2).passed


INVARIANT = "images of invariants are invariant"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_non_invariant_image_fails_the_invariance_check(monkeypatch, n):
    # x1^(2n-1) dx1 has the bidegree of J(w_1), but s_1 moves it
    extra = ExtPoly.x(1, n, DX) ** (2 * n - 1) * ExtPoly.odd(1, n, DX)
    _patch_images(monkeypatch, lambda images: [images[0] + extra, *images[1:]])
    checks = {c.check: c for c in verify_J(n).checks}
    assert not checks[INVARIANT].passed
    assert checks[INVARIANT].detail == "s_1 moves J(S_(1))"
    assert checks["generator images are bihomogeneous of the right degrees"].passed
    failed = {c.check: c.detail for c in verify_solomon(n).checks if not c.passed}
    assert failed["equivariance suite"].startswith(
        "divided differences of the images follow the generator table")


def test_verify_solomon_passes_with_no_failure_detail():
    assert all(c.detail == "" for c in verify_solomon(3).checks)


@pytest.mark.parametrize("extra", ["x1", "dx1*dx2"])
def test_an_image_term_without_one_dx_letter_fails_the_independence_check(monkeypatch, extra):
    n = 3
    _patch_images(monkeypatch, lambda images: [images[0] + parse(extra, n, DX), *images[1:]])
    assert not {c.check: c.passed for c in verify_J(n).checks}[INDEPENDENT]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_suite_green(n):
    rep = verify_solomon(n, trials=6, seed=0)
    assert rep.passed, str(rep)
