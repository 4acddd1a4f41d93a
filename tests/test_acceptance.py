"""Acceptance gate: eight criteria, one printed pass/fail line each.

Every comparison is exact; each criterion carries a wall-clock budget
which is asserted alongside the mathematical content.
"""

import random
import time

import conftest
import reference
from reference import rank
from nilheckeb import (
    Differential,
    ExtPoly,
    NHElement,
    OMEGA,
    act_gen,
    check_char1,
    check_char2,
    d_apply,
    decompose_schubert,
    default_admissible,
    default_invariant_gens,
    demazure,
    demazure_word,
    enumerate_group,
    exterior_d,
    invariant_schur_basis,
    is_invariant,
    length,
    nh_act,
    nh_mul,
    p_matrix,
    pbw_well_formed,
    poincare,
    random_poly,
    render,
    schur_ext,
    schubert,
    solomon_compare,
    validate_admissible,
    verify_J,
)
from nilheckeb.nilhecke import _random_nh


def _verdict(num, ok, elapsed, budget, label):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} ({elapsed:.2f}s / budget {budget:.0f}s) {label}"
    print(line)
    conftest.record_verdict(line)


def test_criterion_1_golden_schur_values():
    t0 = time.perf_counter()
    ok = True

    golden2 = {
        (): "1",
        (1,): "w1 + x1^2*w2",
        (2,): "w2",
        (1, 2): "w1*w2",
    }
    for beta, text in golden2.items():
        ok = ok and render(schur_ext((), beta, 2)) == text
    s1 = schur_ext((), (1,), 2)
    s2 = schur_ext((), (2,), 2)
    s12 = schur_ext((), (1, 2), 2)
    ok = ok and s1 * s2 == s12
    ok = ok and (s1 * s12).is_zero()
    ok = ok and (s2 * s12).is_zero()
    t_n2 = time.perf_counter() - t0

    t1 = time.perf_counter()
    ok = ok and render(schur_ext((0, 0, 0), (), 3)) == "1"
    ok = ok and render(schur_ext((0, 0, 0), (1,), 3)) == "w1 + x1^2*w2 + x1^2*x2^2*w3"
    t_n3 = time.perf_counter() - t1

    elapsed = max(t_n2, t_n3)
    ok = ok and t_n2 < 1.0 and t_n3 < 1.0
    _verdict(1, ok, elapsed, 1, "golden Schur values and products")
    assert ok


def test_criterion_2_admissible_matrix_and_transforms():
    t0 = time.perf_counter()
    ok = True
    n = 3
    P = p_matrix(default_admissible(n))
    expected = [
        ["1", "-x2^2 - x3^2", "x3^4"],
        ["0", "1", "-x3^2"],
        ["0", "0", "1"],
    ]
    ok = ok and [[render(e) for e in row] for row in P.entries] == expected
    omega = [ExtPoly.odd(i, n) for i in range(1, n + 1)]
    Pw = P.mul_vector(omega)
    ok = ok and render(Pw[0]) == "w1 - x2^2*w2 - x3^2*w2 + x3^4*w3"
    ok = ok and render(Pw[1]) == "w2 - x3^2*w3"
    ok = ok and render(Pw[2]) == "w3"
    ok = ok and validate_admissible(default_admissible(n)).passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(2, ok, elapsed, 1, "admissible matrix and omega transforms")
    assert ok


def test_criterion_3_relation_suites():
    t0 = time.perf_counter()
    ok = True
    n = 3
    rng = random.Random(0)
    gens = list(range(1, n + 1))
    diffs = {N: Differential(N, n) for N in (2, 3, 4)}

    from nilheckeb import act_gen, act_word

    for _ in range(100):
        f = random_poly(n, OMEGA, max_xdeg=3, max_terms=3, rng=rng)
        g = random_poly(n, OMEGA, max_xdeg=3, max_terms=3, rng=rng)

        # group relations through the action
        ok = ok and act_gen(1, act_gen(1, f)) == f
        ok = ok and act_word((1, 2, 1), f) == act_word((2, 1, 2), f)
        ok = ok and act_word((2, 3, 2, 3), f) == act_word((3, 2, 3, 2), f)
        ok = ok and act_word((1, 3), f) == act_word((3, 1), f)

        # divided differences: nil, braid, twisted Leibniz
        i = rng.choice(gens)
        ok = ok and demazure(i, demazure(i, f)).is_zero()
        ok = ok and demazure_word((1, 2, 1), f) == demazure_word((2, 1, 2), f)
        ok = ok and demazure_word((2, 3, 2, 3), f) == demazure_word((3, 2, 3, 2), f)
        ok = ok and demazure(i, f * g) == demazure(i, f) * g + act_gen(i, f) * demazure(i, g)

        # operator relations under the action
        a = _random_nh(n, rng, max_terms=2)
        b = _random_nh(n, rng, max_terms=2)
        ok = ok and nh_act(nh_mul(a, b), f) == nh_act(a, nh_act(b, f))

        # differentials: square zero and commutation, N in {2,3,4}
        for N, dN in diffs.items():
            ok = ok and d_apply(dN, d_apply(dN, f)).is_zero()
            ok = ok and d_apply(dN, demazure(i, f)) == demazure(i, d_apply(dN, f))

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(3, ok, elapsed, 30, "relation suites at rank three, 100 randoms")
    assert ok


def test_criterion_4_pbw_and_faithfulness():
    t0 = time.perf_counter()
    ok = True
    n = 2
    rng = random.Random(1)

    for _ in range(50):
        a = _random_nh(n, rng)
        b = _random_nh(n, rng)
        f = random_poly(n, OMEGA, max_xdeg=3, max_terms=3, rng=rng)
        ok = ok and nh_act(nh_mul(a, b), f) == nh_act(a, nh_act(b, f))

    atoms = [NHElement.x(1, n), NHElement.x(2, n),
             NHElement.omega(1, n), NHElement.omega(2, n),
             NHElement.dee_word((1,), n), NHElement.dee_word((2,), n)]
    for _ in range(50):
        prod = NHElement.one(n)
        for g in (rng.choice(atoms) for _ in range(rng.randint(1, 7))):
            prod = nh_mul(prod, g)
        ok = ok and pbw_well_formed(prod)

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(4, ok, elapsed, 30, "PBW rewriting and action compatibility")
    assert ok


def test_criterion_5_graded_ranks():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3, 4):
        ok = ok and poincare(n) == reference.oracle_poincare(n)

    n = 2
    group = enumerate_group(n)
    polys = [schubert(w) for w in group]
    ok = ok and len(polys) == 8
    monomials = sorted({key for f in polys for key in f.terms})
    rows = [[f.terms.get(k, 0) for k in monomials] for f in polys]
    ok = ok and rank(rows) == 8
    degs = sorted(max(sum(e) for (e, _) in f.terms) for f in polys)
    want = sorted(d for d, c in enumerate(poincare(n)) for _ in range(c))
    ok = ok and degs == want

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict(5, ok, elapsed, 10, "Poincare products and Schubert independence")
    assert ok


def test_criterion_6_invariant_ring():
    t0 = time.perf_counter()
    ok = True
    n = 2
    basis = [f for k in range(n + 1) for _, f in invariant_schur_basis(n, k)]
    ok = ok and len(basis) == 4
    ok = ok and all(is_invariant(f) for f in basis)

    rng = random.Random(2)
    for _ in range(25):
        f = random_poly(n, OMEGA, max_xdeg=3, max_terms=4, rng=rng)
        coeffs = decompose_schubert(f)
        back = ExtPoly.zero(n)
        for w, g in coeffs.items():
            ok = ok and is_invariant(g)
            back = back + g * schubert(w)
        ok = ok and back == f

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(6, ok, elapsed, 30, "invariant basis and Schubert decomposition")
    assert ok


def test_criterion_7_solomon_suite():
    t0 = time.perf_counter()
    ok = True

    # characterization checks at both ranks
    for n in (2, 3):
        ok = ok and check_char1(default_admissible(n)).passed
        P = p_matrix(default_admissible(n))
        theta = [ExtPoly.odd(i, n) for i in range(1, n + 1)]
        ok = ok and check_char2(P, theta).passed

    # every divided difference kills df_j: each generator fixes it
    for n in (2, 3, 4):
        for f in default_invariant_gens(n):
            df = exterior_d(f)
            ok = ok and all(act_gen(k, df) == df for k in range(1, n + 1))

    # the full equivariance suite at rank two
    ok = ok and verify_J(2).passed

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(7, ok, elapsed, 60, "exterior-derivative suite and characterizations")
    assert ok


def test_criterion_8_scaling_surrogates():
    t0 = time.perf_counter()
    ok = True

    # oracle equivalence at small rank: group lengths and operators
    for n in (1, 2, 3):
        dist = reference.bfs_lengths(n)
        group = enumerate_group(n)
        ok = ok and len(group) == len(dist)
        ok = ok and all(length(w) == dist[w.window] for w in group)
    rng = random.Random(3)
    for n in (2, 3):
        for _ in range(10):
            f = random_poly(n, OMEGA, max_xdeg=4, max_terms=4, rng=rng)
            even = ExtPoly(n, OMEGA, {k: c for k, c in f.terms.items() if not k[1]})
            i = rng.randint(1, n)
            want = reference.from_sympy(
                reference.sy_demazure(i, reference.to_sympy(even), n), n
            )
            ok = ok and demazure(i, even) == want

    # graded ranks again at the largest desk rank
    ok = ok and poincare(4) == reference.oracle_poincare(4)

    # bidegree-wise dimension agreement for the invariant comparison: three
    # leading-term and invariance checks, and one count check per b
    for n in range(1, 9):
        rep = solomon_compare(n)
        ok = ok and rep.passed and len(rep.checks) == n + 4

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(8, ok, elapsed, 60, "scaling surrogates: oracles, ranks, dimensions")
    assert ok
