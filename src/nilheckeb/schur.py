"""Extended Schur and Schubert polynomials and the invariant calculus.

The extended Schur polynomial S_(alpha,beta) is the image of a
staircase-shifted monomial times w_beta under the full divided
difference of the longest element.  The staircase orientation matters
only in the presence of odd generators: schur_ext uses the ascending
orientation (exponent 2i-1 on x_i, alpha reversed to match) with a
compensating global sign, which is the orientation whose one-column
values have the elementary-symmetric closed form implemented in
schur_closed_form.  On purely even inputs both orientations agree.
Schubert polynomials are the images of the bare descending staircase
x_1^(2n-1) ... x_n under the divided differences of w^{-1} w_0.
"""

from __future__ import annotations

import itertools
import math
import random

from . import _kernels_py as _k, linalg
from .demazure import demazure, demazure_w
from .extpoly import OMEGA, XDEG, ExtPoly, degree, parse, random_poly
from .report import SuiteReport
from .weylb import (_MAX_GROUP_RANK, _inverse_window, _spine_window, compose, enumerate_group,
                    gen, identity, inverse, length, longest_element, random_element,
                    right_descents, run_walk, spine, spine_above)

__all__ = [
    "default_invariant_gens",
    "staircase",
    "schur_ext",
    "schur_closed_form",
    "schubert",
    "is_invariant",
    "invariant_schur_basis",
    "decompose_schubert",
    "poincare",
    "format_poincare",
    "verify_schur",
]


def homog_B(ell, j, nvars):
    """Complete homogeneous symmetric polynomial h_ell in the squares x_1^2..x_j^2."""
    if ell < 0:
        return ExtPoly.zero(nvars)
    if ell == 0:
        return ExtPoly.one(nvars)
    if not 1 <= j <= nvars:
        raise ValueError(f"bad variable window 1..{j}")
    return _square_monomials(itertools.combinations_with_replacement(range(1, j + 1), ell), nvars)


def elem_squares(k, j, nvars):
    """Elementary symmetric polynomial e_k in the squares x_1^2..x_j^2."""
    if k < 0 or k > j:
        return ExtPoly.zero(nvars)
    return _square_monomials(itertools.combinations(range(1, j + 1), k), nvars)


def _square_monomials(combos, nvars):
    """The sum of x_(v_1)^2 ... x_(v_k)^2 over the index tuples v in combos."""
    terms = {}
    for combo in combos:
        e = [0] * nvars
        for v in combo:
            e[v - 1] += 2
        terms[(tuple(e), ())] = 1
    return ExtPoly(nvars, OMEGA, terms)


def default_invariant_gens(n):
    """f_i = e_(n-i+1) in the squared variables, of degree 2(n-i+1)."""
    return [elem_squares(n - i + 1, n, n) for i in range(1, n + 1)]


def _pad_partition(alpha, n):
    alpha = tuple(alpha)
    if len(alpha) > n:
        raise ValueError(f"partition {alpha!r} longer than n = {n}")
    if any(a < 0 for a in alpha) or any(
        alpha[k] < alpha[k + 1] for k in range(len(alpha) - 1)
    ):
        raise ValueError(f"{alpha!r} is not a partition (weakly decreasing, >= 0)")
    return alpha + (0,) * (n - len(alpha))


def staircase(alpha, n):
    """The monomial x^(delta+alpha) with delta_i = 2(n-i)+1."""
    alpha = _pad_partition(alpha, n)
    e = tuple(2 * (n - i) + 1 + alpha[i - 1] for i in range(1, n + 1))
    return ExtPoly(n, OMEGA, {(e, ()): 1})


def _check_strict(beta, n):
    beta = tuple(beta)
    if list(beta) != sorted(set(beta)) or any(not 1 <= b <= n for b in beta):
        raise ValueError(f"{beta!r} is not a strictly increasing subset of 1..{n}")
    return beta


def omega_mono(beta, n):
    """The product of odd generators over a strictly increasing index tuple."""
    beta = _check_strict(beta, n)
    return ExtPoly(n, OMEGA, {((0,) * n, beta): 1})


def schur_ext(alpha, beta, n):
    """Extended Schur polynomial S_(alpha,beta).

    The ascending staircase monomial x_1^(1+a_n) x_2^(3+a_(n-1)) ...
    x_n^(2n-1+a_1) times w_beta, pushed through the longest divided
    difference and scaled by the sign of the index-reversing
    permutation.  For beta = () this equals demazure_w(w_0, staircase);
    for nonempty beta only this orientation produces the one-column
    family of schur_closed_form (the descending one yields a different
    invariant-basis representative).
    """
    alpha = _pad_partition(alpha, n)
    e = tuple(2 * i - 1 + alpha[n - i] for i in range(1, n + 1))
    f = ExtPoly(n, OMEGA, {(e, ()): 1}) * omega_mono(beta, n)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return demazure_w(longest_element(n), f) * sign


def schur_closed_form(i, n):
    """Closed form of the one-column polynomials S_(0,(i)).

    The coefficient of w_l is the elementary symmetric polynomial
    e_{l-i} in the squares x_1^2..x_{l-1}^2 (so 1 on w_i itself); this
    is the variable window fixed by matching the defining divided
    difference at small rank.
    """
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    out = ExtPoly.zero(n)
    for ell in range(i, n + 1):
        out = out + elem_squares(ell - i, ell - 1, n) * omega_mono((ell,), n)
    return out


def schubert(w, n=None):
    """Schubert polynomial of a signed permutation, d_(w^-1 w_0) of the staircase.

    The chain starts at the lowest spine element U above w in the right
    weak order (``weylb.spine_above``), whose Schubert polynomial is a
    monomial, and applies d_i along the ascending runs of w^-1 U
    (``weylb.run_walk``).  Since U = w (w^-1 U) with the lengths adding,
    d_(w^-1 w_0) = d_(w^-1 U) d_(U^-1 w_0), so S_w = d_(w^-1 U) S_U; the
    result does not depend on the reduced word, but every polynomial on
    the way is the Schubert polynomial of an element on the path, so the
    start and the word set the cost.  S_(s_1) at n = 8 takes no step at all.
    The word is planned on windows, and the spine monomial's term dict is
    stepped through ``_kernels_py.demazure_terms`` into one ``ExtPoly``.

    Spine lemma: S_U(ell) = x_1^delta_1 ... x_k^delta_k x_(k+1)^r, for
    U(ell) and ell = delta_1 + ... + delta_k + r as in ``weylb.spine``.

    Proof.  Write d for the divided differences, A = sum_v sgn(v) v for
    the antisymmetrizer of W = B_m, and y_i = x_i^2.

    (a) The blocks.  U(j) = -j = w_0(j) for j <= k, so U^-1 w_0 lies in
    the parabolic subgroup on positions k+1..n, a B_m with m = n - k; its
    d_i treat x_1..x_k as scalars, and on x_(k+1)..x_n the staircase is
    the rank-m one.  So S_U = x_1^delta_1 ... x_k^delta_k S^(m)_(u_r), where
    u_r is the rank-m element of window (c', the rest increasing), c' =
    1+r (r < m) or -(2m-r).  It remains to show S_(u_r) = x_1^r at rank m.

    (b) Tools.  d_(w_0) f = A(f)/Delta, Delta the product of the positive
    roots x_i - x_j, x_i + x_j, 2x_i; A(x^delta) = Delta (the Weyl
    denominator), so d_(w_0) x^delta = 1.  A kills a monomial with an even
    exponent, which the sign change of that variable fixes.  Hence
    tau(F) := d_(w_0)(x^delta F) only sees the part E(F) of F with every
    exponent even, and equals a(y^rho E(F))/a(y^rho), rho = (m-1, ..., 0),
    a the antisymmetrizer of S_m on y.  Each d_i is self-adjoint for
    <F, G> = d_(w_0)(F G), because d_i(F d_i G) = d_i F d_i G =
    d_i(d_i F G); so d_v and d_(v^-1) are adjoint.

    (c) The coset.  u_r has the single right descent 1, so S_(u_r) is
    invariant under W_J, J = {s_2, ..., s_m} (the B_(m-1) on x_2..x_m), as
    x_1^r is.  W_J-invariants are polynomials in x_1 over W-invariants,
    and x_1 is a root of the monic prod_i (T^2 - y_i), so D = S_(u_r) - x_1^r
    = sum_(a < 2m) g_a x_1^a with W-invariant g_a.  Let y0 = (-1, 2, ..., m)
    = s_1 ... s_m ... s_1 = w_0 w_(0,J), of length 2m - 1.  Then d_(y0)
    is linear over W-invariants, d_(y0) x_1^c = 0 for c < 2m - 1 and
    d_(y0) x_1^(2m-1) = d_(w_0) x^delta = 1.  So if d_(y0)(x_1^b D) = 0
    for every b >= 0, b = 2m-1-a for the top a with g_a != 0 gives g_a =
    0: D = 0.

    (d) The pairing.  With X = x_2^(2m-3) ... x_m and H W_J-invariant,
    d_(y0) H = d_(w_0)(H X), since d_(w_0) = d_(y0) d_(w_0,J) and
    d_(w_0,J)(H X) = H.  Let h = (1, 2, ..., m, ..., 2, 1), L = 2m-1-r and
    u_L = s_(h_L) ... s_(h_1); u_r is this for L = r, and y0 = u_L^-1 u_r
    since h is a palindrome.  As w_0 is central, u_r^-1 w_0 = w_(0,J)
    u_L^-1, the lengths adding, so by (b) d_(y0)(x_1^b S_(u_r)) =
    d_(w_0)(x_1^b X d_(w_0,J) d_(u_L^-1) x^delta) = d_(w_0)(x_1^b
    d_(u_L^-1) x^delta) = tau(d_(u_L) x_1^b), while d_(y0)(x_1^(b+r)) =
    d_(w_0)(x_1^(b+r) X) = tau(x_1^(b-L)) (0 when b < L).

    (e) The count.  In generating functions, d_(u_L) (d_1 applied first)
    sends sum_b z^b x_1^b = 1/(1 - z x_1) to z^L prod_(i in P) 1/(1 - z x_i)
    prod_(i in Q) 1/(1 - z^2 y_i), with P = 1..L+1 and Q empty when L < m,
    and P = 1..2m-L-1, Q = 2m-L..m otherwise: d_i (i < m) sends
    1/(1 - z x_i) to z/((1 - z x_i)(1 - z x_(i+1))), d_m sends 1/(1 - z x_m)
    to z/(1 - z^2 y_m), and d_i for i = m-1 down to 2m-L sends
    1/((1 - z x_i)(1 - z^2 y_(i+1))) to z/((1 - z^2 y_i)(1 - z^2 y_(i+1))),
    the other factors being symmetric in x_i, x_(i+1).  Taking E,
    E(d_(u_L) x_1^b) is the complete homogeneous h_j(y_1, ..., y_q),
    q = min(L+1, m), when b - L = 2j,
    and 0 when b - L is odd, as is E(x_1^(b-L)).  Finally
    a(y^rho h_j(y_1..y_q)) = a(y^rho y_1^j): swapping y_(q-1), y_q pairs
    the exponent c with c_q >= 1 with (.., c_q - 1, c_(q-1) + 1) of the
    opposite sign (a fixed point repeats an exponent), so the terms with
    c_q >= 1 cancel and q drops to 1.  So tau(d_(u_L) x_1^b) =
    tau(x_1^(b-L)) for every b, and (c) closes the proof.
    """
    if n is None:
        n = w.n
    elif w.n != n:
        raise ValueError("rank mismatch")
    ell = spine_above(w)
    e, rest = [], ell
    for i in range(1, n + 1):
        e.append(min(rest, 2 * (n - i) + 1))
        rest -= e[-1]
    terms, inv = {(tuple(e), ()): 1}, _inverse_window(w.window)
    for i in run_walk([inv[v - 1] if v > 0 else -inv[-v - 1] for v in _spine_window(ell, n)]):
        terms = _k.demazure_terms(terms, i, n)
    return ExtPoly(n, OMEGA, terms)


def is_invariant(f):
    """True when every divided difference kills f."""
    return all(demazure(i, f).is_zero() for i in range(1, f.nvars + 1))


def invariant_schur_basis(n, k):
    """The one-per-subset basis of the k-th odd layer of the invariants."""
    return [
        (beta, schur_ext((), beta, n))
        for beta in itertools.combinations(range(1, n + 1), k)
    ]


# -- Poincare series ----------------------------------------------------


def poincare(n):
    """Length generating function of the group, as coefficient list.

    The product formula prod_i (1 + q + ... + q^(2i-1)); ``verify_schur``
    compares it with the number of elements of each length.  Each factor is
    (1 - q^(2i)) / (1 - q): subtract the list shifted by 2i, then take
    running sums, O(n^3) additions in all.  The rank n is an ``int`` >= 0
    (no ``bool``); B_0 gives [1].
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"the rank n = {n!r} is not an int >= 0")
    out = [1]
    for i in range(1, n + 1):
        diff = (a - b for a, b in zip(out + [0] * (2 * i - 1), [0] * (2 * i) + out))
        out = list(itertools.accumulate(diff))
    return out


def format_poincare(coeffs):
    pieces = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            pieces.append(str(c))
        else:
            q = "q" if k == 1 else f"q^{k}"
            pieces.append(q if c == 1 else f"{c}{q}")
    return " + ".join(pieces) if pieces else "0"


# -- decomposition over the invariant ring ------------------------------


def exponents(degs, total):
    """Exponent tuples e with sum(e_i * degs_i) = total, in lexicographic order."""
    if not degs:
        return [()] if total == 0 else []
    return [
        (k,) + rest
        for k in range(total // degs[0] + 1)
        for rest in exponents(degs[1:], total - k * degs[0])
    ]


def _lambda_monomials(n, deg, gens):
    """All monomials of the given x-degree in the invariant generators, in their family."""
    out = []
    for expo in exponents([2 * (n - i + 1) for i in range(1, n + 1)], deg):
        mono = ExtPoly.one(n, gens[0].family)
        for g, k in zip(gens, expo):
            for _ in range(k):
                mono = mono * g
        out.append(mono)
    return out


def decompose_schubert(f):
    """Write f as sum of invariant coefficients times Schubert polynomials.

    Returns ``{w: g_w}`` with every g_w invariant; raises RuntimeError if
    the graded solve fails (which would signal an internal fault, since
    the Schubert polynomials are a module basis).
    """
    n = f.nvars
    if f.family != OMEGA:
        raise ValueError("decomposition lives in the w family")
    group = enumerate_group(n)
    schuberts = [(w, schubert(w, n)) for w in group]
    svals = {}
    for k in range(n + 1):
        for beta, s in invariant_schur_basis(n, k):
            svals[beta] = s
    gens = default_invariant_gens(n)

    result = {}
    for d, comp in f.homogeneous_components(XDEG).items():
        candidates = []
        for w, schub in schuberts:
            lw = length(w)
            for beta, s in svals.items():
                for mono in _lambda_monomials(n, d - lw - degree(s, XDEG), gens):
                    candidates.append((w, beta, mono, mono * s * schub))
        keys = sorted({k for *_, prod in candidates for k in prod.terms} | set(comp.terms))
        if not candidates:
            if comp.is_zero():
                continue
            raise RuntimeError(f"no candidates for degree {d} component")
        cols = []
        for *_, prod in candidates:
            cols.append([prod.terms.get(k, 0) for k in keys])
        rows = [[cols[c][r] for c in range(len(cols))] for r in range(len(keys))]
        rhs = [comp.terms.get(k, 0) for k in keys]
        sol = linalg.solve(rows, rhs)
        if sol is None:
            raise RuntimeError(f"graded solve failed in degree {d}")
        for (w, beta, mono, _), c in zip(candidates, sol):
            if not c:
                continue
            add = mono * svals[beta] * c
            prev = result.get(w)
            result[w] = add if prev is None else prev + add

    result = {w: g for w, g in result.items() if g}
    check = ExtPoly.zero(n)
    for w, g in result.items():
        check = check + g * schubert(w, n)
    if check != f:
        raise RuntimeError("re-multiplication check failed")
    return result


# -- verification suite -------------------------------------------------


def verify_schur(n, trials=10, seed=0):
    """Check the Schur and Schubert polynomials of rank n.

    Checks: golden values (n = 2, 3), even inputs against the descending
    staircase, the one-column closed form, the invariant Schur basis by
    its structure (ordered products of the S_(i), their anticommutation,
    invariance and the count 2^n), the Schubert degrees and independence
    by the divided-difference walk, the walk's count of elements per
    length against ``poincare``, the decomposition round trip (n <= 2),
    the Schubert polynomial of one random element against the walk, and
    the monomial Schubert polynomial of every spine element against the
    chain from x^delta.  The walk visits all 2^n n! elements, so the suite
    stops at n = _MAX_GROUP_RANK.

    The basis needs no linear algebra.  "Closed form matches divided
    differences" makes each S_(i) unitriangular in the odd generators: its
    coefficient on w_i is e_0 = 1, and it has no w_l with l < i; the other
    coefficients are even, so they commute with every w.  Once every S_beta
    is the ordered product of the S_(i), i in beta, expanding that product
    picks one w_(l_j), l_j >= i_j, from each factor; so it has exactly one
    term x^0 w_beta, with coefficient 1, and every other mask of it lies
    above beta componentwise.  Given a rational relation among the S_beta,
    the x^0 w_beta coefficient at a componentwise-minimal beta with a
    nonzero coefficient is that coefficient alone, so the 2^n elements are
    independent over Q.  The product rule S_a S_b = 0 when a and b meet,
    else (-1)^inv(a, b) S_(a u b), follows from the ordered products and
    the anticommutation of the S_(i), since the product is associative.
    """
    if n > _MAX_GROUP_RANK:
        raise ValueError(f"the schur suite walks the group, capped at n = {_MAX_GROUP_RANK}")
    rep = SuiteReport(f"schur(n={n})")
    rng = random.Random(seed)

    basis, invariant = {}, True
    for k in range(n + 1):
        layer = invariant_schur_basis(n, k)
        invariant = invariant and len(layer) == math.comb(n, k)
        invariant = invariant and all(is_invariant(s) for _, s in layer)
        basis.update(layer)

    golden = {
        2: [((), "1"), ((1,), "w1 + x1^2*w2"), ((2,), "w2"), ((1, 2), "w1*w2")],
        3: [((), "1"), ((1,), "w1 + x1^2*w2 + x1^2*x2^2*w3"), ((3,), "w3")],
    }
    if n in golden:
        rep.add("golden one-row values", all(basis[b] == parse(text, n) for b, text in golden[n]))

    rep.trials("even inputs agree with the descending staircase", trials,
               lambda alpha: schur_ext(alpha, (), n)
               == demazure_w(longest_element(n), staircase(alpha, n)),
               lambda: tuple(sorted((rng.randrange(4) for _ in range(n)), reverse=True)))

    rep.add("closed form matches divided differences",
            all(schur_closed_form(i, n) == basis[(i,)] for i in range(1, n + 1)))

    one = ExtPoly.one(n)
    rep.add("invariant basis: ordered products of the S_(i)",
            all(s == (basis[b[:-1]] * basis[b[-1:]] if b else one) for b, s in basis.items()))
    cols = [basis[(i,)] for i in range(1, n + 1)]
    rep.add("invariant basis: the S_(i) anticommute",
            all(f * g == -(g * f) for f, g in itertools.combinations(cols, 2))
            and not any(f * f for f in cols))
    rep.add("invariant basis: invariance, count", invariant and len(basis) == 2**n)

    # The last check compares one S_w with the walk; draw w now and keep its S_w on the way.
    target = random_element(n, rng)

    # Independence, by induction on length: each S_w is homogeneous of degree l(w), and
    # d_i for a descent i of u sends a relation among the S_w of length l with c_u != 0
    # to one of length l - 1 with c_u on S_(u s_i), ending at S_e = 1, which is nonzero.
    # A descent lowers the length by one, so the walk holds two levels at a time, one
    # per length from l(w0) = n^2 down to 0, and counts the elements of each length.
    level, ok, counts, walked = {longest_element(n): staircase((), n)}, True, [], None
    for _ in range(n * n + 1):
        counts.append(len(level))
        below = {}
        for w, sw in level.items():
            if w == target:
                walked = sw
            ok = ok and degree(sw, XDEG) == length(w)
            descents = right_descents(w)
            for i in range(1, n + 1):
                d, v = demazure(i, sw), compose(w, gen(i, n))
                if i not in descents:
                    ok = ok and d.is_zero()
                elif v in below:
                    ok = ok and d == below[v]
                else:
                    below[v] = d
        last, level = level, below
    ok = (ok and not level and sum(counts) == 2**n * math.factorial(n)
          and last == {identity(n): ExtPoly.one(n)})
    rep.add("Schubert degrees and independence", ok)

    rep.add("Poincare enumeration equals product formula", counts[::-1] == poincare(n))

    def round_trips(f):
        parts = decompose_schubert(f)
        return all(is_invariant(g) for g in parts.values()) and f == sum(
            (g * schubert(w, n) for w, g in parts.items()), ExtPoly.zero(n))

    if n <= 2:
        rep.trials("Schubert decomposition round-trip", trials, round_trips,
                   lambda: random_poly(n, OMEGA, max_xdeg=3, max_terms=3, rng=rng))

    rep.trials("Schubert polynomials equal the walk", 1,
               lambda w: schubert(w, n) == walked, lambda: target)

    # The spine lemma, against chains from x^delta that do not start at a spine element.
    w0, top = longest_element(n), staircase((), n)
    spines = [spine(ell, n) for ell in range(n * n + 1)]
    rep.add("spine polynomials equal the divided-difference chain",
            all(schubert(u, n) == demazure_w(compose(inverse(u), w0), top) for u in spines))

    return rep
