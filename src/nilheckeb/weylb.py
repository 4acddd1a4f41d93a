"""The signed-permutation group of type B and its twisted action.

Elements are signed permutations in window notation: ``(w(1), ..., w(n))``
with n >= 1 and ``int`` entries whose ``|w(i)|`` are distinct and cover
``1..n``; ``_is_window`` is that rule's one home.  Generators are
``s_1..s_{n-1}`` (adjacent transpositions of positions) and ``s_n``
(sign change of the last position).

The action on extended polynomials permutes/negates the even variables
and twists the odd generators:

* ``s_i(w_j) = w_j`` for ``j != i`` and
  ``s_i(w_i) = w_i + (x_i^2 - x_{i+1}^2) w_{i+1}``;
* ``s_n`` fixes every ``w_j``;
* on the dx family, ``s_i`` permutes ``dx_i, dx_{i+1}`` and ``s_n``
  negates ``dx_n``.

The braid relations of B_n have one home, ``_braid_relations``: the
group and action checks of ``verify_weyl``, the operator checks of
``demazure.verify_nil_relations`` and the relations of
``nilhecke._relation_pairs`` all read their words there.

The one descent test is ``_descends``: w s_i is longer than w exactly
when i is not a right descent.  Words step one window in place
(``_step``); the nilHecke push-through keys each tail t by t^-1.

The group of a rank and the length of an element are constants, so each
is computed once per process: ``enumerate_group`` builds a rank's
elements on its first call and hands every later caller a new list of
the same shared ``SignedPerm`` objects, and ``length`` stores its count
on the element.  Sharing is why instances must be treated as immutable.
"""

from __future__ import annotations

import itertools
import math
import random

from ._kernels_py import accumulate
from .extpoly import DX, OMEGA, XDEG, ExtPoly, degree, random_poly
from .report import SuiteReport

__all__ = [
    "SignedPerm", "identity", "gen", "from_word", "compose", "inverse", "length",
    "descent_walk", "run_walk", "spine", "spine_above", "some_reduced_word", "is_reduced",
    "longest_element", "longest_word", "enumerate_group", "random_element", "act", "act_gen",
    "act_word", "verify_weyl",
]


def _is_window(window, n):
    """Whether ``window`` is the window of a signed permutation of rank n:
    n >= 1, and the entries are ``int``s (no ``bool``) whose absolute
    values are 1..n."""
    return (n >= 1 and len(window) == n and all(type(v) is int for v in window)
            and set(map(abs, window)) == set(range(1, n + 1)))


class SignedPerm:
    """A signed permutation.

    Instances must be treated as immutable: ``enumerate_group`` shares
    its elements between callers, and ``length`` stores the element's
    length in the ``_length`` slot (``None`` until first asked).
    """

    __slots__ = ("window", "_length")

    def __init__(self, window):
        window = tuple(window)
        if not _is_window(window, len(window)):
            raise ValueError(f"bad window {window!r}")
        self.window = window
        self._length = None

    @property
    def n(self):
        return len(self.window)

    def apply(self, j):
        """Image of the signed index j (``w(-j) = -w(j)``)."""
        v = self.window[abs(j) - 1]
        return v if j > 0 else -v

    def is_identity(self):
        return self.window == tuple(range(1, self.n + 1))

    def __mul__(self, other):
        return compose(self, other)

    def __eq__(self, other):
        return isinstance(other, SignedPerm) and self.window == other.window

    def __hash__(self):
        return hash(self.window)

    def __repr__(self):
        return f"SignedPerm{self.window}"


def identity(n):
    return SignedPerm(range(1, n + 1))


def gen(i, n):
    """The generator s_i: adjacent swap for i < n, last-sign change for i = n."""
    return from_word((i,), n)


def compose(u, v):
    """The product uv (the map sending j to u(v(j)))."""
    if u.n != v.n:
        raise ValueError("rank mismatch")
    return SignedPerm(tuple(u.apply(v.window[j]) for j in range(u.n)))


def _inverse_window(window):
    """The window of the inverse, as a tuple: w(j) = v gives w^-1(|v|) = sign(v) j."""
    out = [0] * len(window)
    for j, v in enumerate(window, start=1):
        out[abs(v) - 1] = j if v > 0 else -j
    return tuple(out)


def inverse(w):
    return SignedPerm(_inverse_window(w.window))


def from_word(word, n):
    """The product of the word's generators, left to right, stepped in one window."""
    win = list(range(1, n + 1))
    for i in word:
        _step(win, i)
    return SignedPerm(win)


def length(w):
    """Coxeter length: positive roots sent to negative roots.

    Roots are e_i, e_i - e_j and e_i + e_j (i < j); the window maps e_i to
    sign(w(i)) e_|w(i)|.  e_i goes negative when w(i) < 0.  When
    |w(i)| > |w(j)|, one of e_i - e_j and e_i + e_j goes negative;
    otherwise both do when w(i) < 0 and neither does when w(i) > 0.
    The count is stored on w on the first call and read back after.
    """
    if w._length is None:
        win = w.window
        count = sum(v < 0 for v in win)
        for i, v in enumerate(win):
            a = abs(v)
            for u in win[i + 1:]:
                count += 1 if a > abs(u) else 2 * (v < 0)
        w._length = count
    return w._length


def _descends(a, b):
    """Whether the adjacent window entries a, b make a right descent."""
    return (a < 0 and b > 0) or (a * b > 0 and a > b)


def _step(win, i):
    """Right-multiply the window list ``win`` by s_i in place; return
    whether the length grew, that is whether i was not a right descent."""
    n = len(win)
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    if i == n:
        win[-1] = -win[-1]
        return win[-1] < 0
    a, b = win[i - 1], win[i]
    win[i - 1], win[i] = b, a
    return not _descends(a, b)


def right_descents(w):
    win = w.window
    out = [i for i in range(1, w.n) if _descends(win[i - 1], win[i])]
    if win[w.n - 1] < 0:
        out.append(w.n)
    return out


def descent_walk(window):
    """The letters of a reduced word of the window's element, rightmost first.

    Each step strips the largest right descent: i = n while the last entry
    is negative, else the largest i < n whose entries descend.  The letters
    come in the order operators along the word are applied, so
    ``from_word`` of them reversed gives the element back.  A copy of the
    window is stepped in place as the letters are drawn.  This word suits
    the chain of w_0 and elements near the identity; ``run_walk`` spells a
    cheaper one for most Schubert polynomials.
    """
    win = list(window)
    n = len(win)
    while True:
        if win[-1] < 0:
            win[-1] = -win[-1]
            yield n
            continue
        for i in range(n - 1, 0, -1):
            if _descends(win[i - 1], win[i]):
                win[i - 1], win[i] = win[i], win[i - 1]
                yield i
                break
        else:
            return


def run_walk(window):
    """The letters of a reduced word of the window's element in ascending runs.

    Like ``descent_walk``, the letters come rightmost first and a copy of
    the window is stepped in place.  Each run starts at the smallest right
    descent i and goes on with i + 1 while that is a descent of what is
    left: the run i, i + 1, ..., k carries the entry at position i to
    position k + 1, and a run that reaches n carries it to the end and
    flips its sign.
    """
    win = list(window)
    n = len(win)
    while True:
        for i in range(1, n):
            if _descends(win[i - 1], win[i]):
                break
        else:
            if win[-1] > 0:
                return
            i = n
        while i < n and _descends(win[i - 1], win[i]):
            win[i - 1], win[i] = win[i], win[i - 1]
            yield i
            i += 1
        if i == n and win[-1] < 0:
            win[-1] = -win[-1]
            yield n


def _spine_window(ell, n):
    """The window of the spine element U(ell), as a tuple (see ``spine``)."""
    if not 0 <= ell <= n * n:
        raise ValueError(f"spine length {ell} out of range 0..{n * n}")
    k = 0
    while k < n - 1 and ell >= 2 * (n - k) - 1:  # U(n^2) = w_0 comes out at k = n - 1
        ell -= 2 * (n - k) - 1
        k += 1
    m = n - k
    c = k + 1 + ell if ell < m else -(k + 2 * m - ell)
    return tuple([-j for j in range(1, k + 1)] + [c]
                 + [v for v in range(k + 1, n + 1) if v != abs(c)])


def spine(ell, n):
    """The spine element U(ell) of length ell, 0 <= ell <= n^2.

    Write ell = delta_1 + ... + delta_k + r with delta_i = 2(n-i)+1 and
    0 <= r < delta_(k+1), and let m = n - k.  U(ell) has the window
    (-1, ..., -k, c, the other values of k+1..n in increasing order) with
    c = k+1+r when r < m and c = -(k+2m-r) otherwise.  Its Schubert
    polynomial is the monomial x_1^delta_1 ... x_k^delta_k x_(k+1)^r
    (``schur.schubert`` proves it); U(n^2) = w_0 and U(0) = e.
    """
    return SignedPerm(_spine_window(ell, n))


def spine_above(w):
    """The length of the lowest spine element U with w <= U in the right weak order.

    w <= U when l(U) = l(w) + l(w^-1 U), that is when every positive root
    that w^-1 sends negative U^-1 sends negative too.  Those roots are the
    ones on which z = w(delta) is negative: e_p for z_p < 0, e_p - e_q
    (p < q) for z_p < z_q, e_p + e_q for z_p + z_q < 0, where z_|w(i)| =
    sign(w(i)) delta_i.  U(ell) with k leading negated entries takes
    every root that touches a position <= k; on positions k+1..n its
    roots all touch one position p: the roots e_i - e_p (i < p) when
    r < m, and the other roots through p when r >= m.  So U(ell) lies
    above w exactly when z on positions k+1..n, with one entry p left out,
    is positive and strictly decreasing, and the inversions through p
    are of the kind that r allows.  The lowest such U is read off the
    longest suffix of z that is already positive and decreasing, in
    O(n): its head z_j and the entry z_b just before it decide p (j when
    z_b > 0 fits between its neighbours, else b), and p decides how far
    left the suffix extends (k) and r.
    """
    n = w.n
    z = [0] * n
    for i, v in enumerate(w.window):
        if v > 0:
            z[v - 1] = 2 * (n - i) - 1
        else:
            z[-v - 1] = 1 - 2 * (n - i)
    j, top = n, 0
    while j and z[j - 1] > top:
        j -= 1
        top = z[j]
    if not j:
        return 0
    b = j - 1
    nxt = z[j + 1] if j + 1 < n else 0
    # leave out the head z_j when z_b fits after it (r < m), else z_b (r >= m)
    drop_head = j < n and z[b] > nxt
    s, top = b, z[b] if drop_head else (z[j] if j < n else 0)
    while s and z[s - 1] > top:
        s -= 1
        top = z[s]
    r = j - s if drop_head else 2 * (n - s) - (b - s + 1)
    return s * (2 * n - s) + r


def some_reduced_word(w):
    """A reduced word via descent stripping (letters multiply left to right).

    Each step strips the smallest right descent i from a copy of the
    window; that touches only the pairs at i - 1, i, i + 1, so the scan
    for the next one resumes at i - 1.
    """
    win = list(w.window)
    n = len(win)
    letters = []
    i = 1
    while True:
        while i < n and not _descends(win[i - 1], win[i]):
            i += 1
        if i == n and win[-1] > 0:
            return tuple(reversed(letters))
        _step(win, i)
        letters.append(i)
        i = max(i - 1, 1)


def is_reduced(word, n):
    """Whether every letter lengthens the product; each letter is range-checked."""
    win = list(range(1, n + 1))
    return all([_step(win, i) for i in word])


def longest_element(n):
    return SignedPerm(tuple(-i for i in range(1, n + 1)))


def longest_word(n):
    """The nested reduced word (s_1..s_n..s_1)(s_2..s_n..s_2)...(s_n)."""
    word = []
    for k in range(1, n + 1):
        word.extend(range(k, n + 1))
        word.extend(range(n - 1, k - 1, -1))
    return tuple(word)


def _braid_relations(n):
    """The braid relations of B_n, by kind, as pairs of reduced words that
    spell one element: "distant" s_i s_j = s_j s_i for j >= i + 2,
    "adjacent" s_i s_(i+1) s_i = s_(i+1) s_i s_(i+1) for i + 1 < n, and, for
    n >= 2, "length-4" (s_n s_(n-1))^2 = (s_(n-1) s_n)^2.  With s_i^2 = 1
    they present B_n; every suite that checks the relations reads them here.
    """
    kinds = {"distant": [((i, j), (j, i)) for i in range(1, n - 1) for j in range(i + 2, n + 1)],
             "adjacent": [((i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, n - 1)]}
    if n >= 2:
        kinds["length-4"] = [((n, n - 1, n, n - 1), (n - 1, n, n - 1, n))]
    return kinds


_MAX_GROUP_RANK = 5  # the largest rank whose group is enumerated (3840 elements)
_GROUPS = {}  # n -> the tuple of B_n's elements, sorted by window


def enumerate_group(n):
    """All 2^n n! elements, sorted by window (n <= _MAX_GROUP_RANK).

    The elements are built on the first call for n and kept; each call
    returns a new list of them, so a caller may reorder or clear its
    list, but the ``SignedPerm`` objects are shared and must not be
    changed.
    """
    if n > _MAX_GROUP_RANK:
        raise ValueError(f"group enumeration is capped at n = {_MAX_GROUP_RANK}")
    if n not in _GROUPS:
        windows = sorted(tuple(s * p for s, p in zip(signs, perm))
                         for perm in itertools.permutations(range(1, n + 1))
                         for signs in itertools.product((1, -1), repeat=n))
        _GROUPS[n] = tuple(map(SignedPerm, windows))
    return list(_GROUPS[n])


def random_element(n, rng):
    """A uniformly random element: a shuffle of 1..n and n sign bits."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    signs = rng.getrandbits(n)
    return SignedPerm(-v if signs >> j & 1 else v for j, v in enumerate(perm))


# -- the twisted action -------------------------------------------------


def _swap_dx(i, m):
    """s_i on a dx mask (i < n): ``(sign, mask)`` with dx_i and dx_{i+1}
    swapped.  The two indices are adjacent, so the mask stays sorted, and
    only a mask holding both picks up the sign of their transposition."""
    j = i + 1
    if i in m:
        return (-1, m) if j in m else (1, tuple(j if x == i else x for x in m))
    return (1, tuple(i if x == j else x for x in m)) if j in m else (1, m)


def act_gen(i, f):
    """Apply the generator s_i to an extended polynomial.

    The part of s_i that maps terms to terms one to one is written in one
    comprehension: the exponent swap for i < n, with the dx mask swap, or
    the sign flip for i = n.  Only the twist terms of s_i(w_i) on the w
    family can collide with other terms, so only they are accumulated.
    """
    n = f.nvars
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    family, terms = f.family, f.terms
    if i == n:
        s, dx = n - 1, family == DX
        out = {(e, m): -c if (e[s] & 1) ^ (dx and n in m) else c
               for (e, m), c in terms.items()}
        return ExtPoly(n, family, out)

    s, j = i - 1, i + 1
    if family == DX:
        out = {(e[:s] + (e[i], e[s]) + e[j:], mm): c if sign > 0 else -c
               for (e, m), c in terms.items() for sign, mm in (_swap_dx(i, m),)}
        return ExtPoly(n, family, out)
    out = {(e[:s] + (e[i], e[s]) + e[j:], m): c for (e, m), c in terms.items()}
    for (e, m), c in terms.items():
        if i in m and j not in m:
            shifted = tuple(j if x == i else x for x in m)
            head, tail, a, b = e[:s], e[j:], e[i], e[s]
            accumulate(out, (head + (a + 2, b) + tail, shifted), c)
            accumulate(out, (head + (a, b + 2) + tail, shifted), -c)
    return ExtPoly(n, family, out)


def act_word(word, f):
    """Apply a generator word, rightmost letter first."""
    for i in reversed(word):
        f = act_gen(i, f)
    return f


def act(w, f):
    if w.n != f.nvars:
        raise ValueError("rank mismatch")
    return act_word(some_reduced_word(w), f)


# -- verification suite -------------------------------------------------


def verify_weyl(n, trials=25, seed=0):
    """Check the defining group relations and the action's consistency."""
    rep = SuiteReport(f"weyl(n={n})")
    rng = random.Random(seed)

    if n <= _MAX_GROUP_RANK:
        group = enumerate_group(n)
        rep.add("group order", len(group) == (2**n) * math.factorial(n), f"|W| = {len(group)}")
        rep.add(
            "length vs reduced words",
            all(length(w) == len(some_reduced_word(w)) for w in group),
        )
    w0 = longest_element(n)
    rep.add("longest element length", length(w0) == n * n, f"l(w0) = {length(w0)}")
    rep.add("nested word gives w0", from_word(longest_word(n), n) == w0)

    ok = all(compose(gen(i, n), gen(i, n)).is_identity() for i in range(1, n + 1))
    rep.add("generator squares (group)", ok)
    names = {"distant": "distant generators commute (group)", "adjacent": "adjacent braid (group)",
             "length-4": "length-4 braid with s_n (group)"}
    braids = _braid_relations(n)
    for kind, pairs in braids.items():
        rep.add(names[kind], all(from_word(a, n) == from_word(b, n) for a, b in pairs))

    def rnd(fam=OMEGA):
        return random_poly(n, fam, max_xdeg=3, max_terms=4, rng=rng)

    def rnd_elem():
        return from_word(tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4))), n)

    def rnd_gen():
        return rng.randint(1, n)

    for fam in (OMEGA, DX):
        rep.trials(f"involutions on {fam} polys", trials,
                   lambda f: all(act_gen(i, act_gen(i, f)) == f for i in range(1, n + 1)),
                   lambda: rnd(fam))

    rep.trials("braid relations on the action", trials,
               lambda f: all(act_word(a, f) == act_word(b, f)
                             for pairs in braids.values() for a, b in pairs),
               rnd)
    rep.trials("action respects composition", trials,
               lambda f, u, v: act(u, act(v, f)) == act(compose(u, v), f),
               rnd, rnd_elem, rnd_elem)
    rep.trials("generators act as ring maps", trials,
               lambda f, g, i: act_gen(i, f * g) == act_gen(i, f) * act_gen(i, g),
               rnd, rnd, rnd_gen)
    rep.trials("action preserves degree", trials,
               lambda f, i: all(img.is_zero() or degree(img, XDEG) == d
                                for d, comp in f.homogeneous_components(XDEG).items()
                                for img in (act_gen(i, comp),)),
               rnd, rnd_gen)

    return rep
