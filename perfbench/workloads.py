"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload turns a seed into a fixed batch of timed operations and a
disjoint set of warm-up operations, runs one operation at a time against
the public ``nilheckeb`` API (or the ``nhb`` command), and checks every
result outside the timed section.  Functions are looked up on the
``nilheckeb`` package at call time, so a traced run sees every call.

Why these workloads:

* ``schubert`` -- few calls on large polynomials with long
  divided-difference chains; coefficient arithmetic and the term kernels
  dominate, and ``nh_mul`` and ``linalg`` are never called.
* ``nhmul`` -- operator products; the push-through and the group
  bookkeeping (``from_word``, ``is_reduced``, ``compose``) dominate.  The
  rank-4 products use every element of length >= 11 with a small
  polynomial whose shape is fixed per slot and whose variables and
  coefficients come from the seed, because the cost of ``D_u * g`` depends
  on the shape of ``g`` by two orders of magnitude.
* ``decompose`` -- the dense graded solve of ``decompose_schubert`` at
  rank 2.  Inputs are homogeneous with a fixed degree per slot, because
  the size of the solve is set by the degree.
* ``cli`` -- ``nhb`` commands, each a fresh process, so interpreter start
  and ``import nilheckeb`` count; the suites make many calls on small
  random polynomials.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import selectors
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The console script ``nhb`` is ``nilheckeb.cli:main``; this is what it runs.
NHB = (sys.executable, "-c", "import sys; from nilheckeb.cli import main; sys.exit(main())")
CLI_BOOT = (sys.executable, os.path.join(HERE, "cli_boot.py"))
CHILD_TIMEOUT_S = 120


class Raised:
    """The result of an operation that raised."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"raised {type(self.exc).__name__}: {self.exc}"


def _nb():
    import nilheckeb

    return nilheckeb


def _coeff(rng):
    return Fraction(rng.choice((1, -1, 2, -2, 3, -5)), rng.randint(1, 3))


def signed_perms(n):
    """Every signed permutation of rank n (``enumerate_group`` stops at 4)."""
    nb = _nb()
    return [
        nb.SignedPerm(tuple(s * p for s, p in zip(signs, perm)))
        for perm in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((1, -1), repeat=n)
    ]


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


class Workload:
    """Base class; an operation is ``(label, payload)``."""

    name = ""
    # Labels of operations whose output is known to be wrong; they stay in
    # the batch, count as failed, and leave ``correct`` true.
    KNOWN_DEFECTS = frozenset()

    def __init__(self, seed):
        self.seed = seed
        self.ops, self.warm = self.make_inputs(random.Random(seed))
        timed = {label for label, _ in self.ops}
        if len(timed) != len(self.ops) or timed & {label for label, _ in self.warm}:
            raise RuntimeError(f"{self.name}: warm-up and timed inputs overlap")

    def make_inputs(self, rng):
        raise NotImplementedError

    def run(self, payload):
        raise NotImplementedError

    def canon(self, result):
        """A canonical text of a result, for digests and repeat checks."""
        raise NotImplementedError

    def check(self, ops, results):
        """One verdict per operation of the first pass."""
        raise NotImplementedError

    def warm_up(self):
        for _, payload in self.warm:
            self.run(payload)


# -- schubert -----------------------------------------------------------------


class SchubertWorkload(Workload):
    name = "schubert"

    def make_inputs(self, rng):
        nb = _nb()
        ops = [(f"S{w.window}", ("schubert", w, 4)) for w in nb.enumerate_group(4)]
        by_len = {}
        for w in signed_perms(5):
            by_len.setdefault(nb.length(w), []).append(w)
        # Every element of length 1 and 2 (the costliest, so the tail does
        # not hang on the seed), then two seeded ones per length 3..16.
        for ell in range(1, 17):
            for w in by_len[ell] if ell <= 2 else rng.sample(by_len[ell], 2):
                ops.append((f"S{w.window}", ("schubert", w, 5)))
        for k in range(16):
            beta = tuple(sorted(rng.sample(range(1, 5), k % 3)))
            alpha = self._partition(rng, (k // 3) % 4, 4)
            ops.append((f"schur{alpha}{beta}4", ("schur_ext", alpha, beta, 4)))
        ops = list(dict(ops).items())  # a repeated Schur index runs once
        rng.shuffle(ops)
        warm = [(f"S{w.window}", ("schubert", w, 3)) for w in nb.enumerate_group(3)]
        for ell in range(17, 25):
            w = rng.choice(by_len[ell])
            warm.append((f"S{w.window}", ("schubert", w, 5)))
        for alpha, beta in (((), (1,)), ((1,), ()), ((2,), (2, 3)), ((3, 2), (1,))):
            warm.append((f"schur{alpha}{beta}3", ("schur_ext", alpha, beta, 3)))
        return ops, warm

    @staticmethod
    def _partition(rng, size, parts):
        out = [0] * parts
        for _ in range(size):
            out[rng.randrange(parts)] += 1
        return tuple(v for v in sorted(out, reverse=True) if v)

    def run(self, payload):
        nb = _nb()
        if payload[0] == "schubert":
            return nb.schubert(payload[1], payload[2])
        return nb.schur_ext(*payload[1:])

    def canon(self, result):
        return _nb().render(result)

    def check(self, ops, results):
        nb = _nb()
        known = {
            (p[1].window, p[2]): r
            for (_, p), r in zip(ops, results)
            if p[0] == "schubert" and not isinstance(r, Raised)
        }
        verdicts = []
        for (_, payload), f in zip(ops, results):
            if isinstance(f, Raised):
                verdicts.append(False)
            elif payload[0] == "schubert":
                verdicts.append(self._schubert_ok(nb, payload[1], payload[2], f, known))
            else:
                verdicts.append(nb.is_invariant(f))
        return verdicts

    @staticmethod
    def _schubert_ok(nb, w, n, f, known):
        """deg S_w = l(w); d_i S_w = S_{w s_i} on a descent i, else 0."""
        if nb.degree(f, nb.XDEG) != nb.length(w):
            return False
        for i in range(1, n + 1):
            ws = nb.compose(w, nb.gen(i, n))
            d = nb.demazure(i, f)
            if nb.length(ws) < nb.length(w):
                want = known.get((ws.window, n))
                if want is None:
                    want = known[(ws.window, n)] = nb.schubert(ws, n)
                if d != want:
                    return False
            elif not d.is_zero():
                return False
        return True


# -- nhmul --------------------------------------------------------------------


class NHMulWorkload(Workload):
    name = "nhmul"

    def make_inputs(self, rng):
        ops = [(f"n3.{k}", (self._random_nh(rng, 3, a), self._random_nh(rng, 3, b)))
               for k, (a, b) in enumerate(self._shapes(80, 3))]
        ops += self._rank4(rng, self.SLOTS)
        rng.shuffle(ops)
        warm = [(f"n2.{k}", (self._random_nh(rng, 2, a), self._random_nh(rng, 2, b)))
                for k, (a, b) in enumerate(self._shapes(40, 2))]
        warm += self._rank4(rng, self.WARM_SLOTS)
        return ops, warm

    @staticmethod
    def _shapes(count, n):
        """``count`` pairs of factor shapes at rank n, the same for every seed.

        A factor's shape is one (x-degree, odd-mask size, length of u) per
        term.  The shape sets what a product costs, so the seed leaves it
        alone: with it drawn from the seed, the median operation moved by up
        to a quarter between seeds.
        """
        nb = _nb()
        srng = random.Random(n)
        lengths = [nb.length(w) for w in nb.enumerate_group(n)]

        def factor():
            return tuple((sum(srng.randint(0, 2) for _ in range(n)),
                          sum(srng.random() < 0.3 for _ in range(n)),
                          srng.choice(lengths))
                         for _ in range(srng.randint(1, 3)))

        return [(factor(), factor()) for _ in range(count)]

    @staticmethod
    def _random_nh(rng, n, shape):
        """A random element c * x^e * w^m * D_u + ... with the given shape."""
        nb = _nb()
        by_len = {}
        for w in nb.enumerate_group(n):
            by_len.setdefault(nb.length(w), []).append(w)
        terms = {}
        for xdeg, odd, ell in shape:
            e = [0] * n
            for i in rng.sample([i for i in range(n) for _ in range(2)], xdeg):
                e[i] += 1
            m = tuple(sorted(rng.sample(range(1, n + 1), odd)))
            key = (tuple(e), m, rng.choice(by_len[ell]).window)
            terms[key] = terms.get(key, 0) + _coeff(rng)
        return nb.NHElement(n, {k: v for k, v in terms.items() if v})

    # (slot, lengths of u, x-degree of g, odd mask of g)
    SLOTS = (("x", range(11, 17), 1, ()), ("xw3", range(13, 17), 1, (3,)),
             ("w2", range(14, 17), 0, (2,)), ("w1", (16,), 0, (1,)))
    WARM_SLOTS = (("x", (9, 10), 1, ()), ("xw3", (12,), 1, (3,)))

    @staticmethod
    def _rank4(rng, slots):
        """D_u * g at rank 4; the slot fixes the shape of g."""
        nb = _nb()
        ident = nb.identity(4).window
        group = sorted(nb.enumerate_group(4), key=lambda w: (nb.length(w), w.window))
        ops = []
        for slot, lengths, xdeg, mask in slots:
            for u in group:
                if nb.length(u) not in lengths:
                    continue
                e = [0] * 4
                for _ in range(xdeg):
                    e[rng.randrange(4)] += 1
                g = nb.NHElement(4, {(tuple(e), mask, ident): _coeff(rng)})
                ops.append((f"n4.{slot}{u.window}", (nb.NHElement.dee(u), g)))
        return ops

    def run(self, payload):
        return _nb().nh_mul(*payload)

    def canon(self, result):
        return _nb().render_nh(result)

    def check(self, ops, results):
        """pbw_well_formed, and (ab)f = a(bf) on a seeded probe f."""
        nb = _nb()
        rng = random.Random(self.seed + 1)
        verdicts = []
        for (_, (a, b)), p in zip(ops, results):
            if isinstance(p, Raised) or not nb.pbw_well_formed(p):
                verdicts.append(False)
                continue
            f = nb.random_poly(a.nvars, nb.OMEGA, max_xdeg=4, max_terms=2, rng=rng)
            verdicts.append(nb.nh_act(p, f) == nb.nh_act(a, nb.nh_act(b, f)))
        return verdicts


# -- decompose ----------------------------------------------------------------


class DecomposeWorkload(Workload):
    name = "decompose"

    # x-degree of w1 and w2 at rank 2
    _ODD_DEG = {(): 0, (1,): -2, (2,): -4, (1, 2): -6}

    def make_inputs(self, rng):
        # Costs cluster by degree, with 5 and 6 alike and 7 and 8 alike.
        # Six inputs of each degree 2..6 and ten of 7 and 8 put the median
        # and the tail in the middle of a cluster, not at its edge.
        ops = [(f"d{d}.{k}", self._homogeneous(rng, d))
               for d in range(2, 9) for k in range(6 if d < 7 else 10)]
        rng.shuffle(ops)
        warm = [(f"d{d}.{k}", self._homogeneous(rng, d))
                for d in (-1, 0, 1, 9) for k in range(3)]
        return ops, warm

    def _homogeneous(self, rng, d):
        """Three random terms of x-degree d at rank 2."""
        monos = []
        for mask, md in self._ODD_DEG.items():
            xd = d - md
            monos += [((a, xd - a), mask) for a in range(xd + 1)] if xd >= 0 else []
        entries = [(_coeff(rng), e, m) for e, m in rng.sample(monos, 3)]
        return _nb().ExtPoly.from_terms(2, entries)

    def run(self, payload):
        return _nb().decompose_schubert(payload)

    def canon(self, result):
        render = _nb().render
        return ";".join(f"{w.window}:{render(g)}" for w, g in sorted(
            result.items(), key=lambda kv: kv[0].window))

    def check(self, ops, results):
        """sum_w g_w S_w = f, with every g_w invariant."""
        nb = _nb()
        verdicts = []
        for (_, f), parts in zip(ops, results):
            if isinstance(parts, Raised):
                verdicts.append(False)
                continue
            total = nb.ExtPoly.zero(f.nvars)
            for w, g in parts.items():
                total = total + g * nb.schubert(w, f.nvars)
            verdicts.append(total == f and all(nb.is_invariant(g) for g in parts.values()))
        return verdicts


# -- cli ----------------------------------------------------------------------


class ChildResult:
    """Exit code, output, wall time and peak RSS of one child process."""

    __slots__ = ("code", "out", "err", "wall_s", "maxrss_kb")

    def __init__(self, code, out, err, wall_s, maxrss_kb):
        self.code, self.out, self.err = code, out, err
        self.wall_s, self.maxrss_kb = wall_s, maxrss_kb


def child_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def run_child(argv, env):
    """Run a process to completion, reading both pipes without threads."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = t0 + CHILD_TIMEOUT_S
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    left = 5
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    finally:
        for pipe in chunks:
            pipe.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, b"".join(chunks[proc.stdout]).decode(),
                       b"".join(chunks[proc.stderr]).decode(),
                       time.perf_counter() - t0, usage.ru_maxrss)


def _suite_view(payload):
    """The parts of ``nhb verify --format json`` that do not depend on timing."""
    return {
        "pass": payload["pass"],
        "suites": [
            {"suite": s["suite"], "pass": s["pass"],
             "checks": [(c["check"], c["pass"], c["detail"]) for c in s["checks"]]}
            for s in payload["suites"]
        ],
    }


class CliWorkload(Workload):
    name = "cli"

    # ``parse_nh`` moves D(...) to the end of its term: this prints x1*D(1).
    KNOWN_DEFECTS = frozenset({"nh.D(1)*x1"})

    def __init__(self, seed):
        self.spans_path = None  # set to trace the commands
        self.trace_states = []
        self._spanned = set()  # commands whose spans are written already
        super().__init__(seed)

    def make_inputs(self, rng):
        nb = _nb()
        # The suites draw their random trials from this seed, and the
        # trials set their cost, so it is fixed like the other shapes.
        s = 0
        ops = []

        def add(label, argv, expect):
            ops.append((label, (label, tuple(argv), expect)))

        for n, suite, trials in ((2, "all", 10), (3, "weyl", 10), (3, "demazure", 10),
                                 (3, "schur", 3), (3, "dg", 5), (3, "nilhecke", 3),
                                 (4, "weyl", 5), (4, "demazure", 5)):
            add(f"verify.{n}.{suite}",
                ["verify", "--n", str(n), "--suite", suite, "--trials", str(trials),
                 "--seed", str(s), "--format", "json"], ("verify", n, suite, trials, s))
        add("solomon.2", ["solomon", "--n", "2", "--format", "json"], ("solomon", 2))
        add("solomon.3", ["solomon", "--n", "3", "--format", "json"], ("solomon", 3))
        add("basis.3", ["basis", "--n", "3", "--format", "json"], ("basis", 3))
        add("poincare.4", ["poincare", "--n", "4", "--format", "json"], ("poincare", 4))
        for k in range(2):
            alpha = tuple(sorted((rng.randint(0, 2) for _ in range(2)), reverse=True))
            beta = tuple(sorted(rng.sample(range(1, 4), rng.randint(0, 2))))
            add(f"schur.{k}", ["schur", "--n", "3", "--alpha", ",".join(map(str, alpha)),
                               "--beta", ",".join(map(str, beta))], ("schur", alpha, beta, 3))
            word = nb.some_reduced_word(rng.choice(nb.enumerate_group(4)))
            add(f"schubert.{k}", ["schubert", "--n", "4", "--word", ",".join(map(str, word))],
                ("schubert", word, 4))
            g = nb.random_poly(3, nb.OMEGA, max_xdeg=2, max_terms=3, rng=rng)
            N = rng.randint(2, 4)
            add(f"dg.{k}", ["dg", "--n", "3", "--N", str(N), "--", nb.render(g)], ("dg", g, N))
            a, b = self._pbw_term(rng, nb), self._pbw_term(rng, nb)
            add(f"nh.product.{k}", ["nh", "--n", "3", "--", nb.render_nh(a), nb.render_nh(b)],
                ("nh", a, b))
        for k in range(3):
            f = nb.random_poly(3, nb.OMEGA, max_xdeg=3, max_terms=4, rng=rng)
            add(f"parse.{k}", ["parse", "--n", "3", "--", nb.render(f)], ("poly", f))
        add("nh.D(1)*x1", ["nh", "--n", "2", "D(1)*x1"],
            ("nh", nb.NHElement.dee_word((1,), 2), nb.NHElement.x(1, 2)))
        add("parse.invalid", ["parse", "--n", "2", "x3"], ("invalid",))
        rng.shuffle(ops)
        warm = [(f"warm.{k}", (f"warm.{k}", argv, None)) for k, argv in enumerate((
            ("parse", "--n", "1", "x1"), ("poincare", "--n", "3"),
            ("schur", "--n", "2", "--beta", "1")))]
        return ops, warm

    @staticmethod
    def _pbw_term(rng, nb):
        """A random PBW-form term c * x^e * w^m * D_u at rank 3."""
        u = rng.choice(nb.enumerate_group(3))
        e = tuple(rng.randint(0, 2) for _ in range(3))
        m = tuple(i for i in (1, 2, 3) if rng.random() < 0.3)
        return nb.NHElement(3, {(e, m, u.window): _coeff(rng)})

    def run(self, payload):
        label, argv, _ = payload
        if self.spans_path is None:
            return run_child(NHB + argv, child_env())
        state = self.spans_path + ".state.json"
        env = {"PERFBENCH_TRACE_OUT": state, "PERFBENCH_PROCESS": f"nhb {label}"}
        if label not in self._spanned:
            self._spanned.add(label)
            env["PERFBENCH_SPANS"] = self.spans_path
        res = run_child(CLI_BOOT + argv, child_env(env))
        with open(state) as fh:
            self.trace_states.append(json.load(fh))
        os.remove(state)
        return res

    def warm_up(self):
        for _, payload in self.warm:
            run_child(NHB + payload[1], child_env())

    def canon(self, result):
        return f"{result.code}\n{result.out}"

    def check(self, ops, results):
        """Exit code as expected, and output equal to the in-process result."""
        verdicts = []
        for (_, (_, _, expect)), res in zip(ops, results):
            if isinstance(res, Raised):
                verdicts.append(False)
                continue
            code, want = self.expected(expect)
            if res.code != code:
                verdicts.append(False)
            elif expect[0] == "verify":
                try:
                    got = _suite_view(json.loads(res.out))
                except (ValueError, KeyError, TypeError):
                    got = None
                verdicts.append(got == want)
            elif isinstance(want, str):
                verdicts.append(res.out == want)
            else:
                try:
                    verdicts.append(json.loads(res.out) == want)
                except ValueError:
                    verdicts.append(False)
        return verdicts

    @staticmethod
    def expected(expect):
        """(exit code, stdout text or parsed JSON) the library implies."""
        nb = _nb()
        kind = expect[0]
        if kind == "verify":
            _, n, suite, trials, s = expect
            reports = {
                "weyl": lambda: [nb.verify_weyl(n, trials=trials, seed=s)],
                "demazure": lambda: [nb.verify_nil_relations(n, trials=trials, seed=s)],
                "nilhecke": lambda: [nb.verify_presentation(n, trials=trials, seed=s)],
                "dg": lambda: [nb.verify_dg(n, N, trials=trials, seed=s) for N in (2, 3, 4)],
                "schur": lambda: [nb.verify_schur(n, trials=trials, seed=s)],
                "solomon": lambda: [nb.verify_solomon(n, trials=trials, seed=s)],
            }
            order = ("weyl", "demazure", "nilhecke", "dg", "schur", "solomon")
            picked = order if suite == "all" else (suite,)
            suites = [r for name in picked for r in reports[name]()]
            ok = all(r.passed for r in suites)
            view = _suite_view({"pass": ok, "suites": [r.to_json() for r in suites]})
            return (0 if ok else 2), view
        if kind == "solomon":
            n = expect[1]
            P = nb.p_matrix(nb.default_admissible(n))
            J = nb.build_J(n=n)
            return 0, {"n": n, "P": [[nb.to_json(e) for e in row] for row in P.entries],
                       "J": [nb.to_json(J.of_generator(j)) for j in range(1, n + 1)]}
        if kind == "basis":
            n = expect[1]
            return 0, [{"n": n, "k": k, "basis": [nb.to_json(s) for _, s in
                                                  nb.invariant_schur_basis(n, k)]}
                       for k in range(n + 1)]
        if kind == "poincare":
            return 0, {"n": expect[1], "coefficients": nb.poincare(expect[1])}
        if kind == "schur":
            return 0, nb.render(nb.schur_ext(*expect[1:])) + "\n"
        if kind == "schubert":
            _, word, n = expect
            return 0, nb.render(nb.schubert(nb.from_word(word, n), n)) + "\n"
        if kind == "poly":
            return 0, nb.render(expect[1]) + "\n"
        if kind == "dg":
            _, g, N = expect
            return 0, nb.render(nb.d_apply(nb.Differential(N, g.nvars), g)) + "\n"
        if kind == "nh":
            return 0, nb.render_nh(nb.nh_mul(expect[1], expect[2])) + "\n"
        if kind == "invalid":
            return 1, ""
        raise ValueError(f"unknown expectation {kind!r}")


WORKLOADS = {
    w.name: w for w in (SchubertWorkload, NHMulWorkload, DecomposeWorkload, CliWorkload)
}
