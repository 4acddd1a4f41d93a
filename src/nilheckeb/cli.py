"""Command-line entry point.

Subcommands compute the algebra's basic objects (Schur and Schubert
polynomials, invariant bases, Poincare series, operator normal forms,
differentials, the exterior-derivative matrices) and run the seeded
verification suites.  Exit codes: 0 success, 1 input validation
failure, 2 verification-suite failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dgstruct, nilhecke, schur, weylb
from .demazure import verify_nil_relations
from .extpoly import OMEGA, parse, render, to_json
from .solomon import (
    build_J,
    default_admissible,
    p_matrix,
    verify_solomon,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SUITE_FAILED = 2
EXIT_USAGE = 64

# 2^n basis polynomials: n = 7 takes about a second, n = 8 about 20 s and 500 MB
_MAX_BASIS_RANK = 7


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _csv_ints(ns, option):
    """The comma-separated integers of --option; a bad token is named with it."""
    text = getattr(ns, option).strip()
    if not text:
        return ()
    out = []
    for tok in text.split(","):
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"--{option} {text!r}: {tok.strip()!r} is not an integer") from None
    return tuple(out)


def build_parser():
    ap = _Parser(prog="nhb", description=__doc__)
    sub = ap.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--n", type=int, required=True, help="number of variables")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("schur", help="extended Schur polynomial")
    common(p)
    p.add_argument("--alpha", default="", help="partition, comma separated")
    p.add_argument("--beta", default="", help="strict partition, comma separated")

    p = sub.add_parser("schubert", help="Schubert polynomial of a group element")
    common(p)
    p.add_argument("--word", default="", help="generator word for the element")

    p = sub.add_parser("basis", help=f"invariant Schur basis, all odd layers (n <= {_MAX_BASIS_RANK})")
    common(p)

    p = sub.add_parser("poincare", help="length generating function")
    common(p)

    p = sub.add_parser("nh", help="normal form of an operator expression")
    common(p)
    p.add_argument("expr", nargs="+",
                   help="sums of products like 'x1*w2*D(1,2) + 2*D(1)*x1', each "
                        "product taken in the order written; several expressions "
                        "are multiplied left to right")

    p = sub.add_parser("dg", help="apply the differential to an expression")
    common(p)
    p.add_argument("expr", help="w-family polynomial expression")
    p.add_argument("--N", type=int, required=True, help="differential index")

    p = sub.add_parser("solomon", help="admissible matrix and solved generator images")
    common(p)

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument("--suite", default="all",
                   choices=("all", "weyl", "demazure", "nilhecke", "dg", "schur", "solomon"))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("parse", help="parse an expression and echo its canonical form")
    common(p)
    p.add_argument("expr", help="polynomial expression")

    return ap


def _emit(ns, text):
    if not text.endswith("\n"):
        text += "\n"
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _poly_out(ns, f):
    if ns.format == "json":
        return json.dumps(to_json(f), indent=2)
    return render(f)


def _cmd_schur(ns):
    alpha = _csv_ints(ns, "alpha")
    beta = _csv_ints(ns, "beta")
    f = schur.schur_ext(alpha, beta, ns.n)
    _emit(ns, _poly_out(ns, f))
    return EXIT_OK


def _cmd_schubert(ns):
    word = _csv_ints(ns, "word")
    w = weylb.from_word(word, ns.n)
    f = schur.schubert(w, ns.n)
    _emit(ns, _poly_out(ns, f))
    return EXIT_OK


def _cmd_basis(ns):
    if ns.n > _MAX_BASIS_RANK:
        raise ValueError(f"the invariant basis (2^n polynomials) is capped at n = {_MAX_BASIS_RANK}")
    layers = []
    for k in range(ns.n + 1):
        layer = schur.invariant_schur_basis(ns.n, k)
        layers.append((k, [s for _, s in layer]))
    if ns.format == "json":
        payload = [
            {"n": ns.n, "k": k, "basis": [to_json(s) for s in basis]}
            for k, basis in layers
        ]
        _emit(ns, json.dumps(payload, indent=2))
    else:
        lines = []
        for k, basis in layers:
            lines.append(f"k={k}:")
            for s in basis:
                lines.append(f"  {render(s)}")
        _emit(ns, "\n".join(lines))
    return EXIT_OK


def _cmd_poincare(ns):
    coeffs = schur.poincare(ns.n)
    if ns.format == "json":
        _emit(ns, json.dumps({"n": ns.n, "coefficients": coeffs}, indent=2))
    else:
        _emit(ns, schur.format_poincare(coeffs))
    return EXIT_OK


def _cmd_nh(ns):
    a = nilhecke.parse_nh(ns.expr[0], ns.n)
    for text in ns.expr[1:]:
        a = nilhecke.nh_mul(a, nilhecke.parse_nh(text, ns.n))
    if ns.format == "json":
        payload = {
            "n": ns.n,
            "terms": [
                {
                    "coeff": str(c),
                    "x": list(xe),
                    "odd": list(mask),
                    "word": list(weylb.some_reduced_word(weylb.SignedPerm(win))),
                }
                for (xe, mask, win), c in sorted(a.terms.items())
            ],
        }
        _emit(ns, json.dumps(payload, indent=2))
    else:
        _emit(ns, nilhecke.render_nh(a))
    return EXIT_OK


def _cmd_dg(ns):
    f = parse(ns.expr, ns.n, OMEGA)
    d = dgstruct.Differential(ns.N, ns.n)
    _emit(ns, _poly_out(ns, dgstruct.d_apply(d, f)))
    return EXIT_OK


def _cmd_solomon(ns):
    P = p_matrix(default_admissible(ns.n))
    J = build_J(n=ns.n)
    if ns.format == "json":
        payload = {
            "n": ns.n,
            "P": [[to_json(e) for e in row] for row in P.entries],
            "J": [to_json(J.of_generator(j)) for j in range(1, ns.n + 1)],
        }
        _emit(ns, json.dumps(payload, indent=2))
    else:
        lines = ["P ="]
        for row in P.entries:
            lines.append("  [" + ", ".join(render(e) for e in row) + "]")
        for j in range(1, ns.n + 1):
            lines.append(f"J(w{j}) = {render(J.of_generator(j))}")
        _emit(ns, "\n".join(lines))
    return EXIT_OK


def _verify_suites(ns):
    n, kw = ns.n, {"trials": ns.trials, "seed": ns.seed}
    suites = {
        "weyl": lambda: [weylb.verify_weyl(n, **kw)],
        "demazure": lambda: [verify_nil_relations(n, **kw)],
        "nilhecke": lambda: [nilhecke.verify_presentation(n, **kw)],
        "dg": lambda: [dgstruct.verify_dg(n, N, **kw) for N in (2, 3, 4)],
        "schur": lambda: [schur.verify_schur(n, **kw)],
        "solomon": lambda: [verify_solomon(n, **kw)],
    }
    picked = list(suites) if ns.suite == "all" else [ns.suite]
    # schur refuses a rank above its cap before any work, so it runs first; each
    # suite seeds its own stream, and the reports keep the listed order
    runs = sorted(picked, key=lambda name: name != "schur")
    reports = {name: suites[name]() for name in runs}
    return [r for name in picked for r in reports[name]]


def _cmd_verify(ns):
    reports = _verify_suites(ns)
    ok = all(r.passed for r in reports)
    if ns.format == "json":
        payload = {"pass": ok, "suites": [r.to_json() for r in reports]}
        _emit(ns, json.dumps(payload, indent=2))
    else:
        _emit(ns, "\n\n".join(str(r) for r in reports))
    return EXIT_OK if ok else EXIT_SUITE_FAILED


def _cmd_parse(ns):
    f = parse(ns.expr, ns.n)
    _emit(ns, _poly_out(ns, f))
    return EXIT_OK


_DISPATCH = {
    "schur": _cmd_schur,
    "schubert": _cmd_schubert,
    "basis": _cmd_basis,
    "poincare": _cmd_poincare,
    "nh": _cmd_nh,
    "dg": _cmd_dg,
    "solomon": _cmd_solomon,
    "verify": _cmd_verify,
    "parse": _cmd_parse,
}


def main(argv=None):
    ap = build_parser()
    # The only one-dash option is -h, so any other token with one leading
    # dash is an expression such as -x1; a space keeps argparse from
    # reading it as an option.
    argv = [" " + a if a[:1] == "-" and a[1:2] not in ("", "-") and a != "-h" else a
            for a in (sys.argv[1:] if argv is None else argv)]
    ns = ap.parse_args(argv)
    if ns.command is None:
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        for option in ("n", "trials"):
            if getattr(ns, option, 1) < 1:
                raise ValueError(f"--{option} must be at least 1")
        return _DISPATCH[ns.command](ns)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"nhb {ns.command}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
