"""Exact computer algebra for the rank-n type-B extended nilHecke algebra.

The package provides the signed-permutation group and its twisted action
on a polynomial ring with odd generators, divided-difference operators,
the operator algebra in PBW normal form, extended Schur and Schubert
polynomials, the family of differentials indexed by N, and the
exterior-derivative comparison between invariants and the image of the
generator map.

All arithmetic is exact (integer/rational).  Hot term kernels come from
a compiled extension when available; set NILHECKEB_PURE=1 to force the
pure-Python twin.  ``nilheckeb.BACKEND`` names the one in use.
"""

from ._backend import BACKEND
from .extpoly import (
    BIDEG,
    DGN,
    DX,
    OMEGA,
    XDEG,
    DivisionError,
    ExtPoly,
    Grading,
    LinearForm,
    degree,
    exact_div_linear,
    from_json,
    parse,
    random_poly,
    render,
    to_json,
)
from .weylb import (
    SignedPerm,
    act,
    act_gen,
    act_word,
    all_reduced_words,
    compose,
    enumerate_group,
    from_word,
    gen,
    identity,
    inverse,
    is_reduced,
    left_ascent,
    length,
    longest_element,
    longest_word,
    some_reduced_word,
    verify_weyl,
)
from .demazure import demazure, demazure_w, demazure_word, verify_nil_relations
from .nilhecke import (
    NHElement,
    nh_act,
    nh_mul,
    parse_nh,
    pbw_well_formed,
    render_nh,
    verify_presentation,
)
from .schur import (
    decompose_schubert,
    format_poincare,
    invariant_schur_basis,
    is_invariant,
    poincare,
    poincare_formula,
    schubert,
    schur_closed_form,
    schur_ext,
    staircase,
    verify_schur,
)
from .dgstruct import Differential, d_apply, d_apply_nh, verify_dg
from .solomon import (
    AdmissibleTuple,
    JMap,
    LocalizedPoly,
    PolyMatrix,
    build_J,
    chain_word,
    check_char1,
    check_char2,
    default_admissible,
    default_invariant_gens,
    demazure_dx,
    exterior_d,
    mixing_matrix,
    p_matrix,
    solomon_compare,
    validate_admissible,
    verify_J,
    verify_solomon,
)
from .report import CheckResult, SuiteReport

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    # polynomials
    "ExtPoly",
    "OMEGA",
    "DX",
    "LinearForm",
    "DivisionError",
    "Grading",
    "XDEG",
    "BIDEG",
    "DGN",
    "degree",
    "exact_div_linear",
    "parse",
    "render",
    "to_json",
    "from_json",
    "random_poly",
    # group
    "SignedPerm",
    "identity",
    "gen",
    "compose",
    "inverse",
    "from_word",
    "length",
    "longest_element",
    "longest_word",
    "some_reduced_word",
    "all_reduced_words",
    "is_reduced",
    "left_ascent",
    "enumerate_group",
    "act",
    "act_gen",
    "act_word",
    # operators
    "demazure",
    "demazure_word",
    "demazure_w",
    "NHElement",
    "nh_mul",
    "nh_act",
    "parse_nh",
    "render_nh",
    "pbw_well_formed",
    # Schur/Schubert
    "schur_ext",
    "schur_closed_form",
    "schubert",
    "staircase",
    "invariant_schur_basis",
    "is_invariant",
    "decompose_schubert",
    "poincare",
    "poincare_formula",
    "format_poincare",
    # differentials
    "Differential",
    "d_apply",
    "d_apply_nh",
    # exterior-derivative machinery
    "exterior_d",
    "LocalizedPoly",
    "demazure_dx",
    "AdmissibleTuple",
    "default_admissible",
    "validate_admissible",
    "PolyMatrix",
    "p_matrix",
    "chain_word",
    "check_char1",
    "check_char2",
    "mixing_matrix",
    "JMap",
    "default_invariant_gens",
    "build_J",
    "solomon_compare",
    # reports and suites
    "CheckResult",
    "SuiteReport",
    "verify_weyl",
    "verify_nil_relations",
    "verify_presentation",
    "verify_schur",
    "verify_dg",
    "verify_J",
    "verify_solomon",
]
