"""Probabilistic event lambda calculus: terms, reduction, exact value
distributions, counting-quantified type systems, and the proof kernel with
its translation into typed terms."""

from .terms import (
    App,
    CbvApp,
    Choice,
    Const,
    CONST,
    Lam,
    Name,
    Nu,
    Term,
    Var,
    alpha_eq,
    free_names,
    free_vars,
    parse_term,
    print_term,
    project,
    substitute,
)
from .formulas import (
    And,
    Atom,
    BOT,
    BoolFormula,
    Not,
    Or,
    TOP,
    entails,
    eval_formula,
    measure,
    parse_formula,
    print_formula,
)
from .rewrite import (
    PE,
    PE_BRACES,
    Generator,
    PseudoValue,
    ReductionStep,
    classify_pnf,
    head_step,
    is_hnv,
    is_pnf,
    pnf,
    pnf_count,
    reduce_term,
    step,
)
from .distribution import (
    Distribution,
    TerminationEstimate,
    distribution,
    estimate_hnv,
    hnv_lower_bound,
    hnv_mass,
    nf_mass,
    sample_run,
)
from .typesys import (
    Arrow,
    CBV,
    CN,
    Counted,
    Ground,
    INT,
    Judgement,
    Mset,
    TypingDerivation,
    apply_mu_star,
    check_derivation,
    is_balanced,
    is_safe,
    parse_type,
    print_type,
    srank,
    subtype,
)
from .transport import transport_subject_reduction
from .proofs import (
    Count,
    Formula,
    Implies,
    ProofDerivation,
    PropVar,
    Sequent,
    check_proof,
    normalize_proof,
    normalize_step,
    proof_term,
    translate,
    verify_simulation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
