"""fraclie: Lie point symmetries of systems of multi-dimensional
time-fractional PDEs (Riemann-Liouville, 0 < alpha < 1).

The package computes the structured generator ansatz, builds its invariance
condition and separates it into the two determining conditions (the
jet-free class is the fractional one), solves the resulting linear system
exactly, and verifies with both symbolic rules and a numeric
fractional-derivative oracle.  The paper's lemmas, as test fixtures, and the
helpers only tests use live in fraclie.lemmas, which this package does not
import.
"""

from .exponents import Assumptions, ExponentForm, UndecidableExponent
from .expr import (Add, Expr, Fn, FractionalChain, Gamma, Jet, KernelError,
                   Mul, NonPolynomial, Pow, Rat, Sym, Var, ZERO, ONE, add,
                   diff_wrt, div, expand, gamma_simplify, mul, neg,
                   partial_derivative, pow_, render, simplify, substitute,
                   total_derivative)
from .fraccalc import NotPowerSum, PowerSum, rl_derivative
from .model import (PDESystem, Signature, TermClassification, classify_terms,
                    make_system, split_rhs, validate_system)
from .parser import (DslSemanticError, DslSyntaxError, parse_expression,
                     parse_generator, parse_system)
from .prolong import AnsatzGenerator
from .determining import (DeterminingSystem, build_determining, h_condition,
                          invariance_condition, normalize_equation, separate)
from .solver import (DegreeInsufficient, Generator, ShapeViolation,
                     SolutionBasis, SolverConfig, TemplateResidual,
                     VerificationFailed, default_h_templates, solve,
                     solve_system, verify_generator)
from .reductions import (EKReduction, NotScaling, NotTranslation,
                         scaling_similarity, translation_reduction,
                         verify_exact_solution)
from .oracle import OracleResult, SingularInput, evaluate, numeric_rl_oracle
from .report import PipelineConfig, Report, emit, run_pipeline

__version__ = "0.1.0"
