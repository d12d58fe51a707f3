"""High-precision verification laboratory for fast converging irrational
series: modular invariants, Eichler integrals, Epstein zeta values, and
Dirichlet L-values computed from first principles, plus a declarative corpus
of identities with a residual-based verifier.
"""

from .numerics import (
    DomainError,
    MixedRadicandError,
    PrecisionContext,
    QuadExpr,
    QuadraticNumber,
    embed_quadratic,
    zeta_int,
)
from .lfunctions import (
    Discriminant,
    dirichlet_l2,
    is_fundamental_discriminant,
    kronecker_symbol,
)
from .modular import (
    CMPoint,
    alpha_n,
    dedekind_eta,
    eichler_e4_tilde,
    eisenstein_e4,
    j_invariant,
    legendre_p,
    legendre_ramanujan_r,
    re_eichler_closed_form,
    reflection_residual,
    satisfies_region,
    series_constants_from_cm,
)
from .epstein import epstein_gamma0, epstein_sl2
from .series import (
    FibLucasSeries,
    SeriesFamily,
    UpsideDownSeries,
    evaluate_fib_series,
    evaluate_series_sum,
    evaluate_updown,
    fibonacci_lucas,
    sigma_gr,
    sigma_gr_im_rhs,
)
from .identities import (
    ConstantsCache,
    Corpus,
    CorpusError,
    IdentityRecord,
    KroneckerInstance,
    VerificationReport,
    load_corpus,
    serialize_corpus,
    verify_all,
    verify_identity,
    verify_kronecker,
)

__version__ = "0.1.0"
