"""Linear fractional self-maps of the complex unit ball: classification,
normal forms, one-parameter semigroup embedding, and numerical
verification of every construction."""

from .embedding import (
    CONDITION_FAILS,
    EMBEDDABLE,
    INCONCLUSIVE,
    EmbeddingCertificate,
    SemigroupFamily,
    build_semigroup,
    certify,
    embed_dim2,
    embed_elliptic_split,
    embed_elliptic_u0,
    embed_hyperbolic,
    embed_map,
    embed_parabolic,
    generator,
    is_automorphism,
    log_candidates,
)
from .errors import (
    BranchError,
    DimensionError,
    DomainError,
    FormError,
    LfmError,
    NotInvertibleError,
    NumericError,
    PoleError,
    WrongFormError,
)
from .linalg import (
    SchurForm,
    SvdForm,
    is_dissipative,
    mat_exp,
    mat_log_principal,
    pinv,
    schur_form,
    spectral_norm,
    spectral_radius,
    svd_form,
)
from .maps import (
    BallMap,
    Classification,
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    SiegelMap,
    ball_automorphism,
    boundary_dilation,
    cayley_to_ball,
    cayley_to_siegel,
    cayley_transform,
    classify,
    compose,
    conjugate,
    fixed_points,
    heisenberg_map,
    identity_ball_map,
    identity_siegel_map,
    inverse,
    unitary_ball_map,
    unitary_index,
)
from .normal_forms import (
    NormalForm,
    conjugation_residual,
    elliptic_split,
    elliptic_u0,
    hyperbolic_normal_form,
    normal_form,
    parabolic_normal_form,
    siegel_conditions,
)
from .verify import (
    CheckReport,
    SamplerCfg,
    check_generator,
    check_self_map,
    check_semigroup_law,
    check_time_one,
    verify_family,
)

__version__ = "0.1.0"
