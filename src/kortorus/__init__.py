"""kortorus: pseudospectral workbench for isothermal capillary fluids on the torus."""

from .errors import (
    ConstraintViolationError,
    DeltaOutOfRange,
    DumpFormatError,
    EmptyTrajectory,
    ExponentOrderViolated,
    IndexConstraintViolated,
    InvalidField,
    KortorusError,
    NonFinite,
    NonpositiveDensity,
    ParseError,
    PExponentOutOfRange,
    PositivityLoss,
    ResolutionTooSmall,
    ScalingPairInvalid,
    StepUnderflow,
    VariantMismatch,
)
from .spectral import (
    ScalarField,
    SpectralGrid,
    TensorField,
    VectorField,
    dealias,
    divergence,
    forward_transform,
    gradient,
    hessian,
    integrate,
    inverse_transform,
    laplacian,
    lp_norm,
)
from .model import (
    RHO_FLOOR,
    CoefficientLaw,
    FieldState,
    ModelParams,
    constant_capillarity,
    effective_velocity,
    inverse_density_capillarity,
    korteweg_div_general,
    korteweg_div_special,
    power_law_capillarity,
    pressure,
    pressure_potential,
    recover_u,
    rhs,
)
from .timestepping import IntegratorConfig, Trajectory, cfl_dt, run, step
from .functionals import (
    FunctionalReport,
    MonitorSpec,
    bd_entropy,
    blow_up_verdict,
    effective_energy,
    energy,
    evaluate_report,
    integrability_functional,
    mv_entropy,
    serrin_accumulator,
    vacuum_endpoint_norm,
    vacuum_functional,
    vacuum_indicator,
)
from .littlewood_paley import (
    BesovIndex,
    DyadicFamily,
    besov_norm,
    build_dyadic_family,
    chemin_lerner_norm,
    dyadic_block,
    heat_regularity_check,
    low_freq_cutoff,
    verify_derivative_equivalence,
    verify_embedding,
    verify_product_law,
)
from .dump import read_field_dump, write_field_dump

__version__ = "0.1.0"
