"""lpmhd: a pseudospectral Littlewood-Paley toolkit on the periodic torus,
with Triebel-Lizorkin norms, Bony paracalculus, an ideal-MHD solver in
Elsasser form, and a randomized inequality-verification lab."""

from .spectral import (
    FilterBank,
    Grid,
    RealField,
    SpectralError,
    curl,
    dealias,
    divergence,
    dyadic_block,
    from_function,
    gradient,
    jacobian,
    jacobian_sup_norm,
    leray_project,
    load_snapshot,
    low_pass,
    make_filter_bank,
    multiply,
    random_band_limited,
    random_solenoidal,
    riesz,
    save_snapshot,
    solenoidal_residual,
    spectral_derivative,
    zero_field,
)
from .spaces import (
    NormDomainError,
    NormSpec,
    lp_norm,
    maximal_function,
    tl_norm,
)
from .paracalc import (
    CommutatorSplit,
    bony_reconstruction,
    commutator_family,
    commutator_split_family,
    paraproduct,
    remainder,
)
from .mhd import (
    CflWarning,
    ElsasserState,
    TrajectoryMap,
    from_elsasser,
    mhd_tendency,
    picard_iterate,
    pressure_gradient,
    step,
    to_elsasser,
    trajectory_map,
)
from .diagnostics import DiagnosticsRecord, DiagnosticsStream, gronwall_check
from .lab import (
    INEQUALITY_IDS,
    InequalityReport,
    run_inequalities,
    stability_sweeps,
)

__version__ = "0.1.0"
