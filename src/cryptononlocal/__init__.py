"""Chained correlations and Leggett-type crypto-nonlocal bounds for qudits.

Four layers: `bloch` (closed-form Bloch coordinates, samplers), `quantum`
(chained measurement bases, exact joint distributions and the chained
quantity I_N), `leggett` (the crypto-nonlocal marginal model, its bounds
and the critical settings count), and `nosignaling` (distance measures,
no-signaling generators and verification suites).  `cli` exposes it all
on the command line.
"""

from .bloch import (
    bloch_to_density,
    expected_abs_projection,
    sample_haar_pure,
    sample_sphere,
    state_to_bloch,
    substream,
)
from .leggett import (
    BoundEstimate,
    CriticalNotFoundError,
    FamilyProjection,
    LocalModel,
    MeasurementBasisBloch,
    MeasurementFamily,
    basis_to_bloch,
    escape_report,
    find_critical_n,
    leggett_bound_analytic,
    leggett_bound_floor,
    leggett_bound_mc,
    marginal_distribution,
    mub_families,
)
from .nosignaling import (
    AgreementReport,
    ContradictionReport,
    DeterministicStrategy,
    NoSignalingReport,
    ShiftBoundReport,
    check_agreement_bound,
    check_no_signaling,
    deterministic_contradiction,
    lhv_min_chained,
    random_no_signaling,
    statistical_distance,
    strategy_chained_value,
    verify_shift_bound,
)
from .quantum import (
    ChainedSettings,
    JointDistribution,
    asymptotic_chained_value,
    cglmp_bases,
    cglmp_chained_value,
    chained_settings,
    chained_value,
    closed_form_probs,
    gamma_factor,
    joint_distribution,
    joint_from_bases,
    maximally_entangled,
)

__version__ = "0.1.0"
