"""Cone metric contractions over two small Banach algebras.

The package provides pair arithmetic for a plane algebra and an upper
triangular matrix algebra, cone metric spaces over them, Picard solvers
with step-to-error certificates, convergence mode checkers for map
families, and applications to coupled scalar systems and initial value
problem pairs.  The conefix command line tool runs packaged scenarios.
"""

from .algebra import (
    ConeOrderOutcome,
    R2Elem,
    UT2Elem,
    add,
    cone_compare,
    in_cone,
    mul,
    neumann_inverse_e_minus,
    norm,
    scale,
    spectral_radius,
    sub,
    unit,
    zero,
)
from .applications import (
    CoupledRoot,
    CoupledSystem,
    CouplingCheckReport,
    OdeCertificate,
    OdeProblem,
    OdeSolution,
    coupled_sequence_harness,
    coupled_solve,
    ode_certify,
    ode_sequence_harness,
    ode_solve,
    verify_condition,
)
from .errors import (
    AlgebraMismatchError,
    ConditionViolated,
    ConefixError,
    DegenerateBox,
    EmptyGrid,
    IterateEscapedDomain,
    LeftInvariantSet,
    MemberOutsideCone,
    NoConvergence,
    NotInvertibleHere,
    PointOutsideCarrier,
    WitnessOutsideDomain,
)
from .fixed_point import (
    BoundTable,
    ContractionCheckReport,
    ContractionMap,
    ConvergenceReport,
    FixedPointResult,
    MapFamily,
    PlainMap,
    SolvedMembers,
    check_equicontinuity,
    check_pointwise_convergence,
    check_uniform_convergence,
    equicontinuous_pointwise_check,
    fixed_point_cluster_check,
    g_limit_uniqueness_check,
    h_limit_implies_g_limit_check,
    picard_solve,
    pointwise_limit_harness,
    property_g_check,
    property_h_check,
    subdomain_limit_harness,
    uniform_limit_harness,
    verify_contraction,
)
from .grid import cumulative_trapezoid_from
from .scenarios import SCENARIOS, Scenario, ScenarioConfig, ScenarioRun, run_scenario
from .spaces import (
    AxiomReport,
    BieleckiPairSpace,
    BoxDomain,
    CSeqProbeConfig,
    CSeqProbeReport,
    IntervalDomain,
    IntervalUT2Space,
    PlaneR2Space,
    ProbeOutcome,
    check_metric_axioms,
    default_probes,
    is_c_sequence,
)

__version__ = "0.1.0"
