"""Risk-aware safety filters from annotated occupancy maps.

Pipeline: occupancy grid -> boundary nodes with flux (risk pipeline) ->
Poisson safety function h and harmonic guidance field v -> closed-form QP
safety filter, activation zones, and closed-loop simulation.
"""

__version__ = "0.1.0"

from .errors import (DegenerateCoefficient, DegenerateNormal,
                     DisconnectedFreeSpace, GridMismatch, InvalidParameter,
                     InvalidTimeStep, MalformedDocument, MalformedGrid,
                     NegativeForcingViolation, NonConvergence, OpenWorkspace,
                     OutOfDomain, RiskFieldsError, StartUnsafe, UnmappedLabel,
                     UnorderedBoundary, VanishingGuidance)
from .grid import (FREE, OCCUPIED, BoundarySet, FieldSampler, OccupancyGrid,
                   ScalarField, VectorField, estimate_normals,
                   extract_boundary, sample_gradient,
                   sample_scalar, sample_vector)
from .elliptic import (SOR, ForcingSpec, SolverConfig,
                       check_divergence_identity, solve_fields,
                       solve_guidance, solve_laplace_component, solve_poisson)
from .riskmap import (EXPONENTIAL, IDENTITY, LABEL, PROBABILITY, SATURATING,
                      SPEED, FeatureReading, FluxMap, PriorityRule,
                      RiskAssign, assign_flux, risk_value, smooth_flux)
from .safety import (ActivationZone, FilterConfig, GuidanceFieldBundle,
                     SafetyFunction, activation, activation_dynamic,
                     activation_zone, filter_control, filter_control_dynamic)
from .backstep import (BackstepConfig, ExtendedState, filter_accel, h_B,
                       k_v_jacobian, k_v_smooth)
from .sim import (MotionProfile, Trajectory, integrate_double,
                  integrate_single, nominal_adversarial, nominal_goal,
                  run_dynamic, time_derivative)
from .scenario import BuildResult, Scenario, load_scenario
