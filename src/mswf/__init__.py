"""Numerical wave-front-set toolkit for magnetic Schrodinger equations.

Submodules: grid (fields and spectral helpers), potentials (vector
potential families), packets (wave packet transform), characteristics
(bicharacteristic flow), propagator (split-step solver), detector
(membership tests), experiments (reproduction runs), cli (front end).
"""

from .characteristics import (FlowResult, FlowState, check_flow_bounds,
                              check_integral_bound, flow, flow_batch,
                              hamiltonian, lower_bound_x0, phase_integral)
from .detector import (ConicSample, DecayReport, decay_exponent, default_ladder,
                       wf_scan)
from .errors import (BoundaryMassError, CflError, ConsistencyError,
                     GuardError, InputError, MswfError, NumericError,
                     NyquistError, ResolutionError, StepUnderflowError)
from .grid import (GridFunction, GridSpec, builtin_data, delta_spike,
                   gaussian_data, jump_data)
from .packets import (DeltaSignal, GaussianSignal, GaussianWindow,
                      commutator_check, free_evolve_packet,
                      gaussian_wpt_oracle, inverse_wpt,
                      theorem_scaling_exponent, wpt, wpt_grid)
from .potentials import (VectorPotentialModel, constant_field_model, eval_a,
                         flow_field, jacobian_a, divergence_a, magnetic_field,
                         rotational_model, soft_power_model, zero_model)
from .propagator import (EvolveConfig, ScalarPotentialModel, evolve,
                         evolved_wpt_leading)

__version__ = "0.1.0"
