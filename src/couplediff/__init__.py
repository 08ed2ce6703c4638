"""Coupled local/nonlocal diffusion on (-1, 1).

Heat equation on (-1, 0) exchanging flux through a Robin-type interface
condition with a convolution-kernel jump diffusion on (0, 1); the semi-
discrete system is the exact gradient flow of a discrete energy, which makes
mass conservation, energy dissipation, the comparison principle and the
spectral-gap decay rate verifiable identities rather than approximations.
"""

from .analysis import (
    BarrierSpec,
    DecayReport,
    SweepRow,
    barrier_fields,
    decay_report,
    epsilon_sweep,
    heat_reference,
    interface_jump,
    supersolution_check,
)
from .discretization import (
    GeneratorMatrix,
    Grid,
    StateField,
    assemble_generator,
    assemble_heat_generator,
    build_grid,
    constant_state,
    generator_edges,
    mass,
    weighted_inner,
)
from .energy_spectrum import (
    EnergyBreakdown,
    SpectralReport,
    edge_energy,
    energy,
    energy_form,
    estimate_beta1,
    estimate_energy_control_k,
    nonlocal_energy_full,
    rayleigh,
)
from .evolution import (
    PicardReport,
    StepScheme,
    Trajectory,
    cfl_limit,
    contraction_factor,
    evolve,
    step_explicit,
    step_implicit,
)
from .kernels import (
    CouplingConstants,
    Kernel,
    coupling_constants,
    coupling_profile_analytic,
    make_kernel,
    second_moment,
)

__version__ = "0.1.0"
