"""Standing waves of focusing discrete NLS lattices via constrained energy maximization."""

from .evolution import (BlowUpError, EquilibriumReport, EvolutionState,
                        integrate, relative_equilibrium_check)
from .functionals import (DegenerateProfileError, EnergyBreakdown, box_profile,
                          coupling, energy, exp_profile, grad_p,
                          participation_ratio, potential_energy, power,
                          residual, t_lower_bounds)
from .lattice import (Cell, IndexScheme, Profile, cone_slack, in_cone,
                      neighbor_sum, profile_from_csv, profile_to_csv,
                      project_cone, restrict)
from .oracle import oracle_maximize
from .potentials import (CATALOG, AssumptionReport, Check, Potential,
                         Violation, check_assumptions, exp_quadratic,
                         nonconvex_rational, parse_potential_spec, power_law,
                         quartic, saturable_arctan, saturable_log)
from .solver import (DecayFit, HomoclinicResult, HomoclinicVerdict,
                     RunDiagnostics, SolverConfig, WaveSolution, decay_fit,
                     homoclinic, initial_ansatz, solve)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "BlowUpError", "CATALOG", "Cell", "Check",
    "DecayFit", "DegenerateProfileError", "EnergyBreakdown",
    "EquilibriumReport", "EvolutionState", "HomoclinicResult",
    "HomoclinicVerdict", "IndexScheme", "Potential", "Profile",
    "RunDiagnostics", "SolverConfig", "Violation", "WaveSolution",
    "box_profile", "check_assumptions", "cone_slack", "coupling",
    "decay_fit", "energy", "exp_profile", "exp_quadratic", "grad_p",
    "homoclinic", "in_cone", "initial_ansatz",
    "integrate", "neighbor_sum", "nonconvex_rational", "oracle_maximize",
    "parse_potential_spec", "participation_ratio", "potential_energy",
    "power", "power_law", "profile_from_csv", "profile_to_csv",
    "project_cone", "quartic", "relative_equilibrium_check", "residual",
    "restrict", "saturable_arctan", "saturable_log", "solve",
    "t_lower_bounds",
]
