"""EM wave scattering by small perfectly conducting bodies.

One body is solved exactly through a collocated boundary integral equation
for the surface density; many bodies are solved through the coupled
point-moment (effective field) system valid for body size << spacing <<
wavelength.  See the README for the CLI and the bundled experiment
reproductions.
"""

from .diagnostics import (
    ValidationReport,
    check_e_asymptotic,
    check_q_asymptotic,
    check_q_residual,
    check_tangentiality,
    validate_solution,
)
from .geometry import (
    CollocationMesh,
    ParametricSurface,
    mesh_cube,
    mesh_ellipsoid,
    mesh_parametric,
    mesh_sphere,
    sphere_point_count,
    sphere_resolution_for,
)
from .kernels import CoincidentPointsError
from .linalg import (
    ConvergenceError,
    SingularMatrixError,
    SolveReport,
    solve_direct,
    solve_gmres,
    solve_operator,
)
from .many_body import (
    EffectiveFieldSolution,
    ManyBodyLayout,
    assemble_many_body,
    effective_field_at_centers,
    error_estimate_many,
    field_e_many,
    field_h_many,
    lattice_layout,
    layout_from_centers,
    layout_from_csv,
    solve_effective_field,
)
from .one_body import (
    GammaMatrix,
    SurfaceCurrent,
    assemble_one_body,
    field_e_asymptotic,
    field_e_exact,
    field_h,
    gamma_numeric,
    gamma_sphere_analytic,
    moment_q_asymptotic,
    moment_q_exact,
    solve_current,
    solve_currents,
)
from .waves import IncidentWave, default_wave

__version__ = "0.1.0"
