"""Liouville action, envelope surfaces and renormalized volume of Jordan
curves, with the Weil-Petersson gradient descent flow of the action."""

from .action import ActionReport, grunsky_gap, liouville_action
from .curves import CurveSpec
from .epstein import mean_curvature_total
from .errors import (CapTopologyError, ContractError, CorrespondenceError,
                     DeformationError, DivergenceSuspected, DomainError,
                     InputError, LiouvolError, NonConvergence, RefitError,
                     SingularDerivative, Stalled)
from .flow import (BeltramiField, FlowState, beltrami_step,
                   gradient_field, gradient_ratio_min, run_flow,
                   wp_path_length)
from .mapping import conformal_map_pair, exterior_map, interior_map, welding
from .meshing import (SurfaceMesh, aligned_surface_meshes, mesh_surface,
                      surface_separation)
from .quadrature import QuadratureGrid
from .series import (LaurentMap, PowerSeriesMap, area_norm, nonlinearity,
                     nonlinearity_of, schwarzian, schwarzian_of)
from .volume import VolumeReport, renormalized_volume, truncated_volume, volume

__version__ = "0.1.0"
