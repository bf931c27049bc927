"""Bergman kernels on lifted Hartogs domains.

Construct base domains and their disk/plane-fibered lifts, evaluate the
kernels by hand-coded closed forms or by the generic lift transforms, and
verify the kernel identities (reproducing property, Hermitian symmetry,
monomial-series agreement, weighted boundary limits) numerically.
"""

from .domains import (BaseDomain, DomainSpec, LiftStep, contains,
                      defining_function, load_spec, sample_interior,
                      slice_map, spec_from_dict, spec_to_dict, star_shape_check)
from .jets import Jet, fresh_tag, pochhammer, principal_power
from .kernels import (Kernel, closed_form_for, kernel_ball, kernel_egg,
                      kernel_egg_inflated, kernel_ball_disk_lift, kernel_ball_exp_lift,
                      kernel_chain_stage3, kernel_polydisk, kernel_product)
from .lifting import compose_pipeline, lift_U, lift_V, slice_kernel
from .oracle import (NormTable, dirichlet_identity_check, reproducing_check,
                     series_kernel)
from .boundary import (ApproachPath, ProbeReport, Stratum, default_path,
                       levi_min_eigenvalue, stratify_point, weighted_limit)

__all__ = [
    "BaseDomain", "DomainSpec", "LiftStep", "contains", "defining_function",
    "load_spec", "sample_interior", "slice_map",
    "spec_from_dict", "spec_to_dict", "star_shape_check",
    "Jet", "fresh_tag", "pochhammer", "principal_power",
    "Kernel", "closed_form_for", "kernel_ball", "kernel_egg",
    "kernel_egg_inflated", "kernel_ball_disk_lift", "kernel_ball_exp_lift",
    "kernel_chain_stage3", "kernel_polydisk", "kernel_product",
    "compose_pipeline", "lift_U", "lift_V", "slice_kernel",
    "NormTable", "dirichlet_identity_check", "reproducing_check",
    "series_kernel",
    "ApproachPath", "ProbeReport", "Stratum", "default_path",
    "levi_min_eigenvalue", "stratify_point", "weighted_limit",
]

__version__ = "0.1.0"
