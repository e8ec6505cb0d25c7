"""Packing far-apart terminal paths, or hitting all of them with few balls.

Given a graph, a terminal set, a count k, and a distance d, the solver
returns either k terminal paths pairwise at distance at least d, or at
most 4k-4 vertices whose balls of radius 256^k * d meet every terminal
path.  In coarse mode the paths additionally have far endpoints and the
balls only need to meet such paths.  Every construction step is exposed
as an independently checkable operation.
"""

from .augment import AugmentResult, augment
from .errors import (InputError, InternalInvariantError, ParameterRangeError,
                     PreconditionError, SolverError)
from .forest import (DegreeClasses, check_branch_bound, degree_classes,
                     extract_z_paths)
from .frame import (Certificate, Frame, HittingCertificate,
                    PackingCertificate, SolveParams, certificate_violations,
                    empty_frame, extend_or_hit, frame_to_packing, solve,
                    validate_frame)
from .generate import A_POLICIES, FAMILIES, make_instance
from .graph import (Graph, UNREACHABLE, ball, components, dist, distance_map,
                    has_radius_at_most, is_path, least_far_pair,
                    radius_center, st_path)
from .model import (FatModel, Part, PatternGraph, fat_to_clean, fatness,
                    is_clean, is_simple, part_vertices, validate_model)
from .oracle import (brute_force_packing_exists, far_pair, hitting_violations,
                     packing_violations, verify_hitting, verify_packing)
from .topominor import make_topological
from .tripod import (Leg, Tripoid, TripodResult, check_tripod_result,
                     check_tripoid, init_tripoid, tripod, tripod_step)

__version__ = "1.0.0"

__all__ = [
    "A_POLICIES",
    "AugmentResult",
    "Certificate",
    "DegreeClasses",
    "FAMILIES",
    "FatModel",
    "Frame",
    "Graph",
    "HittingCertificate",
    "InputError",
    "InternalInvariantError",
    "Leg",
    "PackingCertificate",
    "ParameterRangeError",
    "Part",
    "PatternGraph",
    "PreconditionError",
    "SolveParams",
    "SolverError",
    "Tripoid",
    "TripodResult",
    "UNREACHABLE",
    "augment",
    "ball",
    "brute_force_packing_exists",
    "certificate_violations",
    "check_branch_bound",
    "check_tripod_result",
    "check_tripoid",
    "components",
    "degree_classes",
    "dist",
    "distance_map",
    "empty_frame",
    "extend_or_hit",
    "extract_z_paths",
    "far_pair",
    "fat_to_clean",
    "fatness",
    "frame_to_packing",
    "has_radius_at_most",
    "hitting_violations",
    "init_tripoid",
    "is_clean",
    "is_path",
    "is_simple",
    "least_far_pair",
    "make_instance",
    "make_topological",
    "packing_violations",
    "part_vertices",
    "radius_center",
    "solve",
    "st_path",
    "tripod",
    "tripod_step",
    "validate_frame",
    "validate_model",
    "verify_hitting",
    "verify_packing",
]
