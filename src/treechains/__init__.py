"""Finite pipelines of planar tree-chains with fixed-point-free patterns."""

from .simplicial import (
    EdgePoint,
    GraphError,
    SimplicialGraph,
    SimplicialMapping,
    lift_map_3,
    subdivide3,
)
from .diagram import (
    TreeDiagram,
    coincidence_free,
    coincidence_oracle,
    lift_diagram_3,
    proximity_vertices,
)
from .family import build_family_diagram, build_tree, map_omega, map_s, map_sigma, map_tau
from .covers import (
    CoverSet,
    CoverSystem,
    EpsilonSchedule,
    nerve,
    sets_intersect,
)
from .geometry import (
    RealizedSystem,
    SegmentRegion,
    enlarge_taut_family,
    realize,
    render_svg,
)
from .serialize import Instance, instance_from_json, load_instance
from .verify import generate_instance, oracle_trials, verify_instance

__version__ = "0.1.0"

__all__ = [
    "EdgePoint", "GraphError", "SimplicialGraph", "SimplicialMapping",
    "lift_map_3", "subdivide3",
    "TreeDiagram", "coincidence_free", "coincidence_oracle",
    "lift_diagram_3", "proximity_vertices",
    "build_family_diagram", "build_tree", "map_omega", "map_s",
    "map_sigma", "map_tau",
    "CoverSet", "CoverSystem", "EpsilonSchedule", "nerve",
    "sets_intersect",
    "RealizedSystem", "SegmentRegion", "enlarge_taut_family", "realize",
    "render_svg",
    "Instance", "instance_from_json", "load_instance",
    "generate_instance", "oracle_trials", "verify_instance",
]
