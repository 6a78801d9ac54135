"""covrad: covering radii of random point configurations.

Sampling on a catalog of metric-measure domains, certified covering-radius
bounds via probe nets, occupancy probabilities, and Monte Carlo studies of
the asymptotic covering behavior of random points.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    InvalidGeometryError,
    ResourceLimitError,
    UnsupportedDomainError,
)
from .spaces import (
    ArcsineInterval,
    Ball,
    Cantor,
    Cube,
    IntervalUniform,
    Polyhedron3,
    Polyline,
    Sphere,
    hausdorff_mass,
    limit_constant,
    min_dihedral_angle,
    unit_ball_volume,
    unit_box_polyhedron,
)
from .sampler import SampleSet, SeedSpec, sample
from .nets import ProbeNet, SpatialIndex, build_index, build_probe_net
from .covering import (
    CoveringRadiusInterval,
    WindowSpec,
    covering_radius_1d,
    covering_radius_bounds,
    covering_radius_window,
)
from .auxfn import OccupancyParams, f_dp, f_lower_bound
