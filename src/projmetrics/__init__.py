"""Projection-averaged metrics on convex bodies.

Bodies are vertex lists; subspaces carry orthonormal bases; every random
draw is addressed by (seed, stream, counter) so results are independent of
worker count.
"""

from .bodies import (
    VPolytope,
    bounding_radius,
    distance_to_hull,
    hull_2d,
    line_fiber,
    line_fibers,
    load_body,
    polygon_area,
    polygon_clip,
    save_body,
)
from .constructions import (
    NeedleSpec,
    ScheduleRow,
    augment,
    block_bounds,
    cross_section,
    needle_exact_volume,
    prism_needle,
    spindle_needle,
    thm1_sequence,
    thm2_sequence,
    thm3_sequence,
)
from .grassmann import (
    GoodnessCertificate,
    Subspace,
    axis_split,
    axis_subspace,
    full_space,
    goodness,
    goodness_stack,
    haar_frames,
    haar_sample,
    project_body,
    project_point,
)
from .metrics import (
    MetricEstimate,
    SamplingPlan,
    delta_j,
    delta_j_stack,
    fiber_profile,
    hausdorff,
    hausdorff_stack,
    intrinsic_volume,
    projected_volume,
)
from .numerics import (
    RngStream,
    ball_volume,
    flag_coefficient,
    gram_schmidt,
    needle_bound_constant,
)

__version__ = "0.1.0"
