"""siolab: a numerical laboratory for truncated and maximal singular
integral operators against discrete approximations of Radon measures,
with the geometry of separating Lipschitz graphs built in.
"""

from .geometry import (
    Affine,
    Ball,
    BallCap,
    Cone,
    ConeProfile,
    LipschitzGraph,
    Rectangle,
    RegionDecomposition,
    Sawtooth,
    SmoothBump,
    decompose_complement,
)
from .kernel import OddHomogeneous, RieszComponent
from .measure import (
    DiscreteMeasure,
    build,
    cantor_four_corners,
    concat,
    graph_measure,
    growth_constant,
    slab_above_graph,
    split_by_graph,
    uniform_on_shape,
)
from .operators import (
    BoundConstants,
    TruncationTable,
    bound_constants,
    lp_norm,
    lp_norms,
    maximal,
    nontangential_max,
    pv_estimate,
    truncated,
)
from .pairing import (
    PairingTrace,
    SimpleFunction,
    convergence_study,
)

__version__ = "0.1.0"
