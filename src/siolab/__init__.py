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
    Side,
    SmoothBump,
    decompose_complement,
    lipschitz_estimate,
)
from .kernel import OddHomogeneous, RieszComponent
from .measure import (
    CantorFourCornersSpec,
    DiscreteMeasure,
    GraphMeasureSpec,
    SlabAboveGraphSpec,
    UniformOnShapeSpec,
    build,
    cantor_four_corners,
    concat,
    graph_measure,
    growth_constant,
    load_measure,
    lower_density,
    restrict,
    save_measure,
    slab_above_graph,
    split_by_graph,
    uniform_on_shape,
)
from .operators import (
    BoundConstants,
    MaximalFunctionValue,
    PVResult,
    TruncationTable,
    bound_constants,
    double_truncated_stats,
    hl_maximal,
    lp_norm,
    maximal,
    nontangential_max,
    pv_estimate,
    truncated,
)
from .pairing import (
    IDecomposition,
    PairingTrace,
    SimpleFunction,
    convergence_study,
    fubini_check,
    i_decomposition,
    pairing,
)

__version__ = "0.1.0"
