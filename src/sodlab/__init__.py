"""Send-on-delta sampling lab: exact threshold sampling on piecewise
polynomials, event-sequence norms, spike metrics, and the analysis
harness for the quasi-isometry / discrepancy-norm machinery."""

from .signals import (
    Segment,
    Signal,
    add,
    diameter_norm,
    evaluate,
    generate,
    integrate,
    ramp_plateau,
    random_walk,
    scale,
    sine_pwl,
    subtract,
)
from .events import (
    EventSequence,
    difference,
    scale_events,
    split_signs,
)
from .sampler import (
    homogeneity_check,
    if_sample,
    lc_sample,
    reconstruct,
    sod_sample,
)
from .norms import (
    alexiewicz_norm,
    discrepancy_norm,
    max_max_sum_norm,
    norm_by_kind,
)
from .spike_metrics import (
    SchreiberParams,
    VanRossumParams,
    VictorPurpuraParams,
    schreiber_distance,
    schreiber_similarity,
    van_rossum,
    victor_purpura,
)
from .structure import (
    ChainDecomposition,
    DenseEvents,
    MmdDecomposition,
    chain_decompose,
    mmd_intervals,
    pi_map,
)

__version__ = "0.1.0"
