"""Exact subshift constructions and truncated-orbit sensitivity statistics.

The package builds two recursive binary subshift families at large finite
scale (run-length encoded, lengths up to 64 bits), measures orbit
separation through Cesaro and Banach averages and window densities, and
drives the induced finite-set hyperspace dynamics under the Hausdorff
metric.  Every asymptotic statement of the underlying theory is rendered
as an exact finite computation with explicit truncation accounting.
"""

from .constructions import (
    GeneratorDescriptor,
    Level,
    S3Construction,
    S4Construction,
    Schedule,
    build_schedule_s3,
    build_schedule_s4,
    minimal_generator,
    patched_point,
    patched_step,
    verify_schedule,
)
from .diagnostics import (
    AverageReport,
    IndexSet,
    banach_avg_distance,
    banach_avg_distances,
    banach_window_max,
    cesaro_avg_distance,
    diam_of_members,
    diam_sequence,
    distance_sum,
    indicator_set_E,
    mean_to_density_check,
    orbit_diam_sequence,
    sensitivity_times,
    step_distance_array,
)
from .errors import (
    AlphabetMismatchError,
    DepthError,
    HorizonError,
    IndexRangeError,
    LengthOverflowError,
    MeansenseError,
    ParameterError,
    ResourceCapError,
    WitnessUnavailableError,
)
from .hyperspace import (
    CylinderTuple,
    FiniteSet,
    certified_separation_steps,
    family_hausdorff,
    hausdorff_distance,
    hausdorff_distance_inf_formula,
    hyper_mean_avg,
    hyper_witness_family,
    independence_check,
    tk_step,
    union_factor,
)
from .language import (
    check_dense_periodic_desk,
    check_transitive_desk,
    cylinder_members,
    subwords,
)
from .reports import Report, fmt17, series_csv
from .words import (
    BlockFamily,
    OccurrenceIndex,
    PointView,
    Provenance,
    Word,
    concat,
    de_bruijn_word,
    diff_intervals,
    find_occurrences,
    first_difference,
    max_window_count,
    point_metric,
    power,
)

__version__ = "0.1.0"
