"""Nested quantum annealing correction toolkit.

Encode an Ising problem into a complete graph of C copies per logical spin,
minor-embed it onto a Chimera hardware graph, sample with simulated quantum
annealing or parallel tempering, decode by majority vote, and quantify the
resulting energy boost / effective temperature reduction.
"""

# Every run draws from numpy.random and np.unique reaches numpy.ma; numpy
# does not load either on its own import, so load them with the package
# rather than partway through the first run.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .ising import (
    IsingProblem,
    apply_gauge,
    brute_force_ground,
    energies,
    energy,
    load_problem,
    rescale,
    save_problem,
)
from .nesting import (
    NestedProblem,
    decode_batch,
    encode_for_scale,
    encode_nested,
    lift_logical,
    nested_energy_identity_check,
    permute_nested,
)
from .chimera import (
    ChimeraGraph,
    Embedding,
    PhysicalProblem,
    apply_embedding,
    build_chimera,
    choi_embed,
    embedding_stats,
    heuristic_embed,
    validate_embedding,
)
from .sampleset import CycleRecord, SampleSet, load_sampleset, save_sampleset
from .sqa import (
    Schedule,
    SqaParams,
    default_schedule,
    device_like_schedule,
    run_protocol,
    run_sqa,
    sample_noise,
)
from .pt import PtParams, geometric_ladder, run_pt, thermal_boost_scan
from .meanfield import (
    MeanFieldPoint,
    beta_free_energy,
    log_partition_large_beta,
    minimize_magnetization,
)
from .analysis import (
    BoostResult,
    SuccessCurve,
    adjust_repetition,
    compute_boost,
    estimate_success,
    fit_eta,
    hit_counts,
    optimize_gamma,
    success,
)

__version__ = "0.1.0"
