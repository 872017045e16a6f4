"""y00sim: physical-layer simulator for a keyed M-ary coherent-state
stream cipher, with quantum detection bounds, an IMDD fiber link budget,
and a keyed repetition-code layer."""

from .coherent_algebra import (
    EntangledFraction,
    LossySharedState,
    MultiModeState,
    StateEnsemble,
    entangled_fraction,
    gram_matrix,
    inner_product,
    lossy_shared_state,
    orthonormal_embedding,
    psd_matrix_sqrt,
    quasi_bell_reduced_eigenvalues,
)
from .detection import (
    DetectionReport,
    DiscriminationProblem,
    guess_baseline,
    helstrom_mixed_pair,
    helstrom_pure_pair,
    minimax_pair,
    srm_error,
)
from .errors import (
    ConfigError,
    DimensionError,
    IllConditionedEnsembleError,
    ParameterError,
    SeedError,
    Y00Error,
)
from .fiber_link import (
    ELECTRON_CHARGE,
    LinkParams,
    NoiseBudget,
    ber_on_off,
    bob_practical_vs_optimal,
    decision_point,
    mean_photocurrent,
    noise_budget,
)
from .overlap_coding import (
    analytic_block_error,
    decode_block,
    encode_block,
)
from .scenario import (
    AttackReport,
    CsvSeries,
    ScenarioConfig,
    TrialReport,
    attack_suite,
    default_config,
    emit_csv,
    run_scenario,
    sweep,
)
from .y00_cipher import (
    BasisAssignment,
    ConstellationSpec,
    KeystreamGenerator,
    SeedKey,
    SessionResult,
    bob_decode,
    draw_symbol_frames,
    eve_bit_mixtures,
    key_expansion_session,
)

__version__ = "0.1.0"
