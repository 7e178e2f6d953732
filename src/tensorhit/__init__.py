"""Exact hitting sets, low-rank recovery and rank-metric codes over GF(p^k)."""

from .errors import (
    AdviceTooLarge,
    CompositeCharacteristic,
    DecodeFailure,
    DiagonalOutOfRange,
    DuplicatePoints,
    FieldTooSmall,
    InconsistentSyndrome,
    LengthMismatch,
    NoNullspace,
    NotRank1,
    OracleFailure,
    OrderTooSmall,
    OrderUnreachable,
    PromiseViolation,
    RankPromiseViolated,
    ShapeMismatch,
    TensorhitError,
    TooLarge,
)
from .field import (
    Fel,
    FieldCtx,
    embed_as_matrix,
    make_extension,
    make_prime_field,
)
from .hitting import (
    L,
    Measurement,
    MeasurementSet,
    combine_simulated_syndromes,
    first_witness,
    generate_family,
    hard_tensor,
    hitting_set_B,
    hitting_set_B_prime,
    hitting_set_D,
    hitting_set_D_prime,
    hitting_set_tensor,
    inner_products,
    schedule,
    naive_set,
    pit_test,
    rank_preserver,
    simulate_improper,
    simulate_proper,
)
from .lrr import (
    EchelonState,
    RecoveryHooks,
    convert_B_to_D,
    low_rank_recovery,
    measure_D,
    measure_moments,
    measure_syndromes,
    recover_from_D,
    tensor_measure,
    tensor_recover,
)
from .rankcode import (
    RankMetricCode,
    build_code,
    decode,
    encode,
    min_distance_brute,
)
from .sparse import DualRSMeasurements, dual_rs, pronys_method
from .tensor import (
    DenseTensor,
    LowRankTensor,
    Rank1Tensor,
    diagonal,
    eval_fT,
    eval_fhat,
    expand,
    matrix_rank,
    set_diagonal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
