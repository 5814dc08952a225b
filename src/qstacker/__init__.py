"""qstacker: hybrid quantum-classical matrix multiplication via stacked
Hadamard-test inner-product estimation, with entropy-variance analysis and a
small hybrid training harness."""

from .entropy import (
    ConcentrationVerdict,
    CorrelationStats,
    CrossingPoint,
    EntropyReport,
    ProbDist,
    StateFamily,
    SweepPairing,
    SweepRecord,
    adaptive_shots,
    concentration_check,
    crossing_point,
    dividend_bound,
    entropy,
    generate_state,
    pearson,
    variance_band,
    variance_sweep,
)
from .hadamard import (
    HadamardJob,
    OverlapEstimate,
    ShotResult,
    analytic_overlap,
    circuit_verify,
    estimate,
    sample_hadamard,
    swap_test_overlap_squared,
)
from .matmul import MatMulConfig, MatMulResult, error_budget, matmul
from .nn import (
    Dataset,
    Model,
    NetworkShape,
    TrainConfig,
    TrainReport,
    evaluate,
    forward,
    ingest_iris,
    ingest_mnist_idx,
    init_model,
    split_dataset,
    train,
)
from .seeding import derive_seed, job_rng
from .stacking import (
    ResourceModel,
    StackingPattern,
    StackingPlan,
    complexity_report,
    execute_plan,
    plan,
    plan_jobs,
)
from .vectors import EncodedState, encode

__version__ = "0.1.0"
