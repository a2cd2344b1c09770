"""Two-party secure computation engine and the Starfish unlearning protocol."""

from .errors import (
    AssumptionError,
    ConfigError,
    DivergenceError,
    DivisionDomainError,
    ProtocolError,
    RangeError,
    ShapeError,
    StarfishError,
    TransportError,
    UnknownFunctionality,
)
from .fixedpoint import FixedPointCodec
from .sharing import (
    ArithShare,
    Session,
    TranscriptMeter,
    keyed_rng,
    make_inproc_sessions,
    make_tcp_session,
    reconstruct,
    run_pair,
    sec_rec,
    sec_share,
)
from .costs import CostEstimate, comparator_calls, predict_cost
from .roundsel import (
    SelectionInputs,
    SelectionParams,
    SelectionResult,
    sec_rs,
    switching_threshold,
)
from .unlearn import (
    ClientPool,
    HistoryStore,
    LbfgsState,
    RunResult,
    UnlearnConfig,
    simulate,
    stage_one,
    starfish_run,
)
from .oracle import (
    BoundReport,
    ConvexTask,
    LogisticClient,
    QuadraticClient,
    bound_report,
    exact_gate_oracle,
    logistic_task,
    metrics,
    plaintext_starfish,
    quadratic_task,
    random_selection_baseline,
    theorem1_bound,
    train_from_scratch,
)

__version__ = "0.1.0"
