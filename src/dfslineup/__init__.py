"""Weekly fantasy-football forecasting, exact lineup optimization, and validation."""

from .data import (
    PlayerWeekRecord,
    PlayerWeekTable,
    WindowDataset,
    build_window,
    eligible_players,
    encode_position,
    load_player_weeks,
)
from .ensemble import (
    Ensemble,
    lineup_prediction_interval,
    predict_distribution,
    sample_matrix,
    train_ensemble,
)
from .network import (
    Network,
    NormStats,
    TrainedModel,
    TrainingConfig,
    forward,
    loss_and_gradient,
    split_data,
    train,
)
from .optimizer import (
    Candidate,
    ContestRules,
    Lineup,
    modal_lineup,
    optimize_all_flex,
    score_lineup,
    solve_flex_configs,
    validate_lineup,
)
from .stats import (
    PopulationStats,
    TestResult,
    bootstrap_ci,
    cohens_d,
    compare_populations,
    ks_normality,
    percentile,
    random_population,
    welch_t_test,
)

__version__ = "0.1.0"
