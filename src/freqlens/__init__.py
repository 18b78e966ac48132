"""Interpretable forecasting with learnable frequency bases.

The model decomposes an input window onto learned cosine bases, selects
the most informative frequencies, and forecasts through per-frequency
heads whose contributions sum exactly to the frequency-path prediction.
That additive structure makes per-frequency attributions satisfy the
completeness, faithfulness, null-frequency, and symmetry axioms and
coincide with exact Shapley values.
"""

from .autodiff import Tensor, backward, check_gradients
from .model import (
    AttributionReport,
    ForwardOutput,
    FreqLens,
    FrequencyBank,
    ModelConfig,
    build_bases,
    init_frequency_bank,
    load_checkpoint,
    project,
    save_checkpoint,
)
from .training import (
    Adam,
    LossWeights,
    TrainConfig,
    TrainLog,
    diversity_loss,
    evaluate_mse,
    orthogonality_loss,
    reconstruction_loss,
    schedules,
    total_loss,
    train,
)
from .data import (
    NormStats,
    SeriesTable,
    SplitSpec,
    WindowSet,
    fit_apply_zscore,
    load_csv,
    make_windows,
    save_csv,
    synth_series,
)
from .interpret import (
    DiscoveryReport,
    FaithfulnessResult,
    PeriodMatch,
    alpha_report,
    build_discovery_report,
    faithfulness_test,
    fft_peak_detection,
    match_known_periods,
    periods_from_frequencies,
    selection_counts,
    shapley_bruteforce,
    verify_axioms,
)
from .stats import MetricSet, SignificanceResult, compute_metrics, paired_ttest

__version__ = "0.1.0"
