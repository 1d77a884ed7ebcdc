"""Curriculum scheduling for class-imbalanced multimodal classification.

The pipeline: score per-sample training difficulty from model outputs
(:mod:`climd.measurer`), fit the class-size distribution to a smoothed
power law (:mod:`climd.distribution`), and emit per-epoch training
subsets that ramp from class-uniform to the real long-tailed
distribution (:mod:`climd.scheduler`). :mod:`climd.simlab` provides a
synthetic end-to-end laboratory, :mod:`climd.metrics` the evaluation
metrics, and :mod:`climd.cli` the ``climd`` command.
"""

__version__ = "0.1.0"

from .distribution import (
    ClassDistribution,
    EpochTarget,
    alpha_schedule,
    epoch_target,
    fit_alpha,
    powerlaw_pdf,
)
from .errors import (
    ClimdError,
    DomainError,
    InfeasibleScheduleError,
    ValidationError,
)
from .measurer import DifficultyTable, TraceBatch, score_dataset
from .metrics import (
    ConfusionMatrix,
    accuracy,
    confusion,
    macro_f1,
    weighted_f1,
)
from .scheduler import (
    Schedule,
    apportion,
    build_queues,
    build_schedule,
    largest_remainder,
    ramp_counts,
    random_baseline_schedule,
    reference_ramp,
    truncate_schedule,
)
from .simlab import (
    ExperimentReport,
    FusionModel,
    SyntheticDataset,
    SyntheticSpec,
    TrainConfig,
    collect_traces,
    generate_dataset,
    run_experiment,
    train,
)
