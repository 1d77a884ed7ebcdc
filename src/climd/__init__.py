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
    fit_alpha,
    powerlaw_pdf,
    ramp_targets,
)
from .errors import DomainError, ValidationError
from .measurer import DifficultyTable, TraceBatch, score_dataset
from .metrics import (
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

# The lab's names are looked up on first use, so that importing the package,
# or running any command but ``simulate``, never imports climd.simlab.
_SIMLAB = frozenset({"FusionModel", "SyntheticDataset", "SyntheticSpec", "TrainConfig",
                     "collect_traces", "generate_dataset", "run_experiment", "train"})


def __getattr__(name):
    if name in _SIMLAB:
        from . import simlab
        return getattr(simlab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
