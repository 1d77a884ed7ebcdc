"""The three benchmark workloads: inputs, the CLI call, and its oracle."""

from __future__ import annotations

from pathlib import Path

import numpy as np

import inputs
import oracle


class PipelineJsonl:
    """``climd pipeline`` on a JSONL trace file."""

    name = "pipeline-jsonl"
    n = 20_000
    epochs = 20

    def generate(self, seed: int, indir: Path):
        self.traces = indir / "traces.jsonl"
        self.ts = inputs.make_traces(seed, n=self.n)
        inputs.write_traces_jsonl(self.traces, self.ts)
        self.ids = inputs.sample_ids(self.n)
        self._expected = None
        self.samples = self.n
        self.visits = sum(oracle.epoch_totals(self.n, self.epochs))

    def input_files(self) -> list[Path]:
        return [self.traces]

    def argv(self, out: Path) -> list[str]:
        return ["pipeline", "--traces", str(self.traces),
                "--epochs", str(self.epochs), "--out", str(out)]

    def check(self, out: Path) -> list[str]:
        if self._expected is None:
            self._expected = oracle.expected_scores(self.ts.labels, self.ts.probs,
                                                    self.ts.emb)
        psi, phi, r = self._expected
        labels = self.ts.labels
        bad = oracle.check_difficulty(out / "difficulty.csv", self.ids, labels,
                                      psi, phi, r)
        classes, counts = np.unique(labels, return_counts=True)
        sizes = dict(zip(classes.tolist(), counts.tolist()))
        bad += oracle.check_distribution(out / "distribution.csv", sizes,
                                         inputs.mle_alpha(counts), inputs.GAMMA)
        # Queues follow the r the program wrote, once it is within tolerance.
        if not bad:
            r = oracle.read_difficulty_r(out / "difficulty.csv")
        bad += oracle.check_schedule(out / "schedule.csv", self.ids, labels, r,
                                     self.epochs)
        return bad


class ScheduleCsv:
    """``climd schedule`` from a pre-scored difficulty table."""

    name = "schedule-csv"
    epochs = 90
    classes, largest, smallest = 1000, 1280, 5

    def generate(self, seed: int, indir: Path):
        self.difficulty = indir / "difficulty.csv"
        self.distribution = indir / "distribution.csv"
        self.ss, phi, psi = inputs.make_scored(seed, self.classes, self.largest,
                                               self.smallest)
        inputs.write_scored(self.difficulty, self.distribution, self.ss, phi, psi)
        self.ids = inputs.sample_ids(self.ss.n)
        self.samples = self.ss.n
        self.visits = sum(oracle.epoch_totals(self.ss.n, self.epochs))

    def input_files(self) -> list[Path]:
        return [self.difficulty, self.distribution]

    def argv(self, out: Path) -> list[str]:
        return ["schedule", "--difficulty", str(self.difficulty),
                "--distribution", str(self.distribution),
                "--epochs", str(self.epochs), "--out", str(out)]

    def check(self, out: Path) -> list[str]:
        return oracle.check_schedule(out / "schedule.csv", self.ids, self.ss.labels,
                                     self.ss.r, self.epochs)


class SimulateLab:
    """``climd simulate`` in the acceptance-criterion-6 configuration.

    Its inputs are the CLI flags alone and do not depend on the workload
    seed: the lab's claim is measured on the configuration it was made
    for, so ``macro_f1_gain`` is identical across runs.
    """

    name = "simulate-lab"
    seeds, n, classes, exponent, epochs, warmup = 10, 2000, 5, 1.5, 20, 3
    test_fraction = 0.4

    def generate(self, seed: int, indir: Path):
        self.samples = self.seeds * self.n
        self.visits = None  # known from the first report
        self.gain = None

    def input_files(self) -> list[Path]:
        return []

    def argv(self, out: Path) -> list[str]:
        return ["simulate", "--seeds", str(self.seeds), "--epochs", str(self.epochs),
                "--warmup", str(self.warmup), "--lr", "0.01", "--out", str(out)]

    def warmup_visits(self) -> int:
        """Visits of the class-balanced warm-up, per lab seed: each of its
        epochs takes round(n_train / epochs) of the training split, whose
        per-class test hold-out is round(0.4 * n_min), at most n_min - 1."""
        n_min = int(inputs.rank_power_sizes(self.n, self.classes, self.exponent).min())
        per_class = min(max(1, round(self.test_fraction * n_min)), n_min - 1)
        n_train = self.n - self.classes * per_class
        return self.warmup * oracle.round_half_up_div(n_train, self.epochs)

    def check(self, out: Path) -> list[str]:
        bad, self.gain = oracle.check_simulate(out, self.seeds)
        if self.visits is None:
            self.visits = (oracle.sim_visits(out / "report.csv")
                           + self.seeds * self.warmup_visits())
        return bad


WORKLOADS = {w.name: w for w in (PipelineJsonl, ScheduleCsv, SimulateLab)}
