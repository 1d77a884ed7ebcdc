#!/usr/bin/env python3
"""End-to-end comparison on synthetic imbalanced multimodal data.

For each seed the lab:
  1. generates a long-tailed Gaussian-mixture dataset (3 modalities),
  2. holds out a balanced test split,
  3. trains a throwaway model for a few warm-up epochs to collect traces,
  4. scores difficulty, fits the class power law, builds the curriculum,
  5. trains the fusion classifier under the curriculum schedule and,
     from the same initialization, under a random baseline with exactly
     the same number of sample visits,
  6. reports accuracy / weighted F1 / macro F1 on the balanced test set.

Macro F1 is the honest long-tail metric: the curriculum's class-balanced
early epochs pay off on minority classes.

Equivalent CLI: climd simulate --seeds 5 --out <dir>
"""

import time

from climd import SyntheticSpec, TrainConfig, run_experiment
from climd.simlab import ARMS, summarize

spec = SyntheticSpec(n_classes=5, dims=(8, 8, 8), n_samples=2000,
                     imbalance_exponent=1.5, class_separation=2.0,
                     noise_scale=1.0, redundancy=0.3, seed=0)
config = TrainConfig(learning_rate=0.01, epochs=20, warmup_epochs=3,
                     batch_size=32, hidden=16)

print(f"dataset: N={spec.n_samples}, C={spec.n_classes}, "
      f"imbalance exponent {spec.imbalance_exponent}")
print(f"training: {config.epochs} epochs, lr {config.learning_rate}, "
      f"{config.resolved_warmup} warm-up epochs\n")

start = time.perf_counter()
scores, visits = run_experiment(spec, config, n_seeds=5)
elapsed = time.perf_counter() - start
means, wins = summarize(scores)

print("seed  arm        accuracy  weighted_f1  macro_f1   visits")
for seed, (arm_scores, arm_visits) in enumerate(zip(scores, visits)):
    for arm, (acc, wf1, mf1), v in zip(ARMS, arm_scores, arm_visits):
        print(f"{seed:>4}  {arm:<9} {acc:9.4f} {wf1:12.4f} {mf1:9.4f} {v:8d}")

climd, baseline = ARMS.index("climd"), ARMS.index("baseline")
print(f"\nmeans:     curriculum macro F1 {means[climd, 2]:.4f}  "
      f"vs baseline {means[baseline, 2]:.4f}")
print(f"curriculum wins {wins[climd]} of {len(scores)} seeds "
      f"({elapsed:.1f}s total)")
