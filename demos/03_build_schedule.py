#!/usr/bin/env python3
"""From difficulty scores to concrete per-epoch training subsets.

The scheduler ramps the class mixture from uniform (epoch 1) toward the
fitted power law, overriding the final epoch to the complete dataset.
Within each class, epochs take prefixes of a fixed easy-to-hard queue.

The classic illustration: N=1000 samples, C=10 classes, T=10 epochs,
imbalance cap alpha(T)=5, gamma=0.3. Epoch 1 is ten classes x 10
samples; by epoch 10 the head class holds ~50% of the data.

The ramp is a function of the class distribution alone, so it needs
no difficulty scores; the scores only order the samples inside a class.
"""

import numpy as np

from climd import (
    ClassDistribution,
    DifficultyTable,
    build_schedule,
    reference_ramp,
)

counts = reference_ramp(n_samples=1000, total_epochs=10, n_classes=10,
                        alpha_cap=5.0, gamma=0.3)  # (T, C): rows per epoch per class, by rank

print("epoch-by-rank subset sizes (rank 1 = largest class):")
print("epoch " + " ".join(f"r{r:<4}" for r in range(1, 11)))
for t, row in enumerate(counts, start=1):
    print(f"{t:>5} " + " ".join(f"{v:<5}" for v in row))
print(f"row sums: {counts.sum(axis=1).tolist()}  (= 100*t, full data at T)")

# The same machinery on a small dataset with real difficulty scores:
# class 0 has four samples scored 0.9 > 0.7 > 0.4 > 0.1, so epochs take
# prefixes of [a, b, c, d]; class 1 similarly. A schedule's queues hold
# row indices into the table, so its ids name the samples.
r = np.array([0.9, 0.7, 0.4, 0.1, 0.8, 0.2])
table = DifficultyTable(ids=["a", "b", "c", "d", "e", "f"],
                        labels=np.array([0, 0, 0, 0, 1, 1]),
                        psi=np.column_stack([r / 2, r / 2]), phi=r / 2, r=r)
small = ClassDistribution.from_labels(table.labels, gamma=0.3)
plan = build_schedule(table, small, total_epochs=3)

print("\nsix samples, two classes, three epochs (easy prefixes grow):")
for t, rows in enumerate(plan.epochs(), start=1):
    counts = dict(zip(plan.classes.tolist(), plan.counts[t - 1].tolist()))
    print(f"  epoch {t}: {[table.ids[i] for i in rows]}  counts {counts}")
