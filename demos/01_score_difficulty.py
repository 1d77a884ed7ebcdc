#!/usr/bin/env python3
"""How per-sample training difficulty is scored.

Each multimodal sample gets two signals:

  psi (per modality)  confidence in the true class, sigmoid((1/C) ln p_true),
                      always in (0, 0.5]: 0.5 means the modality is certain.
  phi                 complementarity: 1 minus the mean pairwise cosine
                      similarity of the modality embeddings, in [0, 2].
                      0 = modalities redundant, 2 = antipodal.

The combined score is r = phi + mean(psi). Under the default ordering a
LARGER r (confident and complementary) counts as an EASIER sample.

Model outputs go in as one TraceBatch of arrays: labels (N,), probs
(N, M, C) and embeddings (N, M, D). score_dataset scores the whole batch
at once and returns columns psi (N, M), phi (N,) and r (N,).
"""

import numpy as np

from climd import TraceBatch, score_dataset

# Three hand-built samples for a 3-class problem with two modalities.
batch = TraceBatch(
    ids=["confident-redundant", "confident-complementary", "uncertain"],
    labels=np.array([0, 0, 0]),
    probs=np.array([
        [[0.97, 0.02, 0.01], [0.95, 0.03, 0.02]],
        [[0.97, 0.02, 0.01], [0.95, 0.03, 0.02]],
        [[0.36, 0.33, 0.31], [0.20, 0.45, 0.35]],
    ]),
    emb=np.array([
        [[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[1.0, 0.2, 0.0], [0.9, 0.3, 0.1]],
    ]),
)
table = score_dataset(batch)

print("sample                        psi_1   psi_2    phi      r")
for sid, psi, phi, r in zip(table.ids, table.psi, table.phi, table.r):
    print(f"{sid:<28} {psi[0]:6.4f}  {psi[1]:6.4f}  {phi:5.3f}  {r:5.3f}")

# The same scoring over a random batch: 6 samples, 3 modalities, 4 classes.
rng = np.random.default_rng(0)
n, m, c = 6, 3, 4
table = score_dataset(TraceBatch(
    ids=[f"rand-{i}" for i in range(n)],
    labels=rng.integers(c, size=n),
    probs=rng.dirichlet(np.ones(c), size=(n, m)),
    emb=rng.standard_normal((n, m, 5)),
))

print("\nrandom batch, sorted easiest first (largest r):")
for i in np.argsort(-table.r, kind="stable"):
    print(f"  {table.ids[i]}: r = {table.r[i]:.4f}  (phi {table.phi[i]:.3f}, "
          f"mean psi {table.psi[i].mean():.4f})")
