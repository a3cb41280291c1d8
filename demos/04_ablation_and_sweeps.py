#!/usr/bin/env python3
# Why the hybrid exists: ablation on data with local and long-range structure,
# plus the learning-rate and optimizer sensitivity tables.

import numpy as np

from creditnet import (
    ModelConfig, TrainConfig, EarlyStop, SchemaConfig, SplitSpec,
    synth_generate, synth_preset, prepare_splits,
    ablate, sweep_lr, sweep_optimizer, train, auc,
)

def splits_for(preset, seed, n=3000):
    frame, bayes = synth_generate(n, 10, seed, synth_preset(preset, 10))
    schema = SchemaConfig("label", tuple(frame.feature_names))
    s, _ = prepare_splits(frame, schema, SplitSpec(seed=seed))
    return s, auc(bayes, frame.y)


def show(rows, key):
    for row in rows:
        m = row["metrics"]["test"]
        print(f"  {row[key]:>17}: acc={m['acc']:.4f} auc={m['auc']:.4f} "
              f"ks={m['ks']:.4f}")


# %% ablation on data holding BOTH a local motif and a long-range product.
# The readout head is kept linear (mlp_hidden=()) so interactions can only
# form inside each variant's own mixing stage; with a deep head every
# variant becomes a universal approximator and the comparison blurs.
splits, ceiling = splits_for("local-and-long", seed=0, n=4000)
model_cfg = ModelConfig(n_features=10, mlp_hidden=(), seed=0)
train_cfg = TrainConfig(seed=0, epochs=300, learning_rate=3e-3,
                        early_stop=EarlyStop(patience=30))
print(f"local + long-range data (Bayes AUC {ceiling:.4f}):")
show(ablate(model_cfg, train_cfg, splits), "variant")

# %% the same ablation on purely long-range data: conv windows never see the
# interacting pair together, attention pairs any two tokens
splits, ceiling = splits_for("long-range", seed=0, n=4000)
print(f"\nlong-range-only data (Bayes AUC {ceiling:.4f}):")
show(ablate(model_cfg, train_cfg, splits), "variant")

# %% the logistic floor is blind to pure interactions
logit_cfg = TrainConfig(seed=0, epochs=40, learning_rate=0.01, early_stop=None)
_, rep = train(ModelConfig(n_features=10, variant="logistic"), logit_cfg, splits)
print(f"\nlogistic baseline on long-range data: "
      f"auc={rep.final['test'].auc:.4f} (chance is 0.5)")

# %% learning-rate sensitivity on well-behaved linear data
splits, _ = splits_for("linear", seed=1, n=3000)
default_cfg = ModelConfig(n_features=10, seed=1)
sweep_train = TrainConfig(seed=1, epochs=40, early_stop=EarlyStop(patience=8))
print("\nlearning-rate sweep (default hybrid):")
rows = sweep_lr(default_cfg, sweep_train, [0.005, 0.003, 0.002, 0.001], splits)
show(rows, "lr")
aucs = [r["metrics"]["test"]["auc"] for r in rows]
print(f"  AUC spread across the grid: {max(aucs) - min(aucs):.4f}")

# %% optimizer x learning-rate grid
print("\noptimizer grid:")
for row in sweep_optimizer(default_cfg, sweep_train, [0.003, 0.001], splits):
    m = row["metrics"]["test"]
    print(f"  {row['optimizer']:>5} lr={row['lr']:<6}: auc={m['auc']:.4f} "
          f"ks={m['ks']:.4f}")
