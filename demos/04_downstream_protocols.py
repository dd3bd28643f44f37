"""Every downstream protocol on a freshly trained small model: zero-shot
classification (with single-adapter ablation modes), linear probing, K-way
N-shot episodes, and cross-modal retrieval.

Run: python demos/04_downstream_protocols.py   (about ten seconds)
"""

import numpy as np

from tamm.adapters import init_adapter
from tamm.datagen import EVAL_HELDOUT, EVAL_SEEN, PRETRAIN, DatasetSpec, generate
from tamm.encoders import init_point_encoder
from tamm.evaluate import (
    build_category_bank,
    dual_features,
    fewshot_eval,
    linear_probe,
    retrieve,
    zeroshot_topk,
)
from tamm.train import TrainConfig, train_stage1, train_stage2

spec = DatasetSpec(classes=10, samples_per_class=60, heldout_classes=3, views=4, points_per_cloud=64, seed=0)
cfg = TrainConfig(seed=0, total_epochs=40, warmup_epochs=4, batch_size=48)
data = generate(spec)
d = spec.feature_dim

cia, _, _ = train_stage1(data, init_adapter(d, d // 2, 101, "cia"), cfg)
pe, iaa, taa, _, _ = train_stage2(
    data, cia, init_point_encoder(128, d, 202), init_adapter(d, d // 2, 303, "dual"),
    init_adapter(d, d // 2, 404, "dual"), cfg,
)

held = data.indices(EVAL_HELDOUT)
f_vp, f_sp = dual_features(data, pe, iaa, taa, held)
bank = build_category_bank(data, np.unique(data.labels[held]))

print("== zero-shot on held-out classes (chance = 1/3) ==")
for mode in ("both", "iaa", "taa"):
    accs = zeroshot_topk(f_vp, f_sp, data.labels[held], bank, mode, (1, 2))
    print(f"mode {mode:4s}: top-1 {accs[1]:.3f}  top-2 {accs[2]:.3f}")

print("\n== linear probe on seen classes (concatenated dual features) ==")
seen = np.sort(np.concatenate([data.indices(PRETRAIN), data.indices(EVAL_SEEN)]))
sv, ss = dual_features(data, pe, iaa, taa, seen)
for name, feats in (("concat", np.concatenate([sv, ss], axis=1)), ("iaa", sv), ("taa", ss)):
    print(f"{name:6s}: {linear_probe(feats, data.labels[seen], seed=0):.3f}")

print("\n== 3-way 10-shot episodes, 10 trials ==")
allv, alls = dual_features(data, pe, iaa, taa, np.arange(data.labels.size))
res = fewshot_eval(np.concatenate([allv, alls], axis=1), data.labels, ways=3, shots=10, trials=10, seed=0)
print(f"mean {res.mean:.3f} +/- {res.std:.3f}")

print("\n== retrieval: class-level text queries over the held-out gallery ==")
for query_class in sorted(set(data.labels[held].tolist())):
    pos = list(bank.class_ids).index(query_class)
    hits = retrieve(bank.embeddings[pos], f_vp, f_sp, "text", k=5)
    print(f"text query for class {query_class}: retrieved classes {[int(data.labels[held[h]]) for h in hits]}")
print("(retrieval confuses near-neighbor classes at this toy scale; at the")
print(" default dataset scale most held-out classes return an own-class majority)")
