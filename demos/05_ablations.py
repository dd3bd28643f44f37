"""The ablation apparatus: two-stage vs one-stage training, dropping the
image re-alignment adapter, and varying the number of image views.

Everything here is also reachable from the command line:
  tamm pretrain --stage joint / --no-cia / --views N
  tamm eval --mode {both,iaa,taa}

Run: python demos/05_ablations.py   (under a minute)
"""

import numpy as np

from tamm.adapters import init_adapter
from tamm.datagen import EVAL_HELDOUT, DatasetSpec, generate
from tamm.encoders import init_point_encoder
from tamm.evaluate import build_category_bank, dual_features, zeroshot_topk
from tamm.train import TrainConfig, train_onestage, train_stage1, train_stage2

spec = DatasetSpec(classes=10, samples_per_class=60, heldout_classes=3, views=8, points_per_cloud=64, seed=0)
cfg = TrainConfig(seed=0, total_epochs=30, warmup_epochs=3, batch_size=48)
data = generate(spec)
d = spec.feature_dim
held = data.indices(EVAL_HELDOUT)
bank = build_category_bank(data, np.unique(data.labels[held]))


def fresh():
    return (
        init_point_encoder(128, d, 202),
        init_adapter(d, d // 2, 303, "dual"),
        init_adapter(d, d // 2, 404, "dual"),
    )


def heldout_top1(pe, iaa, taa):
    f_vp, f_sp = dual_features(data, pe, iaa, taa, held)
    return zeroshot_topk(f_vp, f_sp, data.labels[held], bank, "both", (1,))[1]


print("== two-stage vs one-stage (same budget), and no-adapter training ==")
cia, _, _ = train_stage1(data, init_adapter(d, d // 2, 101, "cia"), cfg)

pe, iaa, taa, _, _ = train_stage2(data, cia, *fresh(), cfg, views_limit=4)
print(f"two-stage, 4 views        : held-out zero-shot top-1 {heldout_top1(pe, iaa, taa):.3f}")

_, pe_j, iaa_j, taa_j, _, _ = train_onestage(data, init_adapter(d, d // 2, 101, "cia"), *fresh(), cfg, views_limit=4)
print(f"one-stage (joint), 4 views: held-out zero-shot top-1 {heldout_top1(pe_j, iaa_j, taa_j):.3f}")

pe_n, iaa_n, taa_n, _, _ = train_stage2(data, None, *fresh(), cfg, views_limit=4)
print(f"no re-alignment adapter   : held-out zero-shot top-1 {heldout_top1(pe_n, iaa_n, taa_n):.3f}")

print("\n== number of image views in stage 2 ==")
for views in (1, 2, 4, 8):
    pe_v, iaa_v, taa_v, _, _ = train_stage2(data, cia, *fresh(), cfg, views_limit=views)
    print(f"views={views}: held-out zero-shot top-1 {heldout_top1(pe_v, iaa_v, taa_v):.3f}")

print("\nthese comparisons are reported, not hard-gated: directions depend on")
print("the seed and budget, the machinery for producing them is the point.")
