"""The two pre-training stages on a reduced config, start to finish.

Stage 1 fits the residual image adapter until shifted image features match
their texts again; stage 2 freezes it and trains the point encoder plus both
dual adapters against the adapted image features and the text features.

Run: python demos/03_two_stage_pretraining.py   (about ten seconds)
"""

import numpy as np

from tamm.adapters import init_adapter
from tamm.datagen import DatasetSpec, generate
from tamm.encoders import init_point_encoder
from tamm.train import TrainConfig, train_stage1, train_stage2

spec = DatasetSpec(classes=10, samples_per_class=60, heldout_classes=3, views=4, points_per_cloud=64, seed=0)
cfg = TrainConfig(seed=0, total_epochs=40, warmup_epochs=4, batch_size=48)

data = generate(spec)
d = spec.feature_dim

print("== stage 1: image-text re-alignment ==")
cia = init_adapter(d, d // 2, cfg.seed + 101, "cia")
cia, rows1, _ = train_stage1(data, cia, cfg)
for r in rows1[:: max(1, len(rows1) // 6)]:
    print(f"epoch {r['epoch']:3d}  loss {r['loss']:.4f}  acc(pretrain) {r['acc_pretrain']:.3f}  acc(heldout) {r['acc_heldout']:.3f}")
print(f"final held-out accuracy: {rows1[-1]['acc_heldout']:.3f}")

print("\n== stage 2: decoupled tri-modal alignment (adapter frozen) ==")
pe = init_point_encoder(128, d, cfg.seed + 202)
iaa = init_adapter(d, d // 2, cfg.seed + 303, "dual")
taa = init_adapter(d, d // 2, cfg.seed + 404, "dual")
pe, iaa, taa, rows2, _ = train_stage2(data, cia, pe, iaa, taa, cfg)
for r in rows2[:: max(1, len(rows2) // 6)]:
    print(
        f"epoch {r['epoch']:3d}  loss {r['loss']:.4f}  "
        f"text term {r['loss_text']:.4f}  image term {r['loss_image']:.4f}  lr {r['lr']:.2e}"
    )

print("\nthe text and image loss components are logged separately; both fall")
print(f"from {rows2[0]['loss']:.2f} (untrained) to {rows2[-1]['loss']:.2f}.")
