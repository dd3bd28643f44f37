"""Generate a synthetic triplet dataset and look at what the domain shift does.

Each sample is (point cloud, m image features, text feature, label). Without
the shift, image and text features of the same sample match almost perfectly;
with it, matching accuracy is tuned down into the 0.35-0.55 band that the
stage-1 adapter is meant to recover from.

Run: python demos/02_synthetic_dataset.py
"""

import os
import tempfile

import numpy as np

from tamm.datagen import (
    EVAL_HELDOUT,
    DatasetSpec,
    batched_contrastive_accuracy,
    generate,
    read_triplets,
    write_triplets,
)

spec = DatasetSpec(classes=10, samples_per_class=40, heldout_classes=3, views=4, points_per_cloud=64, seed=0)

clean = generate(DatasetSpec(**{**spec.__dict__, "shift_strength": 0.0}))
shifted = generate(spec)

held = clean.indices(EVAL_HELDOUT)
print("== image-text matching accuracy on held-out classes (batches of 64) ==")
print(f"without domain shift : {batched_contrastive_accuracy(clean.image_feats[held], clean.text_feats[held]):.3f}")
print(f"with tuned shift     : {batched_contrastive_accuracy(shifted.image_feats[held], shifted.text_feats[held]):.3f}")
print(f"tuned shift strength : {shifted.spec.shift_strength:.4f}")

print("\n== the splits are derived from the header, never stored ==")
for tag in ("pretrain", "eval-seen", "eval-heldout"):
    idx = shifted.indices(tag)
    print(f"{tag:13s}: {idx.size:4d} samples, classes {sorted(set(shifted.labels[idx].tolist()))}")

print("\n== binary round trip is bit-exact ==")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "triplets.bin")
    write_triplets(shifted, path)
    back = read_triplets(path)
    print(f"file size        : {os.path.getsize(path)} bytes")
    print(f"points equal     : {np.array_equal(back.points, shifted.points)}")
    print(f"features equal   : {np.array_equal(back.image_feats, shifted.image_feats)}")
    print(f"spec equal       : {back.spec == shifted.spec}")

print("\n== geometry carries class structure ==")
same = np.linalg.norm(shifted.points[0] - shifted.points[1], axis=1).mean()
other = np.linalg.norm(shifted.points[0] - shifted.points[-1], axis=1).mean()
print(f"mean point distance, same class pair : {same:.3f}")
print(f"mean point distance, cross class pair: {other:.3f}")
