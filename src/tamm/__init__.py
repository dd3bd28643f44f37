"""tamm: a desk-scale two-stage tri-modal pre-training sandbox.

Stage 1 fits a residual adapter that re-aligns domain-shifted image features
with text features; stage 2 trains a point-cloud encoder whose features are
split by two dual adapters into an image-aligned and a text-aligned
sub-space. Zero-shot, linear-probe, few-shot, and retrieval protocols sit on
top, and every differentiable piece is verifiable by finite differences.
"""
