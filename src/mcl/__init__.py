"""Subset-clustered two-phase training for unsupervised re-identification,
desk scale: feature pools in, unit embeddings out, with clustering cost
accounting along the way.

Each name lives in its module only, as `mcl.<module>.<name>`; `import mcl`
loads all eight modules, so `mcl.trainer.train(...)` works after it."""

__version__ = "0.1.0"

from . import cluster, data, geometry, losses, metrics, model, protobank, trainer
