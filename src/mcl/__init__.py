"""Subset-clustered two-phase training for unsupervised re-identification,
desk scale: feature pools in, unit embeddings out, with clustering cost
accounting along the way."""

__version__ = "0.1.0"

from .cluster import ClusterAssignment, dbscan
from .data import GenSpec, Pool, generate_pool, load_pool, read_features, \
    write_features
from .geometry import ENTRY_COUNTER, clustering_distance, jaccard_distance, \
    k_reciprocal_sets, knn, pairwise_cosine_distance
from .losses import infonce_batch, phase2_total, siamese_consistency_batch, \
    soft_weighted_triplet_batch
from .metrics import CostProfile, clustering_quality, compute_map_cmc, \
    profile_clustering
from .model import EncoderParams, OptimizerState, adam_step, augment_batch, \
    encode_batch, load_checkpoint, lr_at_epoch, save_checkpoint
from .protobank import NoClustersError, PrototypeBank
from .trainer import NumericError, TrainConfig, TrainReport, \
    benchmark_config, benchmark_genspec, epoch_split, pk_sample, train

__all__ = [
    "ClusterAssignment", "dbscan",
    "GenSpec", "Pool", "generate_pool", "load_pool", "read_features",
    "write_features",
    "ENTRY_COUNTER", "clustering_distance", "jaccard_distance",
    "k_reciprocal_sets", "knn", "pairwise_cosine_distance",
    "infonce_batch", "phase2_total", "siamese_consistency_batch",
    "soft_weighted_triplet_batch",
    "CostProfile", "clustering_quality", "compute_map_cmc",
    "profile_clustering",
    "EncoderParams", "OptimizerState", "adam_step", "augment_batch",
    "encode_batch", "load_checkpoint", "lr_at_epoch", "save_checkpoint",
    "NoClustersError", "PrototypeBank",
    "NumericError", "TrainConfig", "TrainReport",
    "benchmark_config", "benchmark_genspec", "epoch_split", "pk_sample",
    "train",
]
