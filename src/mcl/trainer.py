"""Two-phase training engine and the comparison regimes.

Each epoch the pool is re-split into N near-equal subsets. Phase 1 clusters
the first subset (cosine -> k-reciprocal Jaccard -> DBScan), initializes a
prototype bank from the cluster means, and trains with InfoNCE + momentum
bank updates. Phase 2 annotates the remaining subsets with hardened soft
labels under non-overlapping per-subset label spaces and trains on two
augmented views per sample with the consistency + soft-weighted triplet
objective. Baseline regimes: "all" (full-pool clustering every epoch, no
phase 2) and "naive" (fixed subsets consumed sequentially, phase 1 only).

Everything is deterministic given (pool, config): rng streams are derived
from the config seed, and reductions have a fixed order.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .cluster import ClusterAssignment, dbscan
from .data import GenSpec, Pool
from .geometry import ENTRY_COUNTER, clustering_distance
from .losses import LossValue, infonce_batch, phase2_total, \
    siamese_consistency_batch, soft_weighted_triplet_batch
from .metrics import compute_map_cmc, labeling_correct_fraction
from .model import DegenerateEmbeddingError, EncoderParams, OptimizerState, \
    adam_step, augment_batch, encode_backward, encode_batch, encode_forward, \
    lr_at_epoch
from .protobank import NoClustersError, PrototypeBank

REGIMES = ("mcl", "all", "naive")

EPS_WIDEN_STEP = 0.05
EPS_CEILING = 0.95


class NumericError(RuntimeError):
    """Training hit a non-finite loss or a degenerate embedding."""


@dataclass
class TrainConfig:
    """Run settings; the defaults, on GenSpec()'s pool, are the gated run."""

    n_subsets: int = 2
    epochs: int = 30
    warmup_epochs: int = 5
    p_identities: int = 16      # phase-1 PK batch: P pseudo ids x I instances
    i_instances: int = 16
    p2_identities: int = 16     # phase-2 PK batch: P2 ids x I2 augmented views
    i2_instances: int = 4
    momentum_m: float = 0.2
    margin: float = 0.3
    lambda_tri: float = 1.5
    tau: float = 0.05
    eps: float = 0.7
    min_pts: int = 4
    k_neighbors: int = 30
    min_cluster_fraction: float = 0.3  # eps widens until this much of X1 clusters
    lr: float = 3.5e-4
    weight_decay: float = 5e-4
    d_hidden: int = 128
    d_emb: int = 64
    sigma_aug: float = 0.08
    drop_p: float = 0.15
    holdout_fraction: float = 0.25
    seed: int = 1
    # ablation switches
    fixed_split: bool = False
    shared_label_space: bool = False
    no_sc: bool = False
    plain_triplet: bool = False

    def __post_init__(self):
        # a field's default fixes its type; a float field also takes an int,
        # and a bool (an int subclass) passes only for a bool field
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            accepted = (int, float) if kind is float else kind
            if (isinstance(value, bool) != (kind is bool)
                    or not isinstance(value, accepted)):
                raise ValueError(
                    f"{f.name} must be {kind.__name__}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.n_subsets < 1:
            raise ValueError("n_subsets must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError("need 0 <= warmup_epochs < epochs")
        for name in ("p_identities", "i_instances", "p2_identities"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.i2_instances < 2 or self.i2_instances % 2:
            raise ValueError("i2_instances must be an even count of views >= 2")
        if not 0.0 <= self.momentum_m <= 1.0:
            raise ValueError("momentum_m must be in [0, 1]")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        if self.lambda_tri < 0:
            raise ValueError("lambda_tri must be >= 0")
        # augment_batch's rules, checked here so phase 1 does not run first
        if self.sigma_aug < 0:
            raise ValueError("sigma_aug must be >= 0")
        if not 0.0 <= self.drop_p < 1.0:
            raise ValueError("drop_p must be in [0, 1)")
        if not 0.0 <= self.eps < 1.0:
            # Jaccard distances lie in [0, 1]: eps >= 1 makes every pair a
            # neighbour, one cluster, and an n^2 pair list in dbscan
            raise ValueError("eps must be in [0, 1)")
        if self.min_pts < 1 or self.k_neighbors < 1:
            raise ValueError("invalid clustering parameters")
        if not 0.0 <= self.min_cluster_fraction <= 1.0:
            raise ValueError("min_cluster_fraction must be in [0, 1]")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")
        if self.d_hidden < 0 or self.d_emb < 1:
            raise ValueError("invalid encoder dims")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ValueError(
                f"a config must be a JSON object, got {type(d).__name__}")
        valid = set(cls.__dataclass_fields__)
        unknown = set(d) - valid
        if unknown:
            raise ValueError(
                f"unknown config keys {sorted(unknown)}; valid: {sorted(valid)}")
        return cls(**d)


# the defaults are the benchmark's, so these are the classes themselves; they
# remain only because perfbench/worker.py and the acceptance gate call them
benchmark_genspec = GenSpec
benchmark_config = TrainConfig


def epoch_split(n_samples: int, n_subsets: int,
                epoch_seed: int) -> list[np.ndarray]:
    """Seeded permutation cut into N near-equal contiguous subsets."""
    if n_subsets < 1 or n_subsets > n_samples:
        raise ValueError(f"need 1 <= n_subsets <= {n_samples}, got {n_subsets}")
    perm = np.random.default_rng(epoch_seed).permutation(n_samples)
    return np.array_split(perm, n_subsets)


def pk_sample(labels: np.ndarray, p: int, i: int,
              rng: np.random.Generator) -> np.ndarray:
    """Positions for a PK batch: p labels, i instances each.

    Labels are drawn without replacement; instances without replacement
    unless the label has fewer than i members, then with.
    """
    labels = np.asarray(labels)
    distinct = np.unique(labels)
    if distinct.size < p:
        raise ValueError(f"need >= {p} distinct labels, have {distinct.size}")
    chosen = rng.choice(distinct, size=p, replace=False)
    picks = []
    for lab in chosen:
        members = np.flatnonzero(labels == lab)
        picks.append(rng.choice(members, size=i, replace=members.size < i))
    return np.concatenate(picks)


@dataclass
class Phase1Stats:
    losses: list[float]
    assignment: ClusterAssignment  # DBScan over the subset, -1 = outlier
    eps_used: float


def _cluster_with_widening(d: np.ndarray, eps: float, min_pts: int,
                           min_fraction: float = 0.0
                           ) -> tuple[ClusterAssignment, float]:
    """Retry DBScan with a wider radius when everything lands in noise.

    Stops at the first eps whose clustered (non-outlier) fraction reaches
    min_fraction; with the default 0 that means the first eps yielding any
    cluster at all. At the ceiling it falls back to the best coverage seen,
    at the earliest eps that reached it, and errors only when no eps found
    any cluster.
    """
    e = eps
    best: tuple[ClusterAssignment, float] | None = None
    n = d.shape[0]
    while True:
        assignment = dbscan(d, eps=e, min_pts=min_pts)
        if assignment.num_clusters > 0:
            covered = 1.0 - assignment.num_outliers / n
            if covered >= min_fraction:
                return assignment, e
            if best is None or covered > 1.0 - best[0].num_outliers / n:
                best = (assignment, e)
        if e >= EPS_CEILING:
            if best is not None:
                return best
            raise NoClustersError(
                f"no clusters up to eps={e:.2f} (started at {eps})")
        e = min(e + EPS_WIDEN_STEP, EPS_CEILING)


def run_phase1_epoch(features: np.ndarray, params: EncoderParams,
                     opt: OptimizerState, config: TrainConfig,
                     rng: np.random.Generator) -> tuple[PrototypeBank, Phase1Stats]:
    """Cluster one subset, build the bank, run InfoNCE batches with Eq-style
    momentum updates. Outliers are discarded from training."""
    n = features.shape[0]
    emb = encode_batch(params, features)
    k_eff = min(config.k_neighbors, n - 1)
    dm = clustering_distance(emb, k=k_eff)
    assignment, eps_used = _cluster_with_widening(
        dm, config.eps, config.min_pts, config.min_cluster_fraction)
    del dm
    bank = PrototypeBank.from_clusters(emb, assignment.labels,
                                       momentum=config.momentum_m)
    kept = np.flatnonzero(assignment.labels >= 0)
    kept_labels = assignment.labels[kept]
    p_eff = min(config.p_identities, bank.num_classes)
    num_batches = math.ceil(kept.size / (config.p_identities * config.i_instances))
    losses = []
    for _ in range(num_batches):
        local = pk_sample(kept_labels, p_eff, config.i_instances, rng)
        batch = kept[local]
        batch_labels = assignment.labels[batch]
        v, cache = encode_forward(params, features[batch])
        loss = infonce_batch(v, bank, batch_labels, config.tau)
        grads = encode_backward(params, cache, loss.grads["v"])
        adam_step(params, grads, opt)
        bank.momentum_update(v, batch_labels)
        losses.append(loss.value)
    return bank, Phase1Stats(losses, assignment, eps_used)


@dataclass
class Phase2Stats:
    losses: list[float]
    hardened: np.ndarray       # per rest sample, offset per subset unless shared
    positions: np.ndarray      # pool positions aligned with `hardened`
    triplet_skipped: int = 0


def _batch_hard_triplet(v: np.ndarray, ids: np.ndarray, config: TrainConfig) -> LossValue:
    """Hardest positive / hardest negative per anchor within the batch."""
    d = np.maximum(2.0 - 2.0 * (v @ v.T), 0.0)  # unit rows
    same = ids[:, None] == ids[None, :]
    np.fill_diagonal(same, False)
    diff = ids[:, None] != ids[None, :]
    hp = np.argmax(np.where(same, d, -np.inf), axis=1)
    hn = np.argmin(np.where(diff, d, np.inf), axis=1)
    tri = soft_weighted_triplet_batch(v, v[hp], v[hn], config.margin,
                                      soft_weight=not config.plain_triplet)
    gv = tri.grads["f_a"].copy()
    np.add.at(gv, hp, tri.grads["f_p"])
    np.add.at(gv, hn, tri.grads["f_n"])
    return LossValue(tri.value, {"v": gv})


def run_phase2_epoch(pool_features: np.ndarray, rest_subsets: list[np.ndarray],
                     bank: PrototypeBank, params: EncoderParams,
                     opt: OptimizerState, config: TrainConfig,
                     rng: np.random.Generator) -> Phase2Stats:
    """Annotate the rest subsets with hardened prototype labels, then polish.

    Identity = (subset, argmax) realized as argmax + subset offset, so two
    samples from different subsets never count as positives unless the
    shared-label-space ablation is on. Each drawn sample contributes two
    augmented views, stacked as [view a; view b] through one encoder forward
    and one backward per batch; the triplet term mines batch-hard within the
    stacked views and is skipped (with a warning) when fewer than two
    identities are in reach.
    """
    k_classes = bank.num_classes
    positions, ids = [], []
    for j, sub in enumerate(rest_subsets):
        emb = encode_batch(params, pool_features[sub])
        hard = bank.harden(bank.soft_label_batch(emb))
        offset = 0 if config.shared_label_space else j * k_classes
        positions.append(sub)
        ids.append(hard + offset)
    positions = np.concatenate(positions)
    ids = np.concatenate(ids)

    if k_classes < 2:
        warnings.warn("phase 2 with a single prototype: triplet term skipped")
    per_identity = config.i2_instances // 2  # distinct samples; 2 views each
    samples_per_batch = config.p2_identities * per_identity
    num_batches = math.ceil(positions.size / samples_per_batch)
    p_eff = min(config.p2_identities, np.unique(ids).size)
    losses = []
    skipped = 0
    for _ in range(num_batches):
        local = pk_sample(ids, p_eff, per_identity, rng)
        raw = pool_features[positions[local]]
        batch_ids = ids[local]
        view_a = augment_batch(raw, rng, config.sigma_aug, config.drop_p)
        view_b = augment_batch(raw, rng, config.sigma_aug, config.drop_p)
        # one pass over the stacked views [a; b]: rows i and b + i are the
        # two views of sample i, and the backward sums over both
        v2, cache = encode_forward(params, np.concatenate([view_a, view_b]))
        ids2 = np.concatenate([batch_ids, batch_ids])

        if config.no_sc:
            l_sc = LossValue(0.0, {"v": np.zeros_like(v2)})
        else:
            sc = siamese_consistency_batch(*np.split(v2, 2), bank)
            g = np.concatenate([sc.grads["f_s"], sc.grads["f_t"]], axis=0)
            l_sc = LossValue(sc.value, {"v": g})

        if k_classes >= 2 and np.unique(batch_ids).size >= 2:
            l_tri = _batch_hard_triplet(v2, ids2, config)
        else:
            l_tri = LossValue(0.0, {"v": np.zeros_like(v2)})
            skipped += 1

        total = phase2_total(l_sc, l_tri, config.lambda_tri)
        adam_step(params, encode_backward(params, cache, total.grads["v"]), opt)
        losses.append(total.value)
    return Phase2Stats(losses=losses, hardened=ids, positions=positions,
                       triplet_skipped=skipped)


@dataclass
class EpochRecord:
    epoch: int
    n_phase1: int
    n_phase2: int
    num_clusters: int
    num_outliers: int
    eps_used: float
    phase1_loss: float
    phase2_loss: float
    mean_ap: float
    rank1: float
    label_correct: float
    distance_entries: int
    seconds: float


@dataclass
class TrainReport:
    regime: str
    config: dict
    n_train: int
    n_query: int
    n_gallery: int
    epochs: list[EpochRecord] = field(default_factory=list)

    @property
    def final_map(self) -> float:
        return self.epochs[-1].mean_ap

    @property
    def final_rank1(self) -> float:
        return self.epochs[-1].rank1

    @property
    def total_entries(self) -> int:
        return sum(e.distance_entries for e in self.epochs)

    @property
    def total_seconds(self) -> float:
        return sum(e.seconds for e in self.epochs)

    @property
    def labeling_series(self) -> np.ndarray:
        return np.array([e.label_correct for e in self.epochs])

    def to_dict(self) -> dict:
        d = asdict(self)
        epochs = d.pop("epochs")  # last, after the run totals
        return {**d, "final_map": self.final_map,
                "final_rank1": self.final_rank1,
                "total_entries": self.total_entries,
                "total_seconds": self.total_seconds, "epochs": epochs}


def holdout_split(pool: Pool, holdout_fraction: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train positions, then query/gallery positions over held-out identities.

    The top `holdout_fraction` of identity ids is never trained on; each
    held-out identity contributes its lowest-position row as the query and
    the rest as gallery. With no holdout, evaluation reuses the train pool.
    The fraction must lie in [0, 1), as `TrainConfig` requires.
    """
    if not 0.0 <= holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in [0, 1), got {holdout_fraction}")
    ids = pool.identities
    num = pool.num_identities
    cut = max(int(round(num * (1.0 - holdout_fraction))), 1)
    train_pos = np.flatnonzero(ids < cut)
    eval_pos = np.flatnonzero(ids >= cut) if cut < num else train_pos
    query, gallery = [], []
    for ident in np.unique(ids[eval_pos]):
        rows = eval_pos[ids[eval_pos] == ident]
        if rows.size < 2:
            continue  # nothing to retrieve for a singleton identity
        query.append(rows[0])  # rows ascend: flatnonzero keeps pool order
        gallery.extend(rows[1:])
    if not query:
        raise ValueError("no evaluable identity (need >= 2 samples each)")
    return train_pos, np.array(query), np.array(gallery)


def evaluate(params: EncoderParams, pool: Pool, query_pos: np.ndarray,
             gallery_pos: np.ndarray) -> tuple[float, np.ndarray]:
    """mAP and CMC of the encoded query rows retrieving the gallery rows."""
    qv = encode_batch(params, pool.features[query_pos].astype(np.float64))
    gv = encode_batch(params, pool.features[gallery_pos].astype(np.float64))
    return compute_map_cmc(qv, gv, pool.identities[query_pos],
                           pool.identities[gallery_pos])


def train(pool: Pool, config: TrainConfig, regime: str = "mcl"
          ) -> tuple[EncoderParams, TrainReport]:
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    if regime == "all":  # one subset: the report records the N that ran
        config = replace(config, n_subsets=1)

    train_pos, query_pos, gallery_pos = holdout_split(pool, config.holdout_fraction)
    features = pool.features[train_pos].astype(np.float64)
    true_ids = pool.identities[train_pos]
    n = features.shape[0]
    fixed_subsets = epoch_split(n, config.n_subsets, config.seed)
    if config.p_identities * config.i_instances > math.ceil(n / config.n_subsets):
        raise ValueError("phase-1 batch larger than the meta-training subset; "
                         "lower p_identities/i_instances or n_subsets")

    init_rng = np.random.default_rng([config.seed, 0])
    params = EncoderParams.random_init(pool.d_raw, config.d_hidden,
                                       config.d_emb, init_rng)
    opt = OptimizerState.for_params(params, lr=config.lr,
                                    weight_decay=config.weight_decay)
    report = TrainReport(regime=regime, config=config.to_dict(),
                         n_train=n, n_query=query_pos.size,
                         n_gallery=gallery_pos.size)

    # naive: near-equal runs of epochs per fixed subset, longer runs first
    stages = np.array_split(np.arange(config.epochs), config.n_subsets)
    stage_of_epoch = np.repeat(np.arange(config.n_subsets),
                               [s.size for s in stages])

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        entries_before = ENTRY_COUNTER.total
        opt.lr = lr_at_epoch(config.lr, epoch, config.epochs)
        rng1 = np.random.default_rng([config.seed, 1, epoch])
        rng2 = np.random.default_rng([config.seed, 2, epoch])

        if regime == "naive":
            x1 = fixed_subsets[stage_of_epoch[epoch]]
            rest: list[np.ndarray] = []
        else:
            if regime == "mcl" and not config.fixed_split:
                subsets = epoch_split(n, config.n_subsets, config.seed + epoch)
            else:
                subsets = fixed_subsets
            x1, rest = subsets[0], subsets[1:]

        labels_full = np.full(n, -1, dtype=np.int64)
        try:
            bank, p1 = run_phase1_epoch(features[x1], params, opt, config, rng1)
            labels_full[x1] = p1.assignment.labels
            run_p2 = (regime == "mcl" and rest
                      and epoch >= config.warmup_epochs)
            p2 = None
            if run_p2:
                p2 = run_phase2_epoch(features, rest, bank, params, opt,
                                      config, rng2)
                # offset past the phase-1 cluster ids so the snapshot spaces
                # stay disjoint
                labels_full[p2.positions] = p2.hardened + bank.num_classes
            # the epoch's last update can be the one that diverges
            mean_ap, cmc = evaluate(params, pool, query_pos, gallery_pos)
        except (FloatingPointError, DegenerateEmbeddingError) as exc:
            raise NumericError(f"epoch {epoch}: {exc}") from exc

        record = EpochRecord(
            epoch=epoch,
            n_phase1=int(x1.size),
            n_phase2=int(p2.positions.size) if p2 else 0,
            num_clusters=p1.assignment.num_clusters,
            num_outliers=p1.assignment.num_outliers,
            eps_used=p1.eps_used,
            phase1_loss=float(np.mean(p1.losses)) if p1.losses else float("nan"),
            phase2_loss=float(np.mean(p2.losses)) if p2 and p2.losses else float("nan"),
            mean_ap=mean_ap,
            rank1=float(cmc[0]),
            label_correct=labeling_correct_fraction(labels_full, true_ids),
            distance_entries=int(ENTRY_COUNTER.total - entries_before),
            seconds=time.perf_counter() - t0,
        )
        report.epochs.append(record)
    return params, report
