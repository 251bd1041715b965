"""Two-phase training engine and the comparison regimes.

Each epoch the pool is re-split into N near-equal subsets. Phase 1 clusters
the first subset (cosine -> k-reciprocal Jaccard -> DBScan), initializes a
prototype bank from the cluster means, and trains with InfoNCE + momentum
bank updates. Phase 2 annotates the remaining subsets with hardened soft
labels under non-overlapping per-subset label spaces and trains on two
augmented views per sample with the consistency + soft-weighted triplet
objective. The regimes are the seven schemes: "mcl"; the baselines "all"
(full-pool clustering every epoch, no phase 2) and "naive" (fixed subsets in
turn, phase 1 only); and "mcl" without one part: "no_sc" (consistency loss),
"plain" (triplet soft weights), "fixed" (re-split), "shared" (label spaces).

Everything is deterministic given (pool, config): rng streams are derived
from the config seed, and reductions have a fixed order.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cluster import ClusterAssignment, dbscan
from .data import GenSpec, Pool, check_fields
from .geometry import ENTRY_COUNTER, clustering_distance
from .losses import LossValue, infonce_batch, phase2_total, \
    siamese_consistency_batch, soft_weighted_triplet_batch
from .metrics import compute_map_cmc, labeling_correct_fraction
from .model import DegenerateEmbeddingError, EncoderParams, OptimizerState, \
    adam_step, augment_batch, encode_backward, encode_batch, encode_forward, \
    lr_at_epoch, normalize_rows
from .protobank import NoClustersError, PrototypeBank

REGIMES = ("mcl", "all", "naive", "no_sc", "plain", "fixed", "shared")

EPS_WIDEN_STEP = 0.05
EPS_CEILING = 0.95


class NumericError(RuntimeError):
    """Training hit a non-finite loss, embedding or prototype, or a collapsed one."""


@dataclass(frozen=True)
class TrainConfig:
    """Run settings, checked by check_fields against RULES (field -> rule)
    and two cross-field rules; the defaults are the gated run of each regime."""

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

    RULES = {
        "n_subsets": ">= 1", "epochs": ">= 1", "warmup_epochs": ">= 0",
        "p_identities": ">= 1", "i_instances": ">= 1", "p2_identities": ">= 1",
        "i2_instances": ">= 2", "momentum_m": "in [0, 1]", "margin": ">= 0",
        "lambda_tri": ">= 0", "tau": "> 0",
        # Jaccard distances lie in [0, 1]: eps >= 1 makes every pair a
        # neighbour, one cluster, and an n^2 pair list in dbscan
        "eps": "in [0, 1)", "min_pts": ">= 1", "k_neighbors": ">= 1",
        "min_cluster_fraction": "in [0, 1]", "lr": "> 0",
        "weight_decay": ">= 0", "d_hidden": ">= 1", "d_emb": ">= 1",
        # augment_batch's rules, checked here so phase 1 does not run first
        "sigma_aug": ">= 0", "drop_p": "in [0, 1)",
        "holdout_fraction": "in [0, 1)", "seed": ">= 0",
    }

    def __post_init__(self):
        check_fields(self, self.RULES)
        if self.warmup_epochs >= self.epochs:
            raise ValueError(f"warmup_epochs must be < epochs "
                             f"({self.epochs}), got {self.warmup_epochs}")
        if self.i2_instances % 2:  # two augmented views per sample
            raise ValueError(f"i2_instances must be even, got {self.i2_instances}")

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
# remain only because perfbench/worker.py calls them, which test_api checks
benchmark_genspec = GenSpec
benchmark_config = TrainConfig


def epoch_split(n_samples: int, n_subsets: int,
                epoch_seed: int) -> list[np.ndarray]:
    """Seeded permutation cut into N near-equal contiguous subsets."""
    if n_subsets < 1 or n_subsets > n_samples:
        raise ValueError(f"need 1 <= n_subsets <= {n_samples}, got {n_subsets}")
    perm = np.random.default_rng(epoch_seed).permutation(n_samples)
    return np.array_split(perm, n_subsets)


def label_groups(labels: np.ndarray) -> list[np.ndarray]:
    """Each distinct label's positions, ascending, with the groups in label
    order: one stable sort, cut where the label changes."""
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    return np.split(order, cuts) if order.size else []


def pk_sample(groups: list[np.ndarray], p: int, i: int,
              rng: np.random.Generator) -> np.ndarray:
    """Positions for a PK batch: p of the `label_groups`, i positions each.

    Groups are drawn without replacement; positions without replacement
    unless the group has fewer than i members, then with.
    """
    if len(groups) < p:
        raise ValueError(f"need >= {p} distinct labels, have {len(groups)}")
    return np.concatenate([
        rng.choice(groups[c], size=i, replace=groups[c].size < i)
        for c in rng.choice(len(groups), size=p, replace=False)])


@dataclass
class Phase1Stats:
    losses: list[float]
    assignment: ClusterAssignment  # DBScan over the subset, -1 = outlier
    eps_used: float


def _cluster_with_widening(d: np.ndarray, eps: float, min_pts: int,
                           min_fraction: float = 0.0
                           ) -> tuple[ClusterAssignment, float]:
    """Retry DBScan with a wider radius until at least two clusters cover
    min_fraction of the points; a lone cluster, a bank of one prototype,
    annotates nothing. At the ceiling it returns the best assignment seen,
    ranked by (two or more clusters, coverage), at the earliest eps that
    reached it, and errors only when no eps found any cluster."""
    e, n, best = eps, d.shape[0], None  # best: (rank, assignment, eps)
    while True:
        got = dbscan(d, eps=e, min_pts=min_pts)
        if got.num_clusters > 0:
            rank = (got.num_clusters >= 2, 1.0 - got.num_outliers / n)
            if rank >= (True, min_fraction):
                return got, e
            if best is None or rank > best[0]:
                best = (rank, got, e)
        if e >= EPS_CEILING:
            if best is not None:
                return best[1:]
            raise NoClustersError(
                f"no clusters up to eps={e:.2f} (started at {eps})")
        e = min(round(e + EPS_WIDEN_STEP, 10), EPS_CEILING)  # decimal radii


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
    groups = label_groups(assignment.labels[kept])
    p_eff = min(config.p_identities, bank.num_classes)
    num_batches = math.ceil(kept.size / (config.p_identities * config.i_instances))
    losses = []
    for _ in range(num_batches):
        local = pk_sample(groups, p_eff, config.i_instances, rng)
        batch = kept[local]
        batch_labels = assignment.labels[batch]
        v, cache = encode_forward(params, features[batch])
        loss = infonce_batch(v, bank, batch_labels, config.tau)
        grads = encode_backward(params, cache, loss.grad)
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


def run_phase2_epoch(pool_features: np.ndarray, rest_subsets: list[np.ndarray],
                     bank: PrototypeBank, params: EncoderParams,
                     opt: OptimizerState, config: TrainConfig,
                     rng: np.random.Generator,
                     regime: str = "mcl") -> Phase2Stats:
    """Annotate the rest subsets with hardened prototype labels, then polish.

    Identity = (subset, argmax) realized as argmax + subset offset, so two
    samples from different subsets never count as positives, except under
    "shared". Each drawn sample contributes two augmented views, stacked as
    [view a; view b] through one encoder forward and one backward per batch;
    the triplet term ("plain": unweighted) mines batch-hard within them and is
    skipped (counted in triplet_skipped) in a batch of one identity and, with
    a warning, under a one-prototype bank; "no_sc" drops the consistency term.
    """
    k_classes = bank.num_classes
    positions, ids = [], []
    for j, sub in enumerate(rest_subsets):
        emb = encode_batch(params, pool_features[sub])
        hard = bank.harden(bank.soft_label_batch(emb))
        offset = 0 if regime == "shared" else j * k_classes
        positions.append(sub)
        ids.append(hard + offset)
    positions = np.concatenate(positions)
    ids = np.concatenate(ids)

    if k_classes < 2:
        warnings.warn("phase 2 with a single prototype: triplet term skipped")
    per_identity = config.i2_instances // 2  # distinct samples; 2 views each
    num_batches = math.ceil(positions.size / (config.p2_identities * per_identity))
    groups = label_groups(ids)
    p_eff = min(config.p2_identities, len(groups))
    losses = []
    skipped = 0
    for _ in range(num_batches):
        local = pk_sample(groups, p_eff, per_identity, rng)
        raw = pool_features[positions[local]]
        batch_ids = ids[local]
        view_a = augment_batch(raw, rng, config.sigma_aug, config.drop_p)
        view_b = augment_batch(raw, rng, config.sigma_aug, config.drop_p)
        # one pass over the stacked views [a; b]: rows i and b + i are the
        # two views of sample i, and the backward sums over both
        v2, cache = encode_forward(params, np.concatenate([view_a, view_b]))
        no_grad = LossValue(0.0, np.zeros_like(v2))
        l_sc = no_grad if regime == "no_sc" else siamese_consistency_batch(v2, bank)
        if k_classes >= 2 and p_eff >= 2:  # a batch holds p_eff identities
            l_tri = soft_weighted_triplet_batch(
                v2, np.concatenate([batch_ids, batch_ids]), config.margin,
                soft_weight=regime != "plain")
        else:
            l_tri = no_grad
            skipped += 1

        total = phase2_total(l_sc, l_tri, config.lambda_tri)
        adam_step(params, encode_backward(params, cache, total.grad), opt)
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
    triplet_skipped: int  # phase-2 batches without a triplet term
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
        # JSON has no NaN: a missing loss or label score is written as null
        epochs = [{k: None if isinstance(v, float) and math.isnan(v) else v
                   for k, v in e.items()}
                  for e in d.pop("epochs")]  # last, after the run totals
        return {**d, "final_map": self.final_map,
                "final_rank1": self.final_rank1,
                "total_entries": self.total_entries,
                "total_seconds": self.total_seconds, "epochs": epochs}


def holdout_split(pool: Pool, holdout_fraction: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train positions, then query/gallery positions over held-out identities.

    The top `holdout_fraction` of the identities, ranked by id, is never
    trained on; each held-out identity contributes its lowest-position row as
    the query and the rest as gallery. With no holdout, evaluation reuses the
    train pool. The fraction must lie in [0, 1), as `TrainConfig` requires,
    and two evaluated identities need >= 2 samples each.
    """
    if not 0.0 <= holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in [0, 1), got {holdout_fraction}")
    groups = label_groups(pool.identities)  # the identities ranked by id
    cut = max(int(round(len(groups) * (1.0 - holdout_fraction))), 1)
    # a singleton identity has nothing to retrieve
    evaluated = [g for g in (groups[cut:] if holdout_fraction > 0 else groups)
                 if g.size >= 2]
    if len(evaluated) < 2:  # one identity retrieves itself: mAP 1.0, vacuously
        raise ValueError(f"no evaluable retrieval: {len(evaluated)} evaluated "
                         "identities with >= 2 samples each, need 2")
    # each group ascends, so its first row is the identity's lowest position
    query = np.array([g[0] for g in evaluated])
    gallery = np.concatenate([g[1:] for g in evaluated])
    return np.sort(np.concatenate(groups[:cut])), query, gallery


def evaluate(params: EncoderParams | None, pool: Pool, query_pos: np.ndarray,
             gallery_pos: np.ndarray) -> tuple[float, np.ndarray]:
    """mAP and CMC of the encoded query rows retrieving the gallery rows;
    with params None, of the raw rows scaled to unit norm."""
    def embed(pos):
        x = pool.features[pos].astype(np.float64)
        return normalize_rows(x)[0] if params is None else encode_batch(params, x)
    return compute_map_cmc(embed(query_pos), embed(gallery_pos),
                           pool.identities[query_pos],
                           pool.identities[gallery_pos])


def _check_regime(pool: Pool, config: TrainConfig, regime: str) -> None:
    """The rules a regime sets on a config and pool; train and each verb
    check them before any work."""
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    if regime == "naive" and config.n_subsets > config.epochs:
        # each fixed subset gets a stage of at least one epoch
        raise ValueError(f"the naive regime needs n_subsets <= epochs, got "
                         f"n_subsets {config.n_subsets} > epochs {config.epochs}")
    n_subsets = 1 if regime == "all" else config.n_subsets
    n_train = holdout_split(pool, config.holdout_fraction)[0].size
    if config.p_identities * config.i_instances > math.ceil(n_train / n_subsets):
        raise ValueError(f"phase-1 batch larger than {n_train} train rows / "
                         f"n_subsets {n_subsets} (p_identities x i_instances)")


def train(pool: Pool, config: TrainConfig, regime: str = "mcl"
          ) -> tuple[EncoderParams, TrainReport]:
    _check_regime(pool, config, regime)
    if regime == "all":  # one subset: the report records the N that ran
        config = replace(config, n_subsets=1)

    train_pos, query_pos, gallery_pos = holdout_split(pool, config.holdout_fraction)
    features = pool.features[train_pos].astype(np.float64)
    true_ids = pool.identities[train_pos]
    n = features.shape[0]
    fixed_subsets = epoch_split(n, config.n_subsets, config.seed)

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
            if regime in ("all", "fixed"):
                subsets = fixed_subsets
            else:
                subsets = epoch_split(n, config.n_subsets, config.seed + epoch)
            x1, rest = subsets[0], subsets[1:]

        labels_full = np.full(n, -1, dtype=np.int64)
        try:
            bank, p1 = run_phase1_epoch(features[x1], params, opt, config, rng1)
            labels_full[x1] = p1.assignment.labels
            p2 = None
            if rest and epoch >= config.warmup_epochs:  # "all", "naive": none
                p2 = run_phase2_epoch(features, rest, bank, params, opt,
                                      config, rng2, regime)
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
            triplet_skipped=p2.triplet_skipped if p2 else 0,
            mean_ap=mean_ap,
            rank1=float(cmc[0]),
            label_correct=labeling_correct_fraction(labels_full, true_ids),
            distance_entries=int(ENTRY_COUNTER.total - entries_before),
            seconds=time.perf_counter() - t0,
        )
        report.epochs.append(record)
    return params, report
