"""Command-line entry point.

Verbs: gen (synthesize a feature pool), train (one regime, full artifact
set), compare (every regime at each subset count, each with train's
artifacts, plus the table and budget sweep), eval (retrieval metrics for a
checkpoint), dump-embeddings (MCLF export for external plotting).

A flag that sets a TrainConfig or GenSpec field is --<field-name>, and no
flag may be abbreviated; compare's --n-subsets lists the subset counts N.

Exit codes: 0 success, 2 usage error, 3 data/config error, 4 numeric
failure. Precedence: a flag > the --config file > the TrainConfig default.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .data import _RULES, DimensionMismatchError, GenSpec, Pool, \
    generate_pool, load_pool, write_features
from .model import EncoderParams, encode_batch, load_checkpoint, \
    save_checkpoint
from .protobank import NoClustersError
from .trainer import NumericError, REGIMES, TrainConfig, TrainReport, \
    _check_regime, evaluate, holdout_split, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _add_field_flags(p: argparse.ArgumentParser, defaults, skip=()) -> None:
    """One --<field-name> flag per field of the dataclass instance defaults
    not in skip, typed by its value there; an unset flag reads None."""
    for f in fields(defaults):
        if f.name not in skip:
            p.add_argument("--" + f.name.replace("_", "-"), default=None,
                           type=type(getattr(defaults, f.name)))


def _given(args, cls) -> dict:
    """The fields of the dataclass cls whose flag was set."""
    flags = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return {name: value for name, value in flags.items() if value is not None}


def _resolve_config(args, skip=()) -> TrainConfig:
    """The config file's fields with the set flags on top, validated once.
    The verb sets the fields in skip itself, so the file may not."""
    merged = {}
    if args.config:
        with open(args.config) as fh:
            merged = json.load(fh)
    if isinstance(merged, dict):  # from_dict rejects anything else
        for name in skip:
            if name in merged:
                raise ValueError(f"{args.config} sets {name}, which this verb "
                                 f"takes from --{name.replace('_', '-')} only")
        merged.update(_given(args, TrainConfig))
    return TrainConfig.from_dict(merged)


def comma_list(cast):
    """An argparse type for a comma list of cast items, such as compare's
    --n-subsets; argparse reports a bad item as a usage error (exit 2)."""
    def parse(text: str) -> list:
        return [cast(item) for item in text.split(",")]
    parse.__name__ = f"{cast.__name__} list"  # argparse's message names it
    return parse


def ruled(cast, rule: str):
    """An argparse type for one cast value that must be finite and meet a
    check_fields rule, such as "in [0, 1)"; a value that does not is a usage
    error (exit 2), so a script refuses it before doing any work."""
    def parse(text: str):
        value = cast(text)
        if not (math.isfinite(value) and _RULES[rule](value)):
            raise argparse.ArgumentTypeError(
                f"invalid value {text!r}: must be {rule}")
        return value
    parse.__name__ = cast.__name__
    return parse


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_manifest(args, config: dict, outputs: list[str]) -> None:
    """manifest.json in the run's directory: how to redo it and what it read."""
    manifest = {
        "command": args.argv, "config": config,
        "seed": config["seed"], "outputs": outputs, "version": __version__,
        "input_hashes": {path: _sha256(path)
                         for path in (args.pool, args.config) if path},
    }
    with open(os.path.join(args.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen(args) -> int:
    if os.path.exists(args.out) and not args.force:
        print(f"refusing to overwrite {args.out} (use --force)", file=sys.stderr)
        return EXIT_DATA
    pool = generate_pool(GenSpec(**_given(args, GenSpec)))
    write_features(pool, args.out)
    print(f"wrote {len(pool)} samples x {pool.d_raw} dims to {args.out}")
    return EXIT_OK


RUN_FILES = ["checkpoint.mclp", "report.json", "cost.csv"]


def _train_into(pool, config: TrainConfig, regime: str, out) -> TrainReport:
    """Make the directory out, train one regime, and write RUN_FILES there."""
    os.makedirs(out, exist_ok=True)
    params, report = train(pool, config, regime)
    save_checkpoint(params, os.path.join(out, "checkpoint.mclp"))
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, allow_nan=False)
        fh.write("\n")
    _write_csv(os.path.join(out, "cost.csv"),
               ["epoch", "distance_entries", "peak_bytes", "seconds"],
               ([e.epoch, e.distance_entries, e.distance_entries * 8,
                 f"{e.seconds:.6f}"] for e in report.epochs))
    return report


def cmd_train(args) -> int:
    pool = load_pool(args.pool)
    config = _resolve_config(args)
    _check_regime(pool, config, args.regime)  # as in compare: before output
    report = _train_into(pool, config, args.regime, args.out_dir)
    _write_manifest(args, report.config, RUN_FILES)  # "all" records N = 1
    print(f"{args.regime}: final mAP {report.final_map:.4f} "
          f"rank1 {report.final_rank1:.4f} "
          f"entries {report.total_entries} "
          f"wall {report.total_seconds:.1f}s -> {args.out_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    pool = load_pool(args.pool)
    config = _resolve_config(args, skip=("n_subsets",))
    # every scheme's config is built and checked before any output or training
    schemes = []
    for n in sorted(set(args.subset_counts)):
        # N = 1 is "all"; every N > 1 runs the other six, in REGIMES order
        for regime in [r for r in REGIMES if r != "all"] if n > 1 else ["all"]:
            cfg = replace(config, n_subsets=n)
            _check_regime(pool, cfg, regime)
            schemes.append((f"{regime}@{n}" if n > 1 else "all", regime, cfg))
    rows = []
    for name, regime, cfg in schemes:
        report = _train_into(pool, cfg, regime,
                             os.path.join(args.out_dir, name))
        per_pass = max(e.distance_entries for e in report.epochs)
        rows.append({
            "scheme": name, "n_subsets": cfg.n_subsets,
            "mAP": report.final_map, "rank1": report.final_rank1,
            "entries": report.total_entries, "peak_bytes": per_pass * 8,
            "seconds": report.total_seconds,
        })
        print(f"{name}: mAP {report.final_map:.4f} rank1 "
              f"{report.final_rank1:.4f} peak_bytes {per_pass * 8}")
    _write_csv(os.path.join(args.out_dir, "compare.csv"), list(rows[0]),
               (row.values() for row in rows))
    # budget view: best mAP attainable under each per-pass byte budget; max
    # keeps the first of equal rows, so a tie goes to the earlier scheme
    sweep = []
    for budget in sorted({row["peak_bytes"] for row in rows}):
        fits = [row for row in rows if row["peak_bytes"] <= budget]
        best = max(fits, key=lambda row: row["mAP"])
        sweep.append([budget, best["scheme"], f"{best['mAP']:.6f}"])
    _write_csv(os.path.join(args.out_dir, "budget_sweep.csv"),
               ["budget_bytes", "scheme", "mAP"], sweep)
    # each scheme's N is in compare.csv; the base config's N never ran
    ran = {k: v for k, v in config.to_dict().items() if k != "n_subsets"}
    _write_manifest(args, ran, ["compare.csv", "budget_sweep.csv"] + [
        os.path.join(name, f) for name, _, _ in schemes for f in RUN_FILES])
    return EXIT_OK


def _checkpoint_for(path, pool: Pool) -> EncoderParams:
    """The checkpoint at path, refused unless its input width is pool's."""
    params = load_checkpoint(path)
    width = params.W1.shape[1]
    if width != pool.d_raw:
        raise DimensionMismatchError(f"{path}: checkpoint takes {width}-wide "
                                     f"input, the pool has d_raw {pool.d_raw}")
    return params


def cmd_eval(args) -> int:
    pool = load_pool(args.pool)
    params = None  # --identity-init: evaluate scores the raw rows
    if args.checkpoint is not None:
        params = _checkpoint_for(args.checkpoint, pool)
    _, query_pos, gallery_pos = holdout_split(pool, args.holdout_fraction)
    mean_ap, cmc = evaluate(params, pool, query_pos, gallery_pos)
    out = {"mean_ap": mean_ap, "rank1": float(cmc[0]),
           "rank5": float(cmc[4]) if cmc.size >= 5 else float(cmc[-1]),
           "cmc": [float(x) for x in cmc],
           "n_query": int(query_pos.size), "n_gallery": int(gallery_pos.size)}
    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_dump_embeddings(args) -> int:
    pool = load_pool(args.pool)
    params = _checkpoint_for(args.checkpoint, pool)
    emb = encode_batch(params, pool.features.astype(np.float64))
    out_pool = Pool(emb.astype(np.float32), pool.identities)
    write_features(out_pool, args.out)
    print(f"wrote {len(out_pool)} embeddings x {out_pool.d_raw} dims to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mcl",
        description="subset-clustered two-phase representation training")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def verb(name, text):  # no abbreviations: one spelling per option
        return sub.add_parser(name, help=text, allow_abbrev=False)

    g = verb("gen", "generate a synthetic feature pool")
    _add_field_flags(g, GenSpec())
    g.add_argument("-o", "--out", required=True)
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen)

    t = verb("train", "train one regime and emit artifacts")
    t.add_argument("pool")
    t.add_argument("--regime", choices=REGIMES, default="mcl")
    t.add_argument("-o", "--out-dir", default="run")
    t.set_defaults(func=cmd_train)

    c = verb("compare", "every regime's run, table + budget sweep")
    c.add_argument("pool")
    c.add_argument("--n-subsets", dest="subset_counts", default="1,2",
                   type=comma_list(int),
                   help="comma list of subset counts N; N = 1 is 'all'")
    c.add_argument("-o", "--out-dir", default="compare")
    c.set_defaults(func=cmd_compare)
    for p, skip in ((t, ()), (c, ("n_subsets",))):
        p.add_argument("--config", help="JSON file with TrainConfig fields")
        _add_field_flags(p, TrainConfig(), skip)

    e = verb("eval", "retrieval metrics for a checkpoint")
    e.add_argument("pool")
    encoder = e.add_mutually_exclusive_group(required=True)
    encoder.add_argument("--checkpoint")
    encoder.add_argument("--identity-init", action="store_true",
                         help="score the raw rows scaled to unit norm")
    e.add_argument("--holdout-fraction", type=float,
                   default=TrainConfig.holdout_fraction)
    e.add_argument("-o", "--out", default=None)
    e.set_defaults(func=cmd_eval)

    d = verb("dump-embeddings", "export encoded pool as MCLF")
    d.add_argument("pool")
    d.add_argument("--checkpoint", required=True)
    d.add_argument("-o", "--out", required=True)
    d.set_defaults(func=cmd_dump_embeddings)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    args.argv = argv  # the manifest's command
    try:
        return args.func(args)
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (NoClustersError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # numpy names the array's shape and bytes
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
