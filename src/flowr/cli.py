"""Command-line entry point.

Subcommands cover the full pipeline: synthetic data generation, encoder
pre-training, episodic meta-training, evaluation with records/ROC/metric
outputs, re-rendering reports from stored records, and the gradient
verification suite. Errors come back as a single machine-parseable line
on stderr with a nonzero exit code. The only environment variable
consulted is FLOWR_OUT_DIR (default output directory for eval outputs).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import meta, runner
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import (
    ExperimentConfig,
    config_from_json,
    config_hash,
    config_with_overrides,
    preset,
    preset_names,
)
from .crp import CrpParams
from .data import generate_synthetic_world, read_dataset, subset_classes, write_dataset
from .encoder import Encoder, pretrain
from .gaussian import NoiseModel


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _add_config_flags(p):
    """The base configuration (a preset or a JSON file, not both) plus the
    overrides every stage shares. A flag that overrides the configuration
    has its ExperimentConfig field as its dest; _build_config collects the
    overrides by field name."""
    base = p.add_mutually_exclusive_group()
    base.add_argument("--preset", choices=preset_names(), help="named configuration preset")
    base.add_argument("--config", help="JSON configuration file")
    p.add_argument("--setting", choices=["sc", "lc"])
    p.add_argument("--a", type=float)
    p.add_argument("--noise-variance", type=float)
    p.add_argument("--seed", type=int)


def build_parser() -> _Parser:
    p = _Parser(prog="flowr", description="few-shot open-world recognition toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synthetic", help="write a synthetic embedding dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--classes", type=int, default=30)
    g.add_argument("--dim", type=int, default=8)
    g.add_argument("--prior-variance", type=float, default=25.0)
    g.add_argument("--noise-variance", type=float, default=0.5)
    g.add_argument("--points-per-class", type=int, default=40)
    g.add_argument("--seed", type=int, default=0)

    pre = sub.add_parser("pretrain", help="train encoder and class embeddings")
    pre.add_argument("--data", required=True)
    pre.add_argument("--out", required=True, help="checkpoint path to write")
    pre.add_argument("--out-dim", type=int, help="embedding dimension (default: data dim)")
    pre.add_argument("--beta", type=float)
    pre.add_argument("--step-size", type=float, dest="pretrain_step_size")
    pre.add_argument("--epochs", type=int, dest="pretrain_epochs")
    pre.add_argument("--batch-size", type=int, dest="pretrain_batch_size")
    pre.add_argument("--train-classes", type=int, default=0,
                     help="restrict training to the first K class ids (0 = all)")
    _add_config_flags(pre)

    mt = sub.add_parser("metatrain", help="episodic meta-training")
    mt.add_argument("--data", required=True)
    mt.add_argument("--out", required=True, help="checkpoint path to write")
    mt.add_argument("--init", help="checkpoint to initialize from (required for lc)")
    mt.add_argument("--episodes", type=int, dest="meta_episodes")
    mt.add_argument("--batch-size", type=int, dest="meta_batch_size")
    mt.add_argument("--step-size", type=float, dest="meta_step_size")
    mt.add_argument("--lambda-w", type=float)
    mt.add_argument("--support-classes", type=int, dest="train_support_classes")
    mt.add_argument("--novel-classes", type=int, dest="train_novel_classes")
    mt.add_argument("--shots-min", type=int)
    mt.add_argument("--shots-max", type=int)
    mt.add_argument("--queries-per-class", type=int, dest="train_queries_per_class")
    mt.add_argument("--train-classes", type=int, default=0,
                    help="restrict training to the first K class ids (0 = all)")
    mt.add_argument("--encoder", choices=["identity", "affine"], default="identity",
                    help="encoder when no --init is given")
    mt.add_argument("--sequential", action="store_true",
                    help="teacher-forced sequential query loss instead of the frozen state")
    mt.add_argument("--trace", help="write per-step loss trace to this file")
    _add_config_flags(mt)

    ev = sub.add_parser("eval", help="run evaluation episodes and write reports")
    ev.add_argument("--data", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--tpr", type=float, dest="operating_tpr", help="operating true-positive rate")
    ev.add_argument("--episodes", type=int, dest="eval_episodes")
    ev.add_argument("--workers", type=int, default=1,
                    help="accepted for compatibility; evaluation always runs serially")
    ev.add_argument("--method", choices=["flowr", "ncm"], default="flowr")
    ev.add_argument("--out-dir", help="output directory (FLOWR_OUT_DIR overrides the default)")
    ev.add_argument("--train-classes", type=int, default=0,
                    help="leading class ids reserved for training; sc eval samples the rest (refused in lc)")
    ev.add_argument("--support-classes", type=int, dest="eval_support_classes")
    ev.add_argument("--novel-classes", type=int, dest="eval_novel_classes")
    ev.add_argument("--queries-per-class", type=int, dest="eval_queries_per_class")
    ev.add_argument("--fine-tune-steps", type=int)
    ev.add_argument("--fine-tune-step-size", type=float)
    _add_config_flags(ev)

    rp = sub.add_parser("report", help="re-render the metric table from stored records")
    rp.add_argument("--records", required=True)
    rp.add_argument("--tpr", type=float, default=0.15)

    gc = sub.add_parser("grad-check", help="finite-difference gradient verification")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--trials", type=int, default=10)
    gc.add_argument("--tolerance", type=float, default=1e-4)
    return p


def _build_config(args, *, default_setting=None) -> ExperimentConfig:
    if args.preset:
        cfg = preset(args.preset)
    elif args.config:
        with open(args.config) as fh:
            cfg = config_from_json(fh.read())
    else:
        cfg = ExperimentConfig(setting=default_setting or "sc")
    overrides = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    return config_with_overrides(cfg, **overrides)


def _train_split(ds, train_classes):
    if train_classes <= 0:
        return ds
    if train_classes > ds.n_classes:
        raise CliError(f"--train-classes {train_classes} exceeds {ds.n_classes} dataset classes")
    return subset_classes(ds, range(1, train_classes + 1))


def _write_checkpoint(path, cfg, params, embeddings):
    """Write a training stage's checkpoint with the CRP, noise and hash of cfg."""
    save_checkpoint(path, Checkpoint(
        params=params,
        crp=CrpParams(a=cfg.a, rho=params.rho),
        noise=NoiseModel(noise_variance=cfg.noise_variance),
        setting=cfg.setting,
        embeddings=embeddings,
        config_hash=config_hash(cfg),
    ))


def _cmd_gen_synthetic(args):
    ds = generate_synthetic_world(
        args.classes, args.dim, args.prior_variance, args.noise_variance,
        args.points_per_class, args.seed,
    )
    write_dataset(args.out, ds)
    print(f"wrote {args.out}: {len(ds)} points, {ds.n_classes} classes, dim {ds.dim}")
    return 0


def _cmd_pretrain(args):
    cfg = _build_config(args)
    ds = _train_split(read_dataset(args.data), args.train_classes)
    result = pretrain(
        ds,
        out_dim=args.out_dim,
        beta=cfg.beta,
        step_size=cfg.pretrain_step_size,
        epochs=cfg.pretrain_epochs,
        batch_size=cfg.pretrain_batch_size,
        rng_seed=cfg.seed,
    )
    d = result.embeddings.dim
    params = meta.init_meta_params(d, np.random.default_rng(cfg.seed), encoder=result.encoder, a=cfg.a)
    _write_checkpoint(args.out, cfg, params, result.embeddings)
    print(
        f"wrote {args.out}: {result.embeddings.n_classes} class embeddings, dim {d}, "
        f"final loss {result.loss_trace[-1]:.6f}"
    )
    return 0


def _cmd_metatrain(args):
    cfg = _build_config(args)
    ds = _train_split(read_dataset(args.data), args.train_classes)
    rng = np.random.default_rng(cfg.seed)
    embeddings = None
    if args.init:
        init_ckpt = load_checkpoint(args.init)
        params = init_ckpt.params
        embeddings = init_ckpt.embeddings
        if cfg.setting == "lc" and params.class_q is None:
            if embeddings is None:
                raise CliError("large-context training needs class embeddings in --init")
            params = params.with_class_embeddings(embeddings)
    else:
        if cfg.setting == "lc":
            raise CliError("large-context training requires --init with a pretrained checkpoint")
        encoder = (
            Encoder.identity_affine(ds.dim) if args.encoder == "affine" else Encoder.identity()
        )
        params = meta.init_meta_params(ds.dim, rng, encoder=encoder, a=cfg.a)

    params, trace = meta.run_meta_training(
        ds,
        cfg=cfg.train_episode_config(),
        setting=cfg.setting,
        n_episodes=cfg.meta_episodes,
        batch_size=cfg.meta_batch_size,
        step_size=cfg.meta_step_size,
        lambda_w=cfg.lambda_w,
        seed=cfg.seed,
        init=params,
        a=cfg.a,
        noise_variance=cfg.noise_variance,
        sequential=args.sequential,
    )
    _write_checkpoint(args.out, cfg, params, embeddings)
    if args.trace:
        with open(args.trace, "w") as fh:
            for row in trace:
                fh.write(
                    f"step={row['step']} episodes={row['episodes']} "
                    f"loss={row['loss']!r} nll={row['nll']!r} adapt={row['adapt']!r}\n"
                )
    print(
        f"wrote {args.out}: {cfg.setting} meta-training over {cfg.meta_episodes} episodes, "
        f"final loss {trace[-1]['loss']:.6f}"
    )
    return 0


def _cmd_eval(args):
    ckpt = load_checkpoint(args.checkpoint)
    cfg = _build_config(args, default_setting=ckpt.setting)
    ds = read_dataset(args.data)
    if args.train_classes > 0:
        if cfg.setting != "sc":
            raise CliError("--train-classes applies to small-context evaluation: large context keeps its known classes")
        if args.train_classes >= ds.n_classes:
            raise CliError(f"--train-classes {args.train_classes} leaves no evaluation classes")
        ds = subset_classes(ds, range(args.train_classes + 1, ds.n_classes + 1))
    result = runner.evaluate(
        ds, ckpt, cfg, workers=args.workers, method=args.method
    )
    out_dir = runner.output_dir(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    runner.write_records(os.path.join(out_dir, f"{args.method}_records.txt"), result.episodes)
    runner.write_roc_csv(os.path.join(out_dir, f"{args.method}_roc.csv"), result.roc)
    runner.write_metrics(os.path.join(out_dir, f"{args.method}_metrics.txt"), result.metrics)
    sys.stdout.write(runner.format_metrics(result.metrics))
    return 0


def _cmd_report(args):
    metrics, _ = runner.metrics_at_tpr(runner.read_records(args.records), args.tpr)
    sys.stdout.write(runner.format_metrics(metrics))
    return 0


def _cmd_grad_check(args):
    results = runner.run_grad_check_suite(seed=args.seed, trials=args.trials)
    for name in sorted(results):
        print(f"check name={name} max_rel_error={results[name]!r}")
    worst = max(results.values())
    if worst > args.tolerance:
        print(f"error: gradient check failed: {worst!r} > {args.tolerance!r}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "gen-synthetic": _cmd_gen_synthetic,
    "pretrain": _cmd_pretrain,
    "metatrain": _cmd_metatrain,
    "eval": _cmd_eval,
    "report": _cmd_report,
    "grad-check": _cmd_grad_check,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # single-line, machine-parseable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
