"""Command-line pipeline: fit, score, schedule, simulate, eval, figure2,
plus a pipeline command chaining score -> fit -> schedule.

Exit codes: 0 success, 1 invalid input, 3 I/O error. Commands read all
inputs before writing anything, never write outside their --out
directory, and leave exactly one manifest.json per output directory.
``simulate --dims`` lists one input dim per modality. ``CLIMD_THREADS``
caps seed-level parallelism for ``simulate``, up to the CPUs it may use.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from . import fileformats as ff
from .distribution import DEFAULT_GAMMA, ClassDistribution
from .errors import ValidationError, check_number
from .measurer import DifficultyTable, join_tables, score_dataset
from .metrics import accuracy, confusion, macro_f1, weighted_f1
from .scheduler import EASY_HIGH_R, EASY_LOW_R, FIGURE2, build_schedule, reference_ramp


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap onto the
    # validation exit code instead.
    def error(self, message):
        raise ValidationError(message)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, config: dict, inputs: dict,
                    seeds: list[int]):
    manifest = ff.build_manifest(command, config, inputs, seeds, __version__)
    ff.write_manifest(out / "manifest.json", manifest)


def _digested(config: dict) -> dict:
    """``config`` with a ``config_digest`` of its other entries."""
    return {**config, "config_digest": ff.config_digest(config)}


def _schedule_config(args, dist: ClassDistribution) -> dict:
    """The manifest config of a schedule built with ``args`` from ``dist``."""
    return _digested({"epochs": args.epochs, "order": args.order,
                      "gamma": dist.gamma, "alpha_hat": dist.alpha_hat})


def cmd_fit(args) -> int:
    _, labels = ff.read_labels(args.labels)
    if not labels.size:
        raise ValidationError(f"{args.labels}: no labeled samples found")
    dist = ClassDistribution.from_labels(labels, args.gamma)
    out = _outdir(args)
    ff.write_distribution(out / "distribution.csv", dist)
    _write_manifest(out, "fit", {"gamma": args.gamma, "labels": str(args.labels)},
                    {"labels": args.labels}, [])
    print(f"classes: {dist.n_classes}  samples: {dist.n_total}  n_min: {dist.n_min}")
    if dist.degenerate:
        print(f"fit: degenerate (all classes equal); fallback alpha = {dist.alpha_hat:.6g}")
    else:
        print(f"fit: alpha_hat = {dist.alpha_hat:.6g} (gamma = {dist.gamma:g})")
    for rank, (cid, n) in enumerate(zip(dist.classes.tolist(), dist.counts.tolist()), start=1):
        print(f"  rank {rank:>3}: class {cid} with {n} samples")
    return 0


def _stage(name, fn):
    """Run ``fn``, tagging a raised error with the stage name, which main()
    puts in front of the error line."""
    try:
        return fn()
    except (ValidationError, OSError) as exc:
        exc.stage = name
        raise


def _score_traces(path) -> DifficultyTable:
    """Read and score a trace file one chunk at a time, so that only the
    scores of earlier chunks stay resident, never the whole trace arrays.
    Rows are scored independently, so the table equals the whole file's. A
    repeated id is named by its line, and a file with no traces rejected."""
    chunks = ff.iter_traces(path)
    tables = []
    while (batch := _stage("read-traces", lambda: next(chunks, None))) is not None:
        tables.append(_stage("score", lambda: score_dataset(batch)))
    def join() -> DifficultyTable:
        if not len(table := ff.checked(path, lambda: join_tables(tables))):
            raise ValidationError(f"{path}: no traces found")
        return table
    return _stage("read-traces", join)


def cmd_score(args) -> int:
    table = _score_traces(args.traces)
    out = _outdir(args)
    ff.write_difficulty(out / "difficulty.csv", table)
    _write_manifest(out, "score", {"traces": str(args.traces)},
                    {"traces": args.traces}, [])
    print(f"scored {len(table)} samples -> {out / 'difficulty.csv'}")
    return 0


def cmd_schedule(args) -> int:
    table = ff.read_difficulty(args.difficulty)
    dist = ff.read_distribution(args.distribution)
    schedule = build_schedule(table, dist, args.epochs, args.order)
    out = _outdir(args)
    ff.write_schedule(out / "schedule.csv", schedule, table.ids)
    ff.write_epoch_rank_table(out / "epoch_rank_counts.csv", schedule.counts)
    _write_manifest(out, "schedule", _schedule_config(args, dist),
                    {"difficulty": args.difficulty, "distribution": args.distribution},
                    [])
    print(ff.format_epoch_rank_table(schedule.counts))
    return 0


def cmd_figure2(args) -> int:
    counts = reference_ramp()
    print(ff.format_epoch_rank_table(counts))
    if args.out:
        out = _outdir(args)
        ff.write_epoch_rank_table(out / "figure2.csv", counts)
        _write_manifest(out, "figure2", FIGURE2, {}, [])
    return 0


def cmd_eval(args) -> int:
    _, true, pred = ff.read_predictions(args.predictions)
    if not true.size:
        raise ValidationError(f"{args.predictions}: no prediction rows found")
    if args.classes is None:
        n_classes = int(max(true.max(), pred.max())) + 1
    else:
        check_number("--classes", args.classes, 1)
        n_classes = args.classes
    cm = confusion(true, pred, n_classes)
    print(f"accuracy     {accuracy(cm):.6f}")
    print(f"weighted_f1  {weighted_f1(cm):.6f}")
    print(f"macro_f1     {macro_f1(cm):.6f}")
    print("confusion (rows = true, cols = predicted):")
    for row in cm:
        print("  " + " ".join(f"{int(v):>6}" for v in row))
    return 0


def _parse_dims(dims: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in dims.split(","))
    except ValueError:
        raise ValidationError(f"--dims must be integers, got {dims!r}") from None


def _max_workers() -> int:
    raw = os.environ.get("CLIMD_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValidationError(f"CLIMD_THREADS must be an integer, got {raw!r}") from None


def cmd_simulate(args) -> int:
    # Imported here, so that the other commands never import the lab.
    from .simlab import ARMS, SyntheticSpec, TrainConfig, run_experiment, summarize

    given = vars(args)
    spec, config = (cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given})
                    for cls in (SyntheticSpec, TrainConfig))
    scores, visits = run_experiment(spec, config, args.seeds, max_workers=_max_workers())
    means, wins = summarize(scores)

    out = _outdir(args)
    ff.write_lines(out / "report.csv", [
        "seed,arm,accuracy,weighted_f1,macro_f1,visits",
        *(f"{seed},{arm},{acc!r},{wf1!r},{mf1!r},{v}"
          for seed, (arm_scores, arm_visits) in enumerate(zip(scores.tolist(), visits.tolist()))
          for arm, (acc, wf1, mf1), v in zip(ARMS, arm_scores, arm_visits))])
    ff.write_lines(out / "summary.csv", [
        "arm,mean_accuracy,mean_weighted_f1,mean_macro_f1,macro_f1_wins",
        *(f"{arm},{acc!r},{wf1!r},{mf1!r},{w}"
          for arm, (acc, wf1, mf1), w in zip(ARMS, means.tolist(), wins.tolist()))])

    train = {**vars(config), "warmup_epochs": config.resolved_warmup}
    _write_manifest(out, "simulate",
                    _digested({"spec": vars(spec), "train": train, "n_seeds": args.seeds}),
                    {}, list(range(spec.seed, spec.seed + args.seeds)))

    for arm, (acc, wf1, mf1) in zip(ARMS, means.tolist()):
        print(f"{arm:>9}: acc {acc:.4f}  wF1 {wf1:.4f}  mF1 {mf1:.4f}")
    print(f"curriculum wins {wins[ARMS.index('climd')]} of {args.seeds} seeds on macro F1")
    return 0


def cmd_pipeline(args) -> int:
    table = _score_traces(args.traces)
    dist = _stage("fit", lambda: ClassDistribution.from_labels(table.labels, args.gamma))
    schedule = _stage("schedule",
                      lambda: build_schedule(table, dist, args.epochs, args.order))

    out = _outdir(args)
    ff.write_difficulty(out / "difficulty.csv", table)
    ff.write_distribution(out / "distribution.csv", dist)
    ff.write_schedule(out / "schedule.csv", schedule, table.ids)
    ff.write_epoch_rank_table(out / "epoch_rank_counts.csv", schedule.counts)
    _write_manifest(out, "pipeline", _schedule_config(args, dist),
                    {"traces": args.traces}, [])
    print(f"pipeline complete: {len(table)} samples, {dist.n_classes} classes, "
          f"{args.epochs} epochs -> {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="climd",
                     description="curriculum scheduling for class-imbalanced "
                                 "multimodal training")
    parser.add_argument("--version", action="version", version=f"climd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the class distribution from a labels file")
    p.add_argument("--labels", required=True)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", help="score per-sample difficulty from a trace file")
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("schedule", help="build per-epoch training subsets")
    p.add_argument("--difficulty", required=True)
    p.add_argument("--distribution", required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--order", default=EASY_HIGH_R, choices=[EASY_HIGH_R, EASY_LOW_R])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("figure2", help="print the reference ramp "
                                       "(N=1000, T=10, C=10, alpha cap 5)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_figure2)

    p = sub.add_parser("eval", help="metrics from a sample_id,true,pred file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--classes", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    # Each flag fills the SyntheticSpec or TrainConfig field named by its
    # dest, which holds the default; --base-seed fills the lab's one seed.
    p = sub.add_parser("simulate", help="end-to-end synthetic comparison",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--classes", type=int, dest="n_classes")
    p.add_argument("--dims", type=_parse_dims,
                   help="one input dim per modality, comma-separated")
    p.add_argument("--n", type=int, dest="n_samples")
    p.add_argument("--imbalance", type=float, dest="imbalance_exponent")
    p.add_argument("--redundancy", type=float)
    p.add_argument("--separation", type=float, dest="class_separation")
    p.add_argument("--noise", type=float, dest="noise_scale")
    p.add_argument("--epochs", type=int)
    p.add_argument("--warmup", type=int, dest="warmup_epochs")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--batch", type=int, dest="batch_size")
    p.add_argument("--hidden", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--base-seed", type=int, dest="seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="score -> fit -> schedule from a trace file")
    p.add_argument("--traces", required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--order", default=EASY_HIGH_R, choices=[EASY_HIGH_R, EASY_LOW_R])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def _fail(exc: Exception, code: int) -> int:
    stage = getattr(exc, "stage", None)
    where = f"stage '{stage}': " if stage else ""
    print(f"error: {where}{exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        return _fail(exc, 1)
    except OSError as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
