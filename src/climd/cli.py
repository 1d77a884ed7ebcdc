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
from pathlib import Path

from . import __version__
from . import fileformats as ff
from .distribution import DEFAULT_GAMMA, ClassDistribution
from .errors import ValidationError, check_number
from .measurer import DifficultyTable, join_tables, score_dataset
from .metrics import accuracy, confusion, macro_f1, weighted_f1
from .scheduler import EASY_HIGH_R, EASY_LOW_R, FIGURE2, build_schedule, reference_ramp
from .simlab import SyntheticSpec, TrainConfig, run_experiment


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


def _schedule_digest(order: str, dist: ClassDistribution, epochs: int) -> str:
    """The manifest's digest of the settings a curriculum schedule is built from."""
    return ff.config_digest({"kind": "curriculum", "difficulty_order": order,
                             "gamma": dist.gamma, "alpha_hat": dist.alpha_hat,
                             "total_epochs": epochs})


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
    Rows are scored independently, so the table equals that of the whole
    file; joining it rejects an id repeated across chunks, naming its line."""
    chunks = ff.iter_traces(path)
    tables = []
    while (batch := _stage("read-traces", lambda: next(chunks, None))) is not None:
        tables.append(_stage("score", lambda: score_dataset(batch)))
    return _stage("read-traces", lambda: ff.checked(path, lambda: join_tables(tables)))


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
    _write_manifest(out, "schedule",
                    {"epochs": args.epochs, "order": args.order,
                     "gamma": dist.gamma, "alpha_hat": dist.alpha_hat,
                     "config_digest": _schedule_digest(args.order, dist, args.epochs)},
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
    for row in cm.counts:
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
    spec = SyntheticSpec(
        n_classes=args.classes,
        dims=_parse_dims(args.dims),
        n_samples=args.n,
        imbalance_exponent=args.imbalance,
        class_separation=args.separation,
        noise_scale=args.noise,
        redundancy=args.redundancy,
        seed=args.base_seed,
    )
    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        warmup_epochs=args.warmup,
        batch_size=args.batch,
        hidden=args.hidden,
        gamma=args.gamma,
        seed=args.base_seed,
    )
    report = run_experiment(spec, config, args.seeds, max_workers=_max_workers())

    out = _outdir(args)
    ff.write_lines(out / "report.csv", [
        "seed,arm,accuracy,weighted_f1,macro_f1,visits",
        *(f"{r.seed},{r.arm},{r.accuracy!r},{r.weighted_f1!r},{r.macro_f1!r},{r.visits}"
          for r in report.rows)])
    ff.write_lines(out / "summary.csv", [
        "arm,mean_accuracy,mean_weighted_f1,mean_macro_f1,macro_f1_wins",
        *(f"{arm},{report.mean(arm, 'accuracy')!r},{report.mean(arm, 'weighted_f1')!r},"
          f"{report.mean(arm, 'macro_f1')!r},{wins}"
          for arm, wins in (("climd", report.wins), ("baseline", report.baseline_wins)))])

    settings = {"spec": vars(spec), "config": vars(config), "n_seeds": args.seeds}
    _write_manifest(out, "simulate",
                    {"spec": settings["spec"], "train": settings["config"],
                     "n_seeds": args.seeds, "config_digest": ff.config_digest(settings)},
                    {}, list(range(args.seeds)))

    for arm in ("climd", "baseline"):
        print(f"{arm:>9}: acc {report.mean(arm, 'accuracy'):.4f}  "
              f"wF1 {report.mean(arm, 'weighted_f1'):.4f}  "
              f"mF1 {report.mean(arm, 'macro_f1'):.4f}")
    print(f"curriculum wins {report.wins} of {args.seeds} seeds on macro F1")
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
    _write_manifest(out, "pipeline",
                    {"epochs": args.epochs, "gamma": args.gamma, "order": args.order,
                     "config_digest": _schedule_digest(args.order, dist, args.epochs)},
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

    p = sub.add_parser("simulate", help="end-to-end synthetic comparison")
    p.add_argument("--classes", type=int, default=SyntheticSpec.n_classes)
    p.add_argument("--dims", default=",".join(map(str, SyntheticSpec.dims)),
                   help="one input dim per modality, comma-separated")
    p.add_argument("--n", type=int, default=SyntheticSpec.n_samples)
    p.add_argument("--imbalance", type=float, default=SyntheticSpec.imbalance_exponent)
    p.add_argument("--redundancy", type=float, default=SyntheticSpec.redundancy)
    p.add_argument("--separation", type=float, default=SyntheticSpec.class_separation)
    p.add_argument("--noise", type=float, default=SyntheticSpec.noise_scale)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--warmup", type=int, default=TrainConfig.warmup_epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--base-seed", type=int, default=0)
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
