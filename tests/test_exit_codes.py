"""Property test of the CLI's exit-code contract: whatever the argv and
the input files, ``main`` returns 0 (ok), 1 (invalid input) or 3 (I/O
error). A nonzero exit prints exactly one ``error:`` line and leaves no
``--out`` directory.

Sizes stay small: at most 12 samples, labels and ``--classes`` below 100
(``eval`` allocates a C x C matrix), and ``--epochs`` up to 50 or 2**62,
which numpy refuses at once. ``simulate`` gets at most 60 samples, 2 seeds
and 4 epochs of training and of warm-up, since a large warm-up trains in
full before the schedule's size check rejects it. ``CLIMD_THREADS`` is
never set.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from climd import fileformats as ff
from climd.cli import main
from climd.distribution import ClassDistribution
from climd.errors import ValidationError
from climd.measurer import DifficultyTable, TraceBatch

# What a corrupted line is made of: the syntax and words of the formats.
JUNK = st.sampled_from([
    "nan", "inf", "-1", "1e999", str(2**63), "sample_id,label", "{}", "null",
    '{"sample_id":"z","label":1,"modalities":[]}', "# gamma=nan", "# alpha_hat=1.5",
    "# degenerate=false", "class_id,count,rank",
]) | st.text(alphabet='0123456789,-.e{}[]":# abfilnrs_', max_size=24)
LABELS = st.lists(st.integers(0, 3), max_size=12)


def dataset(labels, seed):
    """Traces and a difficulty table of samples with these ``labels``."""
    rng = np.random.default_rng(seed)
    n = len(labels)
    ids = [f"s{i:02d}" for i in range(n)]
    labels = np.array(labels, dtype=np.int64)
    traces = TraceBatch(ids=ids, labels=labels, probs=rng.dirichlet(np.ones(4), size=(n, 2)),
                        emb=rng.standard_normal((n, 2, 3)))
    r = rng.uniform(0.0, 2.0, n)
    table = DifficultyTable(ids=ids, labels=labels, psi=np.column_stack([r / 4, r / 4]),
                            phi=r / 2, r=r)
    return traces, table


def distribution(labels):
    """The fitted distribution of ``labels``, or a one-class degenerate one
    where nothing can be fitted."""
    try:
        return ClassDistribution.from_labels(labels, 0.3)
    except ValidationError:
        return ClassDistribution(classes=labels[:1] or [0], counts=[max(1, len(labels))],
                                 gamma=0.3, alpha_hat=1 + 1 / 0.3, degenerate=True)


# Repeated entries weight a sampled list toward the common case.
DAMAGE = st.tuples(st.sampled_from(["keep"] * 6 + ["line", "append", "drop", "bytes",
                                                 "missing", "dir"]),
                   st.integers(0, 99), JUNK)


def apply_damage(path: Path, damage):
    """Leave the file as it is, or replace, add or drop one of its lines,
    make it non-UTF-8, delete it, or put a directory in its place."""
    kind, at, junk = damage
    lines = path.read_text().splitlines()
    if kind == "line" and lines:
        lines[at % len(lines)] = junk
    elif kind == "append":
        lines.append(junk)
    elif kind == "drop" and lines:
        del lines[at % len(lines)]
    elif kind == "bytes":
        path.write_bytes(path.read_bytes() + b"s\xff,1\n")
        return
    elif kind in ("missing", "dir"):
        path.unlink()
        if kind == "dir":
            path.mkdir()
        return
    path.write_text("".join(line + "\n" for line in lines))


NUMBER = st.sampled_from(["0.3", "0.5", "5", "0", "-1", "nan", "inf", "1e-300", "x", ""])
EPOCHS = st.integers(-2, 50).map(str) | st.sampled_from([str(2**62), "1.5", "x"])
CLASSES = st.integers(-2, 99).map(str) | st.just("x")
ORDER = st.sampled_from(["high_r_easy", "low_r_easy", "easy"])

FLAGS = {
    "fit": {"--labels": "labels.csv", "--gamma": NUMBER, "--out": None},
    "score": {"--traces": "traces.jsonl", "--out": None},
    "schedule": {"--difficulty": "difficulty.csv", "--distribution": "distribution.csv",
                 "--epochs": EPOCHS, "--order": ORDER, "--out": None},
    "pipeline": {"--traces": "traces.jsonl", "--epochs": EPOCHS, "--gamma": NUMBER,
                 "--order": ORDER, "--out": None},
    "eval": {"--predictions": "predictions.csv", "--classes": CLASSES},
    "figure2": {"--out": None},
}


INPUTS = ("traces.jsonl", "difficulty.csv", "labels.csv", "predictions.csv",
          "distribution.csv")


@st.composite
def cases(draw):
    """A recipe for the input files (labels, a seed, the labels the
    distribution is fitted to, predictions, one damage per file) and a
    command line over them, with ``{tmp}`` for the directory they go in."""
    labels = draw(LABELS)
    # The distribution is mostly that of the labels, else of other labels.
    fitted = draw(st.sampled_from([labels] * 3 + [None]))
    files = {"labels": labels, "seed": draw(st.integers(0, 2**16)),
             "fitted": draw(LABELS) if fitted is None else fitted,
             "pred": draw(st.lists(st.integers(0, 3), min_size=len(labels),
                                   max_size=len(labels))),
             "damage": draw(st.tuples(*[DAMAGE] * len(INPUTS)))}
    command = draw(st.sampled_from(["pipeline", "schedule", *FLAGS]))
    # The output directory is fresh, or below a regular file (an I/O error).
    out = draw(st.sampled_from(["out"] * 5 + ["file/out"]))
    argv = [command]
    for flag, value in FLAGS[command].items():
        if not draw(st.sampled_from([True] * 9 + [False])):  # even a required one
            continue
        if isinstance(value, st.SearchStrategy):
            value = draw(value)
        else:
            value = "{tmp}/" + (value or out)
        argv += [flag, value]
    argv += draw(st.sampled_from([[]] * 12 + [["--help"], ["--version"], ["--bogus"], ["3"]]))
    argv = draw(st.sampled_from([argv] * 16 + [argv[1:], [], ["frobnicate"], ["--version"]]))
    return files, argv, out


def write_inputs(tmp: Path, files):
    traces, table = dataset(files["labels"], files["seed"])
    ff.write_traces(tmp / "traces.jsonl", traces)
    ff.write_difficulty(tmp / "difficulty.csv", table)
    ff.write_labels(tmp / "labels.csv", table.ids, files["labels"])
    ff.write_predictions(tmp / "predictions.csv",
                         table.ids, files["labels"], files["pred"])
    ff.write_distribution(tmp / "distribution.csv", distribution(files["fitted"]))
    for name, damage in zip(INPUTS, files["damage"]):
        apply_damage(tmp / name, damage)
    (tmp / "file").write_text("")


def run(argv):
    """(exit code, stderr) of ``main``; the code of a ``SystemExit``
    (``--help``, ``--version``) counts as its exit code."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stderr.getvalue()


# The one route from the command line to a DomainError: a distribution
# whose alpha_hat is rewritten so that gamma*alpha_hat <= 1 on a
# non-degenerate fit (gamma 0.3 times alpha_hat 1.5). Generated damage
# almost never builds it.
DOMAIN_ERROR = ({"labels": [0, 0, 0, 1, 1, 2], "seed": 0, "fitted": [0, 0, 0, 1, 1, 2],
                 "pred": [0] * 6,
                 "damage": (("keep", 0, ""),) * 4 + (("line", 2, "# alpha_hat=1.5"),)},
                ["schedule", "--difficulty", "{tmp}/difficulty.csv", "--distribution",
                 "{tmp}/distribution.csv", "--epochs", "3", "--out", "{tmp}/out"], "out")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cases())
@example(DOMAIN_ERROR)
def test_exit_code_contract(case):
    files, argv, out = case
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp), files)
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        code, err = run(argv)
        assert code in (0, 1, 3), (argv, code, err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert not (Path(tmp) / out).exists(), argv
        else:
            assert err == "", (argv, err)


def mostly(good, bad):
    """A value drawn from ``good`` three times as often as from ``bad``."""
    good, bad = list(good), list(bad)
    return st.sampled_from(good * 3 * len(bad) + bad * len(good))


def ints(lo, hi):
    return map(str, range(lo, hi + 1))


# The size flags are always given, so no default can make a run large.
SIMULATE_SIZES = {"--n": mostly(ints(30, 60), ["-1", "0", "1", "3", "x", ""]),
                  "--seeds": mostly(ints(1, 2), ["0", "-1", "x"]),
                  "--epochs": mostly(ints(1, 4), ["0", "-1", "x"]),
                  "--warmup": mostly(ints(0, 4), ["-1", "x"])}
SIMULATE_FLAGS = {
    "--classes": mostly(ints(2, 6), ["-1", "0", "1", "8", "x"]),
    "--dims": mostly(["1,1", "2,9", "9,1", "3,5,4", "8,8,8", "1,2,3,4"],
                     ["x", "8,,8", "1.5,2", "", "8", "0,3", "-1,2"]),
    "--batch": mostly(ints(1, 70), ["0", "-1", "x"]),
    "--hidden": mostly(ints(1, 16), ["0", "-1", "x"]),
    # Steps of 1e20 and 1e100 diverge in some runs and saturate in others.
    "--lr": mostly(["0.01", "0.1", "1", "0"],
                   ["-1", "nan", "inf", "-inf", "1e20", "1e100", "x"]),
}


@st.composite
def simulate_cases(draw):
    argv = ["simulate"]
    for flag, value in SIMULATE_SIZES.items():
        argv += [flag, draw(value)]
    for flag, value in SIMULATE_FLAGS.items():
        if draw(st.booleans()):
            argv += [flag, draw(value)]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(simulate_cases())
@example(["simulate", "--n", "60", "--seeds", "2", "--epochs", "4", "--warmup", "1",
          "--lr", "1e100"])  # the curriculum arm diverges
def test_simulate_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code, err = run(argv + ["--out", str(out)])
        assert code in (0, 1), (argv, code, err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert not out.exists(), argv
        else:
            assert err == "" and (out / "report.csv").exists(), (argv, err)
