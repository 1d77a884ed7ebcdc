"""A job in forked shares: ``fork_shares`` itself, and ``climd score`` and
``climd pipeline``, which read and score a trace file's chunks in one
share per usable CPU and must give exactly what one process gives."""

import contextlib
import io
import json
import os
import re
import signal
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from climd import cli, simlab
from climd import fileformats as ff
from climd.cli import main
from climd.errors import ValidationError
from climd.shares import fork_shares


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def items(share, n, stop, bad=(), pause=()):
    """The share's items of ``range(stop)`` as (item, pid) pairs; an item
    in ``bad`` raises, and one in ``pause`` first sleeps for a minute."""
    for i in range(share, stop, n):
        if i in pause:
            time.sleep(60)
        if i in bad:
            raise ValidationError(f"item {i}", row=i)
        yield i, os.getpid()


class TestForkShares:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_results_come_in_item_order_from_one_process_per_share(self, n):
        results = fork_shares(lambda w: items(w, n, 11), n)
        assert [i for i, _ in results] == list(range(11))
        pids = {w: {pid for i, pid in results if i % n == w} for w in range(n)}
        assert pids[0] == {os.getpid()}
        assert len({pid for w in range(n) for pid in pids[w]}) == n

    def test_one_share_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert fork_shares(lambda w: items(w, 1, 3), 1) == [(i, os.getpid()) for i in range(3)]

    @pytest.mark.parametrize("bad, first", [
        ({7, 5}, 5),  # both children fail: the lower item
        ({3, 4}, 3),  # this process fails first
        ({2, 6}, 2),  # a child fails below this process
    ])
    def test_the_error_is_that_of_the_lowest_failing_item(self, bad, first):
        with pytest.raises(ValidationError) as info:
            fork_shares(lambda w: items(w, 3, 12, bad), 3)
        assert str(info.value) == f"item {first}" and info.value.row == first

    def test_children_past_the_first_failure_are_killed_not_waited_for(self):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="item 0"):
            fork_shares(lambda w: items(w, 3, 9, bad={0}, pause={1, 2}), 3)
        assert time.perf_counter() - start < 30

    def test_an_error_keeps_its_attributes_across_the_pipe(self):
        def share(w):
            if w:
                exc = ValidationError("bad", row=4)
                exc.stage = "score"
                raise exc
            yield 0
        with pytest.raises(ValidationError) as info:
            fork_shares(share, 2)
        assert (str(info.value), info.value.row, info.value.stage) == ("bad", 4, "score")

    @pytest.mark.parametrize("end, message", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "share 1 of 2 was ended by signal 9"),
        (lambda: os._exit(3), "share 1 of 2 ended with exit status 3"),
    ])
    def test_a_child_that_dies_raises_child_process_error(self, end, message):
        def share(w):
            if w:
                end()
            yield w
        with pytest.raises(ChildProcessError) as info:
            fork_shares(share, 2)
        assert str(info.value) == message


# --- the trace reader in shares ---------------------------------------------

C = 3  # classes; two modalities of two-value embeddings


def trace(i: int) -> dict:
    probs = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]]
    return {"sample_id": f"s{i}", "label": i % C,
            "modalities": [{"probs": p, "embedding": [1.0, i + m + 1.0]}
                           for m, p in enumerate(probs)]}


def corrupt(obj: dict, kind: str, other: int) -> str:
    """One trace line, broken one way (``ok`` keeps it valid)."""
    if kind == "repeat":
        obj["sample_id"] = f"s{other}"
    elif kind == "shape":
        obj["modalities"][0]["probs"] = [0.5, 0.5, 0.0, 0.0]
    elif kind == "sum":
        obj["modalities"][1]["probs"] = [0.5, 0.5, 0.5]
    elif kind == "label":
        obj["label"] = C
    elif kind == "junk":
        return '{"sample_id": '
    line = json.dumps(obj)
    return line.replace("]", "]\udcff", 1) if kind == "utf8" else line


KINDS = ["ok", "repeat", "shape", "sum", "label", "junk", "utf8", "blank"]


def trace_file(n: int, edits, bom: bool, crlf: bool) -> bytes:
    """n traces with ``edits`` of (kind, line, other line) applied, as bytes."""
    lines = [json.dumps(trace(i)) for i in range(n)]
    for kind, at, other in edits:
        if n:
            at %= n
            lines[at] = "" if kind == "blank" else corrupt(trace(at), kind, other % n)
    text = ("\r\n" if crlf else "\n").join(lines) + "\n"
    data = text.encode("utf-8", "surrogateescape")
    return b"\xef\xbb\xbf" + data if bom else data


def run(tmp: Path, traces: Path, command: str, threads: str):
    """main's exit code, stdout, stderr and output files for one argv."""
    out = tmp / f"{command}-{threads}"
    argv = [command, "--traces", str(traces), "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CLIMD_THREADS", threads)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + (["--epochs", "3"] if command == "pipeline" else []))
    files = {}
    if out.exists():
        for path in sorted(out.iterdir()):
            files[path.name] = (ff.manifest_data_fields(json.loads(path.read_text()))
                                if path.name == "manifest.json" else path.read_bytes())
    # A decode error's byte position is the one allowed difference.
    err = re.sub(r"position \d+(-\d+)?", "position N", stderr.getvalue())
    return code, stdout.getvalue().replace(str(out), "OUT"), err, files


class TestSharedTraceReader:
    """CLIMD_THREADS=2 on two usable CPUs against CLIMD_THREADS=1."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(0, 14), chunk=st.sampled_from([3, 4]), bom=st.booleans(),
           crlf=st.booleans(),
           edits=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 13),
                                    st.integers(0, 13)), max_size=3))
    @example(n=14, chunk=3, bom=True, crlf=True, edits=[])
    @example(n=14, chunk=3, bom=False, crlf=False, edits=[("repeat", 12, 1)])
    @example(n=14, chunk=4, bom=False, crlf=True, edits=[("sum", 13, 0), ("sum", 5, 0)])
    @example(n=14, chunk=4, bom=True, crlf=False, edits=[("shape", 9, 0), ("junk", 10, 0)])
    @example(n=14, chunk=3, bom=False, crlf=False, edits=[("blank", 2, 0), ("utf8", 8, 0)])
    @example(n=10, chunk=3, bom=False, crlf=False, edits=[("junk", 0, 0)])
    def test_shares_give_what_one_process_gives(self, n, chunk, bom, crlf, edits):
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(ff, "TRACE_CHUNK", chunk)
            mp.setattr(cli, "usable_cpus", lambda: 2)
            mp.setattr(os, "fork", counted_fork)
            traces = Path(tmp) / "traces.jsonl"
            traces.write_bytes(trace_file(n, edits, bom, crlf))
            for command in ("score", "pipeline"):
                serial = run(Path(tmp), traces, command, "1")
                assert not forks
                shared = run(Path(tmp), traces, command, "2")
                assert serial == shared
                assert len(forks) == 1
                forks.clear()
                code, _, err, files = serial
                assert code in (0, 1) and (code == 0) == bool(files)
                assert err == "" if code == 0 else err.startswith("error: ")

    @pytest.mark.parametrize("cpus, forks", [(2, 1), (3, 2), (1, 0)])
    def test_unset_threads_read_in_one_share_per_usable_cpu(self, tmp_path, monkeypatch,
                                                            cpus, forks):
        monkeypatch.setattr(ff, "TRACE_CHUNK", 4)
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        traces = tmp_path / "traces.jsonl"
        traces.write_bytes(trace_file(10, [], False, False))
        serial = run(tmp_path, traces, "pipeline", "1")
        shares = []
        iter_traces = ff.iter_traces
        monkeypatch.setattr(ff, "iter_traces", lambda *args: shares.append(args[1:])
                            or iter_traces(*args))
        monkeypatch.delenv("CLIMD_THREADS", raising=False)
        out = tmp_path / "unset"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["pipeline", "--traces", str(traces), "--epochs", "3",
                         "--out", str(out)]) == 0
        assert shares == [(0, forks + 1)]  # a child's call is recorded in the child
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"} \
            == {name: data for name, data in serial[3].items() if name != "manifest.json"}

    @pytest.mark.parametrize("command", ["score", "pipeline"])
    def test_a_child_killed_mid_read_exits_3(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(ff, "TRACE_CHUNK", 4)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        parent = os.getpid()
        read_traces = ff.read_traces

        def killed_in_a_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return read_traces(*args)

        monkeypatch.setattr(ff, "read_traces", killed_in_a_child)
        traces = tmp_path / "traces.jsonl"
        traces.write_bytes(trace_file(10, [], False, False))
        out = tmp_path / "out"
        argv = [command, "--traces", str(traces), "--out", str(out)]
        assert main(argv + (["--epochs", "3"] if command == "pipeline" else [])) == 3
        err = capsys.readouterr().err
        assert err == "error: stage 'read-traces': share 1 of 2 was ended by signal 9\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["score"], ["pipeline", "--epochs", "3"],
        ["simulate", "--seeds", "2", "--n", "60", "--epochs", "2", "--warmup", "1"],
    ])
    def test_one_thread_never_forks(self, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(ff, "TRACE_CHUNK", 4)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        monkeypatch.setattr(simlab, "usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        monkeypatch.setenv("CLIMD_THREADS", "1")
        traces = tmp_path / "traces.jsonl"
        traces.write_bytes(trace_file(10, [], False, False))
        if argv[0] != "simulate":
            argv = argv + ["--traces", str(traces)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--out", str(tmp_path / "out")]) == 0

    def test_what_is_not_a_regular_file_is_read_once(self, tmp_path, monkeypatch, capsys):
        # A pipe cannot be read again; a missing path is named by one reader.
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        monkeypatch.setenv("CLIMD_THREADS", "2")
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:
            fh.write(trace_file(10, [], False, False))
        with os.fdopen(read_end, "rb"), contextlib.redirect_stdout(io.StringIO()):
            assert main(["score", "--traces", f"/dev/fd/{read_end}",
                         "--out", str(tmp_path / "piped")]) == 0
        missing = tmp_path / "missing.jsonl"
        assert main(["score", "--traces", str(missing), "--out", str(tmp_path / "out")]) == 3
        assert str(missing) in capsys.readouterr().err
