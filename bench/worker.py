"""Child process that runs benchmark ops as in-process ``climd.cli.main`` calls.

Started by run.py with pipes on stdin and stdout. It reads one JSON command
per line and answers each with one JSON line:

* ``{"argv": [...], "op": i, "traced": bool}`` runs one op and answers
  ``{"code", "wall", "stderr"}``; the first traced op installs the wrappers;
* ``{"quit": spans_path}`` writes the spans there, answers
  ``{"peak_rss_kb"}`` (peak RSS) and exits.

climd's own output goes to /dev/null, so the protocol owns the real stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def peak_rss_kb() -> int:
    """This process's own peak RSS (VmHWM). getrusage's ru_maxrss is not
    used: across fork and exec it keeps the parent's peak."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main() -> int:
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    sys.path.insert(0, str(SRC))
    import climd.cli
    if Path(climd.cli.__file__).resolve().parent != SRC / "climd":
        raise SystemExit(f"imported climd from {climd.cli.__file__}, not {SRC}")
    from spans import Tracer

    tracer = Tracer()
    proto.write(json.dumps({"ready": True}) + "\n")
    for line in sys.stdin:
        cmd = json.loads(line)
        if "quit" in cmd:
            if tracer.spans:
                Path(cmd["quit"]).write_text(json.dumps(tracer.spans))
            proto.write(json.dumps({"peak_rss_kb": peak_rss_kb()}) + "\n")
            return 0
        if cmd["traced"]:
            tracer.install()
        tracer.op = cmd["op"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = climd.cli.main(cmd["argv"])
            except Exception:  # a traceback is a failed op, not a dead worker
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - start
        proto.write(json.dumps({"code": code, "wall": wall,
                                "stderr": err.getvalue()[-2000:]}) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
