"""Run one ferhead CLI command in this process and report how it went.

    python3 perfbench/worker.py REQUEST.json RESULT.json

The request names the source tree, the argv for ferhead.cli.main, whether
to trace, and a run id. The command runs in-process with stdout captured;
the result holds its exit code, wall time, the peak RSS of this process
(so one worker per command gives each command its own peak) and, when
traced, the spans. BLAS thread variables come pinned from
the parent, which sets them before numpy is first imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(request_path: str, result_path: str) -> int:
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))
    from ferhead import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"ferhead was imported from {cli.__file__}, not from {src}")

    run = cli.main
    tracer = None
    if request["trace"]:
        import spans

        tracer = spans.Tracer(request["run_id"])
        spans.install(tracer)
        run = tracer.wrap("cli.main", cli.main)

    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            exit_code = run(request["argv"])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the benchmark counts the command as failed and goes on
        exit_code = -1
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start

    result = {
        "exit_code": exit_code,
        "wall_s": wall_s,
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
        "spans": tracer.spans if tracer else [],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
