"""One pass of a job list in a fresh interpreter.

Reads a JSON request on stdin: ``{"src": path, "jobs": [argv, ...],
"trace": bool, "setup_only": bool}``.  Imports ``spantor.cli`` from ``src``,
builds the parser (timed as set-up), runs each argv through
``spantor.cli.main`` with stdout and stderr captured, and writes one JSON
object to stdout: set-up time, pass wall time, peak RSS, each job's exit
code, output and time and, in a traced pass, the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run_jobs(cli, jobs, tracer):
    results = []
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.run("bench.job", lambda: cli.main(argv))
        except (Exception, SystemExit):
            code = None
            error = traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - start
        results.append({"code": code, "time": elapsed, "out": out.getvalue(),
                        "err": err.getvalue()[-2000:], "error": error})
    return results


def main() -> int:
    request = json.load(sys.stdin)
    src = os.path.realpath(request["src"])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import spantor.cli as cli
    cli.build_parser()
    setup_s = time.perf_counter() - start
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(src + os.sep):
        print(f"spantor was imported from {origin}, not from {src}", file=sys.stderr)
        return 2
    reply = {"setup_s": setup_s}
    if not request.get("setup_only"):
        tracer = undo = None
        missing = []
        if request.get("trace"):
            import tracing
            tracer = tracing.Tracer()
            undo, missing = tracing.install(tracer)
        try:
            start = time.perf_counter()
            results = _run_jobs(cli, request["jobs"], tracer)
            wall_s = time.perf_counter() - start
        finally:
            if undo is not None:
                undo()
        reply.update(wall_s=wall_s, jobs=results)
        if tracer is not None:
            reply.update(spans=tracer.spans, missing_bindings=missing)
    # ru_maxrss is in KiB on Linux
    reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
