"""One study invocation in a fresh interpreter.

    python3 perfbench/worker.py <mode> <result.json> <trace.jsonl|-> -- <cli argv>

mode `setup` imports `nls_transport`, resolves the config of the given
subcommand argv and stops.  mode `study` does the same, then calls
`cli.main(argv)` and times it; mode `traced` does that with the tracer
installed and writes its spans to the trace file.  The result file gets the
CLOCK_MONOTONIC time at which set-up ended (the caller subtracts the time it
launched this process), the study time, the exit code and the peak RSS.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    mode, result_path, trace_path, sep, *argv = sys.argv[1:]
    if mode not in ("setup", "study", "traced") or sep != "--":
        raise SystemExit("usage: worker.py setup|study|traced RESULT TRACE "
                         "-- ARGV")
    from nls_transport import cli
    package = os.path.dirname(os.path.abspath(cli.__file__))
    if package != os.path.join(ROOT, "src", "nls_transport"):
        raise SystemExit(f"nls_transport imported from {package}, "
                         f"not from this checkout")
    cli.resolve_config(cli.build_parser().parse_args(argv))
    result = {"setup_end": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            start = time.perf_counter()
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    code = cli.main(argv)
            result["study_s"] = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            tracer.write(trace_path)
        result["code"] = code
        result["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
