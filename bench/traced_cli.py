"""Traced entry point for the CLI workloads.

    python bench/traced_cli.py TRACE_FILE <talkfilter cli arguments...>

Times the import of ``talkfilter.cli`` in CPU seconds (the tracer is loaded
inside the timed import too; it loads no module the interpreter lacks),
installs the tracer's wrappers, runs ``talkfilter.cli.main`` under a
``cli.main`` span, writes the spans and counters to TRACE_FILE and exits with
main's exit code.
"""
import sys
import time

if __name__ == "__main__":
    trace_file = sys.argv[1]
    started = time.process_time()
    import tracer
    import talkfilter.cli
    trace = tracer.Trace()
    trace.values["cli.import_cpu_s"] = time.process_time() - started
    tracer.install(trace)
    code = trace.call("cli.main", talkfilter.cli.main, sys.argv[2:])
    trace.dump(trace_file)
    sys.exit(code)
