"""One timed CLI run in a fresh interpreter; started by run.py, not by hand.

    python3 child.py RESULT_JSON T0 [--spans SPANS_JSON] [-- CLI_ARG...]

T0 is the parent's `time.monotonic()` just before it started this process;
on Linux that clock is shared by all processes, so `setup_s` runs from
process start to `gradenet.cli` imported. `wall_s` runs from entry to
return of `gradenet.cli.main`. Only the standard library is imported
before the set-up clock stops. With `--spans` the calls into each layer
are recorded (see tracer.py) and written out after `main` returns.
"""

import json
import os
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import gradenet.cli  # noqa: E402  (the set-up being measured)

SETUP_END = time.monotonic()


def _blas():
    """(config string, thread count) of the OpenBLAS that numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return config().decode(), threads()
    return None, None


def main(argv):
    result_path, t0 = argv[0], float(argv[1])
    rest = argv[2:]
    if "--" not in rest:
        with open(result_path, "w") as f:
            json.dump({"exit_code": 0, "setup_s": SETUP_END - t0}, f)
        return 0
    split = rest.index("--")
    options, cli_argv = rest[:split], rest[split + 1:]
    spans_path = options[options.index("--spans") + 1] if "--spans" in options else None

    cli_main = gradenet.cli.main
    recorder = None
    if spans_path is not None:
        sys.path.insert(0, _HERE)
        import tracer

        recorder = tracer.Recorder()
        skipped = tracer.install(recorder)
        cli_main = recorder.wrap(tracer.ROOT_SPAN, cli_main)

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = cli_main(cli_argv)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    blas_config, blas_threads = _blas()
    out = {
        "exit_code": code,
        "setup_s": SETUP_END - t0,
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "gradenet_file": gradenet.cli.__file__,
        "blas_config": blas_config,
        "blas_threads": blas_threads,
    }
    if recorder is not None:
        with open(spans_path, "w") as f:
            json.dump({"spans": recorder.spans, "skipped": skipped}, f)
    with open(result_path, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
