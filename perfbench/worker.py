"""One measured process of the benchmark, started fresh by run.py.

    python3 perfbench/worker.py setup RESULT [CONFIG]
        import oemsim.cli (what the `oemsim` command loads) and parse CONFIG
    python3 perfbench/worker.py run RESULT TRACE OUT ARG...
        time oemsim.cli.main(ARG...), traced if TRACE is 1

run.py starts it with PYTHONPATH set to the checkout's src/ and BLAS threads
pinned to 1.  It writes one JSON object to RESULT.
"""
import sys
import time

start = time.perf_counter()
mode, result_path = sys.argv[1], sys.argv[2]

import oemsim.cli  # noqa: E402

import_s = time.perf_counter() - start

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

result = {"module": os.path.abspath(oemsim.__file__)}
if mode == "setup":
    parse_s = 0.0
    if len(sys.argv) > 3:
        t0 = time.perf_counter()
        oemsim.config.parse_config_file(sys.argv[3])
        parse_s = time.perf_counter() - t0
    result.update(import_s=import_s, parse_s=parse_s)
else:
    traced, out_path, argv = sys.argv[3] == "1", sys.argv[4], sys.argv[5:]
    if traced:
        import tracing

        tracer = tracing.install(oemsim)
    t0 = time.perf_counter()
    code = oemsim.cli.main(argv)
    run_s = time.perf_counter() - t0
    result.update(
        code=code,
        run_s=run_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        output_bytes=os.path.getsize(out_path),
    )
    if traced:
        result["layers"] = tracing.layer_metrics(tracer, run_s)
with open(result_path, "w", encoding="utf-8") as fh:
    json.dump(result, fh)
