"""Benchmark of oemsim: the time to a checked table or validation report.

Run from the root of a checkout (needs src/oemsim, numpy and scipy):

    python3 perfbench/run.py --workload spectrum-2d --seed 1 --seconds 20 --trace 0

One run makes the workload's inputs from the seed, times SETUP_PROBES fresh
interpreters that import oemsim and parse the config, then runs whole rounds
of the workload until --seconds is spent.  Each round is a fresh process that
calls `oemsim.cli.main` once with BLAS threads pinned to 1.  Every distinct
output is then checked (checks.py).  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds
and reports the per-layer metrics (tracing.py).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PROCESS_TIMEOUT_S = 150
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s",
    "config.parse_s": "s",
    "steady.solves": "count",
    "steady.solve_s": "s",
    "steady.useful_ratio": "ratio",
    "response.kernel_points": "count",
    "response.kernel_s": "s",
    "response.transmission_s": "s",
    "response.maxima_s": "s",
    "response.group_delay_s": "s",
    "sweep.run_sweep_s": "s",
    "sweep.render_s": "s",
    "sweep.output_bytes": "bytes",
    "timedomain.integrate_s": "s",
    "timedomain.samples": "count",
    "timedomain.demodulate_s": "s",
    "linsys.solves": "count",
    "linsys.solve_s": "s",
    **{f"validate.{name}_s": "s" for name in (
        "closed_form_vs_linsys", "pump_off_allpass", "factorization_identity",
        "group_delay_methods", "linsys_properties", "steady_state", "demodulation", "timedomain",
    )},
    "trace.overhead_s": "s",
    "trace.layer_share": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark could not measure (missing program, crashed process)."""


def _worker(args: list[str], env: dict, work: Path) -> tuple[float, dict]:
    """Run worker.py once; return its wall time and its JSON result."""
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), args[0], str(result_path), *args[1:]],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=PROCESS_TIMEOUT_S, check=False,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchmarkError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return wall, json.load(fh)


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _median(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def measure(inputs: workloads.Inputs, seconds: float, trace: bool, root: Path, work: Path) -> dict:
    src = root / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    config = work / "workload.cfg"
    config.write_text(workloads.config_text(inputs), encoding="utf-8")
    setup_args = ["setup"] + ([str(config)] if inputs.name != "validate" else [])

    probes = []
    for _ in range(SETUP_PROBES):
        wall, probe = _worker(setup_args, env, work)
        probes.append(dict(probe, setup_s=wall))
    if Path(probes[0]["module"]) != (src / "oemsim" / "__init__.py").resolve():
        raise BenchmarkError(f"imported oemsim from {probes[0]['module']}, not from {src}")

    # rounds: fresh processes until the time is spent; traced rounds alternate
    rounds = []
    outputs: dict[tuple[str, int], Path] = {}
    suffix = ".json" if inputs.name == "validate" else ".csv"
    start = time.perf_counter()
    walls = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        out = work / f"out-{len(rounds)}{suffix}"
        argv = workloads.cli_argv(inputs, str(config), str(out))
        wall, result = _worker(["run", "1" if traced else "0", str(out), *argv], env, work)
        walls.append(wall)
        key = (_digest(out), result["code"])
        if key in outputs:
            out.unlink()
        else:
            outputs[key] = out
        rounds.append(dict(result, traced=traced, key=key))
        elapsed = time.perf_counter() - start
        # start another round only if it ends within half a round of the budget
        if len(rounds) >= (2 if trace else 1) and elapsed + 0.5 * statistics.median(walls) > seconds:
            break

    # checks, once per distinct output
    sys.path.insert(0, str(src))
    import checks

    outcomes = {}
    problems = []
    for key, path in outputs.items():
        try:
            outcome = checks.check_output(inputs, path, key[1])
            outcomes[key] = (outcome.ops, outcome.failed)
            problems += outcome.problems()
        except Exception:  # a malformed output fails every operation of its round
            ops = checks.expected_ops(inputs)
            outcomes[key] = (ops, ops)
            problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
    attempted = sum(outcomes[r["key"]][0] for r in rounds)
    failed = sum(outcomes[r["key"]][1] for r in rounds)

    plain = [r for r in rounds if not r["traced"]]
    if not trace:
        values = {
            "run_s": _median(plain, "run_s"),
            "setup_s": _median(probes, "setup_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
        }
        units = END_TO_END
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        layers = [r["layers"] for r in traced_rounds]
        values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        values["setup.import_s"] = _median(probes, "import_s")
        values["config.parse_s"] = _median(probes, "parse_s")
        values["sweep.output_bytes"] = _median(traced_rounds, "output_bytes")
        values["trace.overhead_s"] = _median(traced_rounds, "run_s") - _median(plain, "run_s")
        units = PER_LAYER
    lines = [f"{inputs.name} seed {inputs.seed}: {len(rounds)} rounds ({len(plain)} untraced) in "
             f"{time.perf_counter() - start:.1f} s, {len(outputs)} distinct output(s)",
             "run_s per round: " + " ".join(f"{r['run_s']:.3f}{'T' if r['traced'] else ''}" for r in rounds)]
    lines += [f"{name} = {values[name]:.6g} {unit}" for name, unit in units.items()]
    lines += [f"check failed: {p}" for p in problems]
    return {
        "lines": lines,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "oemsim" / "cli.py").is_file():
        print(f"perfbench: no src/oemsim under {root}; run from the root of an oemsim checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report = measure(workloads.make_inputs(args.workload, args.seed), args.seconds,
                         bool(args.trace), root, work)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
