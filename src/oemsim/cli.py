"""Command-line interface.

Subcommands: spectrum, phase, delay, sweep, steady-state, validate.  The
table commands run a sweep scenario (spectrum, phase, delay-vs-power,
delay-vs-kappa, splitting-vs-gc); `validate` runs the self-check suite.
Exit codes: 0 success, 1 usage, parse or i/o error, 2 physics-domain error
(e.g. static instability), 3 validation failure.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

from . import __version__
from .config import CONVENTIONS, SweepSpec, parse_config_file
from .errors import ConfigError, SimulationError
from .steady import solve_steady_state
from .sweep import DELAY_SCENARIOS, render_table, run_sweep
from .validate import DEFAULT_SEED, run_validation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2
EXIT_VALIDATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"oemsim: {message}\n")


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def _add_common(sub):
    sub.add_argument("--config", required=True, help="configuration file path")
    sub.add_argument("--out", default=None, help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "gnuplot"), default="csv")
    sub.add_argument(
        "--convention",
        choices=CONVENTIONS,
        default=None,
        help="override the transmission convention from the config",
    )
    sub.add_argument("--jobs", type=_at_least(1), default=1, help="parallel worker processes")
    sub.add_argument(
        "--no-timestamp", action="store_true", help="suppress the timestamp header line"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oemsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"oemsim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "phase", "delay", "sweep"):
        sub = subs.add_parser(name, help=f"run a {name} scan")
        _add_common(sub)
    steady = subs.add_parser("steady-state", help="solve and print the operating point")
    steady.add_argument("--config", required=True)
    steady.add_argument("--out", default=None)
    validate = subs.add_parser("validate", help="run the oracle cross-validation suite")
    validate.add_argument("--out", default=None, help="write the JSON report here")
    validate.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    validate.add_argument(
        "--jobs", type=_at_least(1), default=1,
        help="accepted for compatibility; the checks run serially",
    )
    return parser


def _resolve_scenario(command: str, sweep: SweepSpec | None) -> SweepSpec:
    if command == "sweep":
        if sweep is None:
            raise ConfigError("the sweep subcommand needs a [sweep] section with a scenario")
        return sweep
    scenario = command  # spectrum or phase
    if command == "delay":
        scenario = DELAY_SCENARIOS.get(sweep.axes[0].name) if sweep and sweep.axes else None
        if scenario is None:
            *axes, last = DELAY_SCENARIOS
            raise ConfigError(f"delay needs a [sweep] axis: {', '.join(axes)} or {last}")
    return SweepSpec(scenario=scenario) if sweep is None else replace(sweep, scenario=scenario)


def _write_stdout(text: str) -> None:
    """Write ``text`` to sys.stdout (read now: callers may redirect it), whole or OSError.

    Under PYTHONUNBUFFERED=1 its byte layer is a raw FileIO, whose write may take
    part of the bytes (a pipe whose reader leaves) and says so only by its count.
    """
    stream = sys.stdout
    if not isinstance(getattr(stream, "buffer", None), io.RawIOBase):
        stream.write(text)
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        taken = stream.buffer.write(data)
        if not taken:  # 0, or None where the write would block
            raise OSError("stdout took no bytes")
        data = data[taken:]


@contextlib.contextmanager
def _output(path):
    """A command's text sink: the file ``path`` (utf-8, ``\\n`` newlines), else stdout via `_write_stdout`."""
    if path is None:
        yield SimpleNamespace(write=_write_stdout)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _run_table_command(args) -> int:
    params, sweep = parse_config_file(args.config)
    spec = _resolve_scenario(args.command, sweep)
    if args.convention:
        spec = replace(spec, convention=args.convention)
    result = run_sweep(params, spec, jobs=args.jobs)
    with _output(args.out) as sink:
        render_table(result, sink, fmt=args.format, timestamp=not args.no_timestamp)
    return EXIT_OK


def _finish_validation(report, out_path) -> int:
    with _output(None) as stdout:  # the summary first, also when the report's file cannot be opened
        stdout.write("".join(f"{line}\n" for line in report.summary_lines()))
    with _output(out_path) as sink:
        sink.write(report.to_json())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _run_steady_state(args) -> int:
    params, _ = parse_config_file(args.config)
    op = solve_steady_state(params)
    lines = [
        f"q1s = {op.q1s:.17g}",
        f"q2s = {op.q2s:.17g}",
        f"re_cs = {op.cs.real:.17g}",
        f"im_cs = {op.cs.imag:.17g}",
        f"photon_number = {op.photon_number:.17g}",
        f"delta_eff = {op.delta_eff:.17g}",
        f"delta_c = {op.delta_c:.17g}",
        f"branch_count = {op.branch_count}",
        f"residual = {op.residual:.17g}",
    ]
    with _output(args.out) as sink:
        sink.write("\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --version, --help or a usage error (`_Parser.error`)
        return int(exc.code or 0)
    try:
        if args.command == "validate":
            code = _finish_validation(run_validation(seed=args.seed), args.out)
        elif args.command == "steady-state":
            code = _run_steady_state(args)
        else:
            code = _run_table_command(args)
        sys.stdout.flush()  # output a reader never got is an i/o error, not a success
        return code
    except ConfigError as exc:
        print(f"oemsim: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"oemsim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimulationError as exc:
        print(f"oemsim: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # stdout's reader left: its buffered text goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"oemsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
