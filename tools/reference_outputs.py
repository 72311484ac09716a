"""Write oemsim's reference outputs into a directory, to compare two source trees.

    python3 tools/reference_outputs.py SRC OUTDIR
    python3 tools/reference_outputs.py --digest SRC DIGEST

SRC is the directory that holds the ``oemsim`` package (``src`` in a checkout).
Every case runs ``oemsim.cli.main`` in this process, with ``--no-timestamp``
on tables, and leaves ``OUTDIR/<case>.txt`` (exit code, or the exception that
escaped ``main``, then stdout and stderr) plus the ``--out`` file when there
is one.  The cases:

- every sweep scenario in csv and gnuplot and in both conventions, on
  ``dimensionless-slowfast``, with ``--jobs 1`` and ``--jobs 3`` on 2-D grids
  and on the splitting tables, whose one-row pool chunks cut the groups of
  rows that share a window scan's grid and kernel terms (`response.window_scan`);
- a phase grid whose innermost blocks are longer than one slice of rows that
  `sweep.render_table` formats and writes at a time, so gnuplot blank lines
  fall between slices and inside them; its gnuplot table also goes to stdout,
  the one multi-slice table written there;
- phase grids whose outer axis holds one value, so every column repeats from
  block to block: with 401-row blocks, whose text `sweep.render_table` formats
  once and reuses, and with blocks longer than a slice, whose columns that
  vary along a block it formats row by row;
- a phase grid whose delta_bar axis steps by 2^-17, so that the delta column
  1 + m 2^-17 holds exact 18-digit ties, which `arith.format_g17` leaves to
  Python's ``%``;
- a phase table whose one axis is g_coulomb, to which the sweep appends the
  default delta_bar axis innermost;
- ``paper-2012`` tables, whose header is written in SI base units;
- tables with response-error rows: spectrum and phase grids through the
  exact pole of an undamped second resonator (the unwrap restarts after
  it), and delay tables where every line centre, or only the delta + h
  finite-difference point of the rows with the largest step, sits on that
  pole;
- config override cases (probe, pump, damping and detuning pairs), and
  phase, delay and splitting tables on the explicit-detuning override, whose
  operating points come from the roots of the photon-number cubic;
- delay tables whose pump is so weak that the cubic's leading coefficient
  underflows (a quadratic is left), or so strong that floats overflow;
- locked delay tables at g_coulomb = 0 and 0.2 whose pump crosses the
  bistability threshold, where ``branch_count`` goes from 1 to 3;
- spectrum and phase grids whose delta_bar runs up to 1e200: the response
  denominator leaves the float range from about 1e77 on, and those rows fail;
- a splitting table at kappa = 1e76, whose rows solve although the response
  denominator reaches 1e148 to 3e154, so its square leaves the range where
  `response` decides from squares (past 1e154 it overflows), and whose
  |t_p|^2 is 1 within a few ULP, so rounding alone makes its maxima;
- ``steady-state`` output, a pump that overflows floats among it;
- the exit code and message of malformed configs, non-finite numbers,
  axes that leave their parameter's domain and an SI cavity with neither a
  length nor a g_cav among them;
- ``validate --seed 20260810`` and ``--seed 1`` to ``--seed 10``.

Two trees are the same program output when ``diff -r OUT_A OUT_B`` is empty.
With ``--digest`` the tree goes to a temporary directory, and DIGEST gets its
digest instead: a header of the platform the bytes rest on (`platform_lines`),
then one line per file: its path, its sha256 and the short hashes of its
first SPAN lines, then of each SPAN lines after them.  ``tests/test_reference_digest.py`` compares a fresh
tree with the committed ``tests/reference_digest.txt``, which this regenerates:

    PYTHONPATH=src python3 tools/reference_outputs.py --digest src tests/reference_digest.txt
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import platform
import sys
import tempfile
from pathlib import Path

SLOWFAST = "preset = dimensionless-slowfast\n"
PAPER = "preset = paper-2012\n"
# gamma2 = 0 puts an exact pole of mirror 2 at delta = omega2; the second
# one moves it to the delta + h point of the finite-difference delay at
# line centre on the rows whose step is the largest one, h = 1e-6 omega1
# (a narrower feature takes a smaller step, which misses the pole)
POLE = "[mech2]\ngamma = 0 dimensionless\n"
POLE_FD = POLE + f"omega = {1.0 + 1e-6!r} dimensionless\n"
EXPLICIT = "[cavity]\ndetuning = 0.9 dimensionless\n"
VALIDATE_SEEDS = ("20260810", *map(str, range(1, 11)))
# a digest entry hashes a file's first SPAN lines one by one, then SPAN lines at a time,
# so that a changed header or first rows are named to the line
SPAN = 64


def _sweep(scenario, *axes):
    """A [sweep] section; each axis is (name, lo, hi, points[, spacing])."""
    lines = ["[sweep]", f"scenario = {scenario}"]
    for idx, (name, lo, hi, points, *spacing) in enumerate(axes, start=1):
        lines += [
            f"axis{idx} = {name}",
            f"axis{idx}_min = {lo}",
            f"axis{idx}_max = {hi}",
            f"axis{idx}_points = {points}",
        ]
        lines += [f"axis{idx}_spacing = {s}" for s in spacing]
    return "\n".join(lines) + "\n"


def _d(x):
    return f"{x} dimensionless"


# name -> (command, config text); 2-D grids and POOLED also run with --jobs 3
TABLES = {
    "spectrum-default": ("spectrum", SLOWFAST + "[coupling]\ng_coulomb = 0.1 dimensionless\n"),
    "spectrum-gc-delta": ("sweep", SLOWFAST + _sweep(
        "spectrum", ("g_coulomb", _d(0), _d(0.2), 7), ("delta_bar", _d(-0.2), _d(0.2), 301))),
    "spectrum-delta-kappa": ("sweep", SLOWFAST + _sweep(
        "spectrum", ("delta_bar", _d(-0.1), _d(0.1), 5), ("kappa", _d(0.1), _d(0.3), 4))),
    "spectrum-gc-kappa": ("sweep", SLOWFAST + _sweep(
        "spectrum", ("g_coulomb", _d(0), _d(0.2), 3), ("kappa", _d(0.1), _d(0.3), 3))),
    "phase-gc-delta": ("phase", SLOWFAST + _sweep(
        "phase", ("g_coulomb", _d(0), _d(0.2), 9), ("delta_bar", _d(-0.2), _d(0.2), 401))),
    "phase-unstable": ("sweep", SLOWFAST + _sweep(
        "phase", ("g_coulomb", _d(0.8), _d(1.2), 5), ("delta_bar", _d(-0.05), _d(0.05), 51))),
    "phase-degenerate": ("sweep", SLOWFAST + _sweep(
        "phase", ("g_coulomb", _d(0.1), _d(0.1), 3), ("delta_bar", _d(-0.2), _d(0.2), 401))),
    "phase-degenerate-long-blocks": ("sweep", SLOWFAST + _sweep(
        "phase", ("g_coulomb", _d(0.1), _d(0.1), 3), ("delta_bar", _d(-0.2), _d(0.2), 2049))),
    "phase-long-blocks": ("phase", SLOWFAST + _sweep(
        "phase", ("g_coulomb", _d(0), _d(0.2), 3), ("delta_bar", _d(-0.2), _d(0.2), 2049))),
    "phase-ties": ("phase", SLOWFAST + _sweep(
        "phase", ("g_coulomb", _d(0), _d(0.2), 3), ("delta_bar", _d(0), _d(2.0**-11), 65))),
    "phase-gc": ("phase", SLOWFAST + _sweep("phase", ("g_coulomb", _d(0), _d(0.2), 3))),
    "delay-power": ("delay", SLOWFAST + _sweep(
        "delay-vs-power", ("P_l", _d(1e-4), _d(1), 301, "log"))),
    "delay-amplitude": ("delay", SLOWFAST + _sweep(
        "delay-vs-power", ("Omega_l", _d(1e-3), _d(0.5), 41))),
    "delay-kappa": ("delay", SLOWFAST + "[coupling]\ng_coulomb = 0.2 dimensionless\n" + _sweep(
        "delay-vs-kappa", ("kappa", _d(0.113), _d(0.34), 21))),
    "splitting-gc": ("sweep", SLOWFAST + _sweep(
        "splitting-vs-gc", ("g_coulomb", _d(0), _d(1.2), 13))),
    "spectrum-pole": ("sweep", SLOWFAST + POLE + _sweep(
        "spectrum", ("g_coulomb", _d(0.05), _d(0.1), 2), ("delta_bar", _d(-0.1), _d(0.1), 5))),
    "phase-pole": ("sweep", SLOWFAST + POLE + _sweep(
        "phase", ("g_coulomb", _d(0.05), _d(0.1), 2), ("delta_bar", _d(-0.1), _d(0.1), 9))),
    "delay-pole-centre": ("delay", SLOWFAST + POLE + _sweep(
        "delay-vs-power", ("P_l", _d(1e-4), _d(1), 11, "log"))),
    "delay-pole-fd-point": ("delay", SLOWFAST + POLE_FD + _sweep(
        "delay-vs-power", ("P_l", _d(1e-4), _d(1), 11, "log"))),
    "paper-spectrum": ("spectrum", PAPER + _sweep(
        "spectrum", ("delta_bar", "-20 kHz", "20 kHz", 41))),
    "paper-delay-power": ("delay", PAPER + _sweep(
        "delay-vs-power", ("P_l", "1 uW", "10 uW", 7, "log"))),
    "paper-splitting": ("sweep", PAPER + _sweep(
        "splitting-vs-gc", ("g_coulomb", "0 MHz", "16 MHz", 3))),
    "explicit-phase": ("phase", SLOWFAST + EXPLICIT + _sweep(
        "phase", ("g_coulomb", _d(0), _d(0.2), 3), ("delta_bar", _d(-0.2), _d(0.2), 201))),
    "explicit-delay-power": ("delay", SLOWFAST + EXPLICIT + _sweep(
        "delay-vs-power", ("P_l", _d(1e-4), _d(1), 101, "log"))),
    "explicit-splitting": ("sweep", SLOWFAST + EXPLICIT + _sweep(
        "splitting-vs-gc", ("g_coulomb", _d(0), _d(1.2), 13))),
    "delay-power-underflow": ("delay", SLOWFAST + _sweep(
        "delay-vs-power", ("P_l", _d(1e-130), _d(1e-90), 41, "log"))),
    "delay-power-overflow": ("delay", SLOWFAST + _sweep(
        "delay-vs-power", ("P_l", _d(1e-3), _d(1e300), 31, "log"))),
    **{f"delay-power-threshold-gc{g}": ("delay", SLOWFAST + f"[coupling]\ng_coulomb = {_d(g)}\n" + _sweep(
        "delay-vs-power", ("P_l", _d(1), _d(100), 101, "log"))) for g in (0, 0.2)},
    "splitting-extreme-kappa": ("sweep", SLOWFAST + "[cavity]\nkappa = 1e76 dimensionless\n" + _sweep(
        "splitting-vs-gc", ("g_coulomb", _d(0), _d(0.2), 3))),
    **{f"{scenario}-overflow": (scenario, SLOWFAST + _sweep(
        scenario, ("g_coulomb", _d(0), _d(0.2), 3), ("delta_bar", _d(1e-2), _d(1e200), 22, "log")))
       for scenario in ("spectrum", "phase")},
}

POOLED = ("splitting-gc", "explicit-splitting")

OVERRIDES = {
    "probe-amplitude-then-power": "[drive]\nprobe_amplitude = 1e-4 dimensionless\nprobe_power = 1e-8 dimensionless\n",
    "probe-power-then-amplitude": "[drive]\nprobe_power = 1e-8 dimensionless\nprobe_amplitude = 1e-4 dimensionless\n",
    "pump-amplitude": "[drive]\npump_amplitude = 0.05 dimensionless\n",
    "pump-amplitude-then-power": "[drive]\npump_amplitude = 0.05 dimensionless\npower = 0.3 dimensionless\n",
    "quality-then-gamma": "[mech1]\nquality = 100 dimensionless\ngamma = 0.002 dimensionless\n",
    "gamma-then-quality": "[mech2]\ngamma = 0.002 dimensionless\nquality = 100 dimensionless\n",
    "explicit-detuning": EXPLICIT,
    "locked-then-detuning": "[cavity]\ndetuning_mode = locked\ndetuning = 1.1 dimensionless\n",
    "detuning-then-locked": "[cavity]\ndetuning = 1.1 dimensionless\ndetuning_mode = locked\n",
    "g-cav-kappa": "[coupling]\ng_cav = 0.05 dimensionless\ng_coulomb = 0.15 dimensionless\n[cavity]\nkappa = 0.3 dimensionless\n",
    "mass": "[mech2]\nmass = 2 dimensionless\n",
}

UNSTABLE = (
    "units = dimensionless\n[cavity]\nkappa = 0.2 dimensionless\ndetuning = 1 dimensionless\n"
    "[mech1]\nomega = 1 dimensionless\ngamma = 0.01 dimensionless\n"
    "[mech2]\nomega = 1 dimensionless\ngamma = 0.01 dimensionless\n"
    "[coupling]\ng_cav = 0.1 dimensionless\ng_coulomb = 2 dimensionless\n"
    "[drive]\npump_amplitude = 0.1 dimensionless\n"
)

STEADY = {
    "slowfast": SLOWFAST,
    "paper": PAPER,
    "paper-si-overrides": PAPER + "[cavity]\nkappa = 1.3e6 rad_s\ndetuning = 950 kHz\n[mech1]\nmass = 0.2 mm\n",
    "paper-masses": PAPER + "[mech1]\nmass = 1.45e-10 kg\n[mech2]\nmass = 200 ng\nquality = 5000 dimensionless\n",
    "paper-pump": PAPER + "[drive]\npower = 12 uW\nprobe_amplitude = 10 rad_s\n",
    "unstable": UNSTABLE,
    "huge-pump": SLOWFAST + "[drive]\npower = 1e300 dimensionless\n",
    **{f"override-{k}": SLOWFAST + v for k, v in OVERRIDES.items()},
}

_AXIS = "axis1 = delta_bar\naxis1_min = -0.1 dimensionless\naxis1_max = 0.1 dimensionless\n"
MALFORMED = {
    "missing-unit": PAPER + "[mech1]\nmass = 145\n",
    "three-tokens": SLOWFAST + "[cavity]\nkappa = 1 2 dimensionless\n",
    "not-a-number": SLOWFAST + "[cavity]\nkappa = abc dimensionless\n",
    "si-suffix-dimensionless": SLOWFAST + "[cavity]\nkappa = 215 kHz\n",
    "wrong-si-suffix": PAPER + "[mech1]\nmass = 1 W\n",
    "pure-si-suffix": PAPER + "[mech1]\nquality = 6700 kHz\n",
    "unknown-key": PAPER + "[cavity]\nfinesse = 1000 dimensionless\n",
    "unknown-top-key": "finesse = 3\n",
    "unknown-section": "[laser]\npower = 1 W\n",
    "empty-section": "[ ]\n",
    "no-equals": SLOWFAST + "[cavity]\nkappa 0.2 dimensionless\n",
    "empty-value": SLOWFAST + "[cavity]\nkappa =\n",
    "unknown-preset": "preset = mystery-2020\n",
    "bad-units": "units = cgs\n",
    "bad-detuning-mode": SLOWFAST + "[cavity]\ndetuning_mode = auto\n",
    "scenario-validate": SLOWFAST + "[sweep]\nscenario = validate\n",
    "bad-scenario": SLOWFAST + "[sweep]\nscenario = bogus\n",
    "bad-convention": SLOWFAST + "[sweep]\nscenario = spectrum\nconvention = other\n",
    "bad-axis-name": SLOWFAST + "[sweep]\nscenario = spectrum\naxis1 = omega\n",
    "bad-spacing": SLOWFAST + "[sweep]\nscenario = spectrum\n" + _AXIS + "axis1_points = 5\naxis1_spacing = cubic\n",
    "bad-points": SLOWFAST + "[sweep]\nscenario = spectrum\n" + _AXIS + "axis1_points = five\n",
    "axis-keys-without-axis": SLOWFAST + "[sweep]\nscenario = spectrum\naxis2_points = 5\n",
    "missing-axis-min": SLOWFAST + "[sweep]\nscenario = spectrum\naxis1 = delta_bar\naxis1_max = 0.1 dimensionless\naxis1_points = 5\n",
    "missing-points": SLOWFAST + "[sweep]\nscenario = spectrum\n" + _AXIS,
    "points-below-2": SLOWFAST + "[sweep]\nscenario = spectrum\n" + _AXIS + "axis1_points = 1\n",
    "log-nonpositive": SLOWFAST + _sweep("delay-vs-power", ("P_l", _d(0), _d(1), 5, "log")),
    "infinite-bound": SLOWFAST + _sweep("spectrum", ("delta_bar", _d(-0.1), _d("inf"), 5)),
    "nan-gamma": SLOWFAST + "[mech1]\ngamma = nan dimensionless\n",
    "inf-kappa": SLOWFAST + "[cavity]\nkappa = inf dimensionless\n",
    "nan-g-coulomb": SLOWFAST + "[coupling]\ng_coulomb = nan dimensionless\n",
    "nan-detuning": SLOWFAST + "[cavity]\ndetuning = nan dimensionless\n",
    "inf-quality": SLOWFAST + "[mech2]\nquality = inf dimensionless\n",
    "minus-inf-power": SLOWFAST + "[drive]\npower = -inf dimensionless\n",
    "same-axis-names": SLOWFAST + _sweep(
        "spectrum", ("delta_bar", _d(-0.1), _d(0.1), 5), ("delta_bar", _d(-0.1), _d(0.1), 5)),
    "bad-axis-unit": SLOWFAST + _sweep("spectrum", ("delta_bar", "-1 kHz", "1 kHz", 5)),
    "no-scenario": SLOWFAST + "[sweep]\n" + _AXIS + "axis1_points = 5\n",
    "missing-kappa": "units = dimensionless\n[mech1]\nomega = 1 dimensionless\ngamma = 0.01 dimensionless\n"
                     "[mech2]\nomega = 1 dimensionless\ngamma = 0.01 dimensionless\n",
    "missing-detuning": SLOWFAST + "[cavity]\ndetuning_mode = explicit\n",
    "nonpositive-quality": SLOWFAST + "[mech1]\nquality = 0 dimensionless\n",
    "omega-invariant": SLOWFAST + "[mech1]\nomega = 2 dimensionless\n",
    "missing-si-mass": "units = SI\n[cavity]\nkappa = 215 kHz\ndetuning_mode = locked\n"
                       "[mech1]\nomega = 947 kHz\nquality = 6700 dimensionless\n"
                       "[mech2]\nomega = 947 kHz\nquality = 6700 dimensionless\n",
    "missing-g-cav": "units = dimensionless\n[cavity]\nkappa = 0.2 dimensionless\ndetuning_mode = locked\n"
                     "[mech1]\nomega = 1 dimensionless\ngamma = 0.01 dimensionless\n"
                     "[mech2]\nomega = 1 dimensionless\ngamma = 0.01 dimensionless\n",
    "units-then-preset": "units = dimensionless\n" + PAPER + "[cavity]\nkappa = 0.2 dimensionless\n",
    "si-without-length": "units = SI\n[cavity]\nkappa = 215 kHz\ndetuning_mode = locked\nwavelength = 1064 nm\n"
                         "[mech1]\nmass = 145 ng\nomega = 947 kHz\nquality = 6700 dimensionless\n"
                         "[mech2]\nmass = 145 ng\nomega = 947 kHz\nquality = 6700 dimensionless\n"
                         "[drive]\npower = 6 uW\n",
    "wrong-one-axis": SLOWFAST + _sweep("delay-vs-kappa", ("g_coulomb", _d(0), _d(0.2), 3)),
    "phase-delta-not-inner": SLOWFAST + _sweep(
        "phase", ("delta_bar", _d(-0.1), _d(0.1), 5), ("kappa", _d(0.1), _d(0.3), 3)),
    "axis-kappa": SLOWFAST + _sweep("delay-vs-kappa", ("kappa", _d(-0.1), _d(0.3), 5)),
    "axis-g-coulomb": SLOWFAST + _sweep("splitting-vs-gc", ("g_coulomb", _d(-0.1), _d(0.1), 5)),
    "axis-power": SLOWFAST + _sweep("delay-vs-power", ("P_l", _d(-1), _d(1), 5)),
}


def _run(main, out_dir: Path, name: str, argv: list[str]) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except Exception as exc:  # a crash is an output too; record it and go on
            code = f"raised {type(exc).__name__}: {exc}"
    text = f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
    (out_dir / f"{name}.txt").write_text(text, encoding="utf-8")


def write_tree(out_dir: Path, oemsim_main, seeds=VALIDATE_SEEDS) -> None:
    """Run every case through ``oemsim_main`` (`oemsim.cli.main`) into ``out_dir``, ``validate``
    at each of ``seeds``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = out_dir / "configs"
    configs.mkdir(exist_ok=True)

    def config(name, text):
        path = configs / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def run(name, argv, out=True):
        extra = ["--out", str(out_dir / f"{name}.out")] if out else []
        _run(oemsim_main, out_dir, name, argv + extra)

    tables = dict(TABLES)
    tables.update({f"override-{k}": ("spectrum", SLOWFAST + v + _sweep(
        "spectrum", ("delta_bar", _d(-0.05), _d(0.05), 11))) for k, v in OVERRIDES.items()})
    for name, (command, text) in tables.items():
        path = config(name, text)
        pooled = text.count("axis2 =") == 1 or name in POOLED
        for fmt in ("csv", "gnuplot"):
            for convention in ("paper-corrected", "intracavity"):
                for jobs in (1, 3) if pooled else (1,):
                    case = f"table-{name}-{fmt}-{convention}-j{jobs}"
                    run(case, [command, "--config", path, "--format", fmt, "--convention",
                               convention, "--jobs", str(jobs), "--no-timestamp"])
    run("table-stdout", ["spectrum", "--config", config("stdout", SLOWFAST), "--no-timestamp"],
        out=False)
    long_blocks = config("phase-long-blocks", tables["phase-long-blocks"][1])
    run("table-stdout-phase-long-blocks", ["phase", "--config", long_blocks, "--format", "gnuplot",
                                           "--no-timestamp"], out=False)
    for name, text in STEADY.items():
        run(f"steady-{name}", ["steady-state", "--config", config(f"steady-{name}", text)])
    run("steady-stdout", ["steady-state", "--config", config("steady-stdout", SLOWFAST)], out=False)
    for name, text in MALFORMED.items():
        path = config(f"bad-{name}", text)
        command = "delay" if "delay" in text else "sweep" if "[sweep]" in text else "spectrum"
        run(f"bad-{name}", [command, "--config", path, "--no-timestamp"])
    run("bad-sweep-without-section", ["sweep", "--config", config("no-sweep", SLOWFAST)])
    run("bad-delay-without-axis", ["delay", "--config", config("no-axis", SLOWFAST)])
    run("bad-missing-file", ["spectrum", "--config", "absent-oemsim-config.cfg"])
    for seed in seeds:
        run(f"validate-{seed}", ["validate", "--seed", seed, "--jobs", "2"])


def platform_lines() -> list[str]:
    """Python, numpy, the libc and numpy's dispatched CPU features: what the tree's bytes rest on
    (the exact-square rule on glibc's ``pow``, the steady roots on LAPACK, numpy's loops on the
    features it dispatched to)."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    dispatched = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return [
        f"python {platform.python_version()} ({platform.python_implementation()})",
        "libc: " + (" ".join(platform.libc_ver()) or "unknown"),
        f"numpy {np.__version__} dispatched CPU features: {' '.join(dispatched) or 'none'}",
    ]


def _segment(i: int) -> range:
    """The lines (from 0) of a file's segment ``i``: one line for each of the first SPAN, then SPAN."""
    return range(i, i + 1) if i < SPAN else range(SPAN * (i - SPAN + 1), SPAN * (i - SPAN + 2))


def _file_digest(data: bytes) -> str:
    """The sha256 of ``data``, then the first 4 hex digits of each segment's, comma-separated."""
    lines = data.splitlines(keepends=True)
    segments = itertools.takewhile(lambda at: at.start < len(lines), map(_segment, itertools.count()))
    return f"{hashlib.sha256(data).hexdigest()} " + ",".join(
        hashlib.sha256(b"".join(lines[at.start : at.stop])).hexdigest()[:4] for at in segments)


def digest(out_dir: Path) -> dict[str, str]:
    """Relative path -> "sha256 block,hashes" of every file under ``out_dir``, sorted by path."""
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    return {p.relative_to(out_dir).as_posix(): _file_digest(p.read_bytes()) for p in files}


def digest_text(out_dir: Path) -> str:
    """The digest file of the tree in ``out_dir``: `platform_lines` as comments, then `digest`."""
    lines = [f"# {line}" for line in platform_lines()]
    lines += [f"{path} {entry}" for path, entry in digest(out_dir).items()]
    return "\n".join(lines) + "\n"


def read_digest(text: str) -> tuple[list[str], dict[str, str]]:
    """(platform lines, `digest`) of a digest file."""
    lines = text.splitlines()
    header = [line.removeprefix("# ") for line in lines if line.startswith("# ")]
    entries = dict(line.split(" ", 1) for line in lines if not line.startswith("# "))
    return header, entries


def first_changed_lines(old: str, new: str) -> range:
    """The lines (from 0) of the first segment where two `digest` entries of one file differ."""
    old_hashes, new_hashes = old.split(" ")[1].split(","), new.split(" ")[1].split(",")
    pairs = enumerate(zip(old_hashes, new_hashes))
    return _segment(next((i for i, (a, b) in pairs if a != b), min(len(old_hashes), len(new_hashes))))


def main(argv: list[str]) -> int:
    to_digest = argv[:1] == ["--digest"]
    if len(argv) != 2 + to_digest:
        print("usage: python3 tools/reference_outputs.py [--digest] SRC OUTDIR|DIGEST", file=sys.stderr)
        return 1
    src, target = Path(argv[-2]).resolve(), Path(argv[-1])
    sys.path.insert(0, str(src))
    from oemsim.cli import main as oemsim_main

    if not to_digest:
        write_tree(target, oemsim_main)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        write_tree(Path(tmp), oemsim_main)
        target.write_text(digest_text(Path(tmp)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
