"""Per-layer tracing of oemsim from outside the package.

`install` wraps the public functions of each module and puts the wrapper on
every module attribute that names the function, because `sweep`, `validate`
and `cli` import functions by name.  Calls between wrapped functions inside
one module go through the module globals, so they are traced as well.

Each wrapped call is one span.  A span's self time is its duration minus the
time of the wrapped calls made inside it.  Per function the tracer keeps the
call count, the inclusive time of its outermost calls (a function nested in
itself is not counted twice) and the self time.
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np

# module -> public functions whose spans the per-layer metrics are made from
TRACED = {
    "steady": ("solve_steady_state",),
    "response": (
        "sideband_amplitude",
        "sideband_amplitude_derivative",
        "transmission",
        "phase_spectrum",
        "group_delay",
        "transmission_maxima",
    ),
    "linsys": ("solve_sidebands",),
    "sweep": ("run_sweep", "render_table", "emit_csv"),
    "timedomain": ("integrate", "demodulate", "probe_response"),
    "validate": (
        "run_validation",
        "check_closed_form_vs_linsys",
        "check_pump_off_allpass",
        "check_factorization_identity",
        "check_group_delay_methods",
        "check_linsys_properties",
        "check_steady_state",
        "check_demodulation",
        "check_timedomain",
    ),
}
KERNEL = ("response.sideband_amplitude", "response.sideband_amplitude_derivative")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.depth: dict[str, int] = {}
        self.stack: list[list[float]] = []
        self.kernel_points = 0
        self.operating_points: set = set()
        self.samples = 0

    def _observe(self, name, first_arg, result):
        if name in KERNEL:
            self.kernel_points += int(np.size(first_arg))  # delta; an array counts by its size
        elif name == "steady.solve_steady_state":
            self.operating_points.add(first_arg)  # params
        elif name == "timedomain.integrate":
            self.samples += int(len(result.t))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self.stack.append(children)
            self.depth[name] = self.depth.get(name, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += elapsed
                self.depth[name] -= 1
                if self.depth[name] == 0:
                    self.inclusive[name] = self.inclusive.get(name, 0.0) + elapsed
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - children[0]
            self._observe(name, args[0] if args else next(iter(kwargs.values())), result)
            return result

        return traced


def install(package) -> Tracer:
    """Wrap every traced function of an imported oemsim package."""
    tracer = Tracer()
    modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
    for module_name, functions in TRACED.items():
        module = sys.modules[f"{package.__name__}.{module_name}"]
        for fn_name in functions:
            original = getattr(module, fn_name)
            wrapped = tracer.wrap(f"{module_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    return tracer


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer figures of one traced run, keyed by metric name."""
    inc = tracer.inclusive
    solves = tracer.calls.get("steady.solve_steady_state", 0)
    metrics = {
        "steady.solves": solves,
        "steady.solve_s": inc.get("steady.solve_steady_state", 0.0),
        "steady.useful_ratio": len(tracer.operating_points) / solves if solves else 1.0,
        "response.kernel_points": tracer.kernel_points,
        "response.kernel_s": sum(inc.get(name, 0.0) for name in KERNEL),
        "response.transmission_s": inc.get("response.transmission", 0.0),
        "response.maxima_s": inc.get("response.transmission_maxima", 0.0),
        "response.group_delay_s": inc.get("response.group_delay", 0.0),
        "sweep.run_sweep_s": inc.get("sweep.run_sweep", 0.0),
        "sweep.render_s": inc.get("sweep.render_table", 0.0),
        "timedomain.integrate_s": inc.get("timedomain.integrate", 0.0),
        "timedomain.samples": tracer.samples,
        "timedomain.demodulate_s": inc.get("timedomain.demodulate", 0.0),
        "linsys.solves": tracer.calls.get("linsys.solve_sidebands", 0),
        "linsys.solve_s": inc.get("linsys.solve_sidebands", 0.0),
    }
    for fn_name in TRACED["validate"][1:]:
        metrics[f"validate.{fn_name.removeprefix('check_')}_s"] = inc.get(f"validate.{fn_name}", 0.0)
    metrics["trace.layer_share"] = sum(tracer.self_time.values()) / run_s
    return metrics
