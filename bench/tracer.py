"""Per-layer tracing for the billiardbook benchmark, installed from outside src/.

``Tracer.install()`` replaces selected public functions of the package's
modules with wrappers that count calls and accumulate inclusive wall time.
Every module attribute bound to the original function object is replaced,
so calls through ``from .dynamics import simulate`` style imports and calls
inside the defining module are both seen. ``uninstall()`` restores the
originals. Helpers called once per number (``io.fmt``) are left unwrapped to
keep the overhead small.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

#: the functions wrapped, by module; keys in the raw record are "module.function"
TRACED = {
    "dynamics": ("simulate", "time_to_boundary", "flow_free", "reflect", "sample_segment"),
    "momentum": ("momentum_map", "classify_fiber"),
    "monodromy": ("radial_period_quadrature", "radial_period_simulated", "continue_theta"),
    "linearization": ("pencil_eigenvalues",),
    "io": (
        "write_trajectory_csv",
        "read_trajectory_csv",
        "write_orbit_svg",
        "write_diagram_csv",
        "write_diagram_svg",
        "write_continuation_csv",
        "write_json",
    ),
}
CLI_COMMANDS = ("simulate", "diagram", "classify", "eigen", "rotation", "monodromy", "plot")
QUADRATURE = "monodromy.radial_period_quadrature"
OTHER_WRITERS = ("write_diagram_csv", "write_diagram_svg", "write_continuation_csv", "write_json")


class Tracer:
    """Call counts, inclusive seconds and a few layer-specific counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self._saved: list = []

    def _wrap(self, key: str, fn):
        calls, seconds, extra, clock = self.calls, self.seconds, self.extra, time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - t0
                calls[key] += 1

        if key == "dynamics.simulate":

            def traced(*args, **kwargs):
                segments = timed(*args, **kwargs)
                extra["reflections"] += sum(1 for seg in segments if seg.reflected)
                return segments

        elif key == "monodromy.continue_theta":

            def traced(*args, **kwargs):
                before = calls[QUADRATURE]
                report = timed(*args, **kwargs)
                extra["continuation_quadratures"] += calls[QUADRATURE] - before
                extra["kept_samples"] += len(report.samples)
                return report

        elif key in ("io.write_trajectory_csv", "io.write_orbit_svg"):
            counter = key.split("_", 1)[1] + "_bytes"

            def traced(path, *args, **kwargs):
                timed(path, *args, **kwargs)
                extra[counter] += os.path.getsize(path)

        else:
            return timed
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "billiardbook"]
        for module_name, names in TRACED.items():
            home = sys.modules.get(f"billiardbook.{module_name}")
            if home is None:  # not imported by this process, so never called
                continue
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        cli = sys.modules.get("billiardbook.cli")
        if cli is not None:
            for name in CLI_COMMANDS:
                original = cli._COMMANDS[name]
                self._saved.append((cli._COMMANDS, name, original))
                cli._COMMANDS[name] = self._wrap(f"cli.{name}", original)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._saved.clear()

    def raw(self) -> dict:
        return {"calls": dict(self.calls), "seconds": dict(self.seconds), "extra": dict(self.extra)}


def add_raw(total: dict, part: dict) -> dict:
    """Sum two raw records (from several CLI children of one round)."""
    out = {}
    for field in ("calls", "seconds", "extra"):
        merged = Counter()
        for record in (total, part):
            for key, value in record.get(field, {}).items():
                merged[key] += value
        out[field] = dict(merged)
    return out


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics (value, unit) of one round, from a raw record."""
    calls = raw.get("calls", {})
    secs = raw.get("seconds", {})
    extra = raw.get("extra", {})

    def c(key):
        return (calls.get(key, 0), "count")

    def s(key):
        return (secs.get(key, 0.0), "s")

    quads = extra.get("continuation_quadratures", 0)
    out = {
        "dynamics.simulate_s": s("dynamics.simulate"),
        "dynamics.reflections": (extra.get("reflections", 0), "count"),
    }
    for name in ("time_to_boundary", "flow_free", "reflect", "sample_segment"):
        out[f"dynamics.{name}_calls"] = c(f"dynamics.{name}")
        out[f"dynamics.{name}_s"] = s(f"dynamics.{name}")
    for name in ("momentum_map", "classify_fiber"):
        out[f"momentum.{name}_calls"] = c(f"momentum.{name}")
        out[f"momentum.{name}_s"] = s(f"momentum.{name}")
    out.update(
        {
            "monodromy.quadrature_calls": c("monodromy.radial_period_quadrature"),
            "monodromy.quadrature_s": s("monodromy.radial_period_quadrature"),
            "monodromy.continue_theta_s": s("monodromy.continue_theta"),
            "monodromy.samples_kept_ratio": (
                extra.get("kept_samples", 0) / quads if quads else 0.0,
                "ratio",
            ),
            "monodromy.simulated_period_calls": c("monodromy.radial_period_simulated"),
            "monodromy.simulated_period_s": s("monodromy.radial_period_simulated"),
            "linearization.pencil_s": s("linearization.pencil_eigenvalues"),
            "io.trajectory_csv_s": s("io.write_trajectory_csv"),
            "io.trajectory_csv_bytes": (extra.get("trajectory_csv_bytes", 0), "B"),
            "io.orbit_svg_s": s("io.write_orbit_svg"),
            "io.orbit_svg_bytes": (extra.get("orbit_svg_bytes", 0), "B"),
            "io.read_trajectory_csv_s": s("io.read_trajectory_csv"),
            "io.other_writers_s": (sum(secs.get(f"io.{w}", 0.0) for w in OTHER_WRITERS), "s"),
        }
    )
    for name in CLI_COMMANDS:
        out[f"cli.{name}_s"] = s(f"cli.{name}")
    return out
