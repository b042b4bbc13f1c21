"""The three benchmark workloads: inputs from a seed, and one round of work.

A round is a fixed list of operations; every round of a run repeats the same
inputs, so every run attempts whole rounds of the same operations. Each
operation is timed on its own and checked right after, outside the timed
part, against the independent oracles in ``oracle.py``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from tracer import Tracer, add_raw

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: seconds a single CLI child may take before the round fails
CHILD_TIMEOUT = 150
#: the reference kernel: its steps, its repeats per measurement, and the
#: seconds that timings are scaled to (about its median reading on the
#: machine of README.md's figures)
REFERENCE_STEPS = 1000
REFERENCE_REPEATS = 2
REFERENCE_SECONDS = 1e-3


@dataclass
class Round:
    """One round: the kind ("op", "heavy" or "other") and seconds of each
    operation, and the reference kernel's seconds before each operation and
    after the last one."""

    times: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    raw: dict | None = None

    @property
    def seconds(self) -> float:
        return sum(t for _, t in self.times)

    def finish(self) -> "Round":
        self.refs.append(reference_seconds())
        return self

    def scaled(self) -> list:
        """Each operation's (kind, seconds) at the reference speed.

        An operation's time is scaled by REFERENCE_SECONDS over the mean of
        the reference times measured just before and just after it. A round
        that timed no reference (cli-session) keeps its raw times.
        """
        if not self.refs:
            return list(self.times)
        return [
            (kind, t * 2.0 * REFERENCE_SECONDS / (self.refs[i] + self.refs[i + 1]))
            for i, (kind, t) in enumerate(self.times)
        ]


class _Body:
    __slots__ = ("x", "y", "vx", "vy")

    def __init__(self, x, y, vx, vy) -> None:
        self.x, self.y, self.vx, self.vy = x, y, vx, vy


def _reference_kernel() -> float:
    """A fixed piece of pure-Python float work that allocates an object per
    step, like the program's inner loops; nothing in src/ can change its cost."""
    body, bodies = _Body(0.3, 0.1, 0.2, 0.5), []
    for i in range(REFERENCE_STEPS):
        ch, sh = math.cosh(1e-3 * i), math.sinh(1e-3 * i)
        body = _Body(body.x * ch + body.vx * sh, body.y * ch + body.vy * sh, body.vx, body.vy)
        bodies.append(body)
    return math.sqrt(body.x * body.x + body.y * body.y)


def reference_seconds() -> float:
    """Least wall time of REFERENCE_REPEATS runs of the reference kernel.

    The garbage collector is off while it runs, so the size of the program's
    heap cannot change the reference.
    """
    best, enabled = math.inf, gc.isenabled()
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            _reference_kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def child_env() -> dict:
    """Environment of every child: the checkout's src/ and nothing installed."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "BILLIARDBOOK_OUT")}
    env["PYTHONPATH"] = str(SRC)
    return env


def random_state(rng: random.Random, sheet: int = 1):
    """A state drawn as in the acceptance suite: r <= 0.95, |v_i| <= 1.5."""
    from billiardbook import PhaseState

    r = 0.95 * math.sqrt(rng.random())
    ang = rng.uniform(0.0, 2.0 * math.pi)
    vx, vy = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
    return PhaseState(sheet, r * math.cos(ang), r * math.sin(ang), vx, vy)


def rotated(state, angle: float, sheet: int):
    """state turned by angle about the center and put on sheet; H and F are kept."""
    from billiardbook import PhaseState

    c, s = math.cos(angle), math.sin(angle)
    return PhaseState(
        sheet,
        c * state.x - s * state.y,
        s * state.x + c * state.y,
        c * state.vx - s * state.vy,
        s * state.vx + c * state.vy,
    )


def _peak_rss_mb(who: int) -> float:
    # Linux reports ru_maxrss in KiB; for RUSAGE_CHILDREN it is the largest child
    return resource.getrusage(who).ru_maxrss / 1024.0


def _start_hf(k, state):
    return (
        oracle.energy(k, state.x, state.y, state.vx, state.vy),
        oracle.angular_momentum(state.x, state.y, state.vx, state.vy),
    )


class _Timer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.seconds = None

    def stop(self) -> None:
        self.seconds = time.perf_counter() - self.t0


@contextmanager
def _operation(out: Round, kind: str):
    """Time one in-process operation of kind "op", "heavy" or "other".

    "op" times are the principal operations behind op_mean_s; "heavy" times
    add up to heavy_s. No operation may fail at this commit, so a library
    error fails the run's check instead of being counted and left out of the
    timings.
    """
    from billiardbook import ConvergenceError, ValidationError

    out.refs.append(reference_seconds())
    timer = _Timer()
    try:
        yield timer
    except (ValidationError, ConvergenceError) as exc:
        raise oracle.CheckFailed(f"operation raised {type(exc).__name__}: {exc}") from exc
    out.times.append((kind, timer.seconds))


class Verifier:
    """Checks each operation's output in full once per run, then its sameness.

    The oracle check of a long orbit costs more than the orbit itself. Every
    round repeats the same inputs, so the first output of each operation is
    checked in full against the oracles, and a later output that hashes the
    same as that checked output is the same output again. Any other output,
    or one that cannot be hashed, is checked in full.
    """

    def __init__(self) -> None:
        self._checked: dict = {}

    def verify(self, key, output, check) -> None:
        try:
            digest = hash(tuple(output) if isinstance(output, list) else output)
        except TypeError:
            digest = None
        if digest is None or self._checked.get(key) != digest:
            check()
            if digest is not None:
                self._checked[key] = digest


@contextmanager
def _tracing(out: Round, traced: bool):
    """Install the per-layer wrappers around a traced in-process round."""
    if not traced:
        yield
        return
    tracer = Tracer()
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
    out.raw = tracer.raw()


# ---------------------------------------------------------------------------


class LongOrbits:
    """In-process simulate() over a seeded batch plus one 1e5-reflection orbit."""

    name = "long-orbits"
    import_module = "billiardbook"
    KS = (-0.25, -1.0, -4.0)
    SHEETS = (1, 2, 3, 5)
    #: reflection-stopped runs per (k, n), and their length
    PER_TABLE = 2
    BATCH_REFLECTIONS = 1500
    #: one time-stopped run per k, on two sheets, lasting about this many periods
    TIMED_PERIODS = 500
    #: the heavy part, one long orbit: k, n, reflections
    LONG = (-1.0, 3, 100_000)
    #: the long orbit's shape, drawn from this fixed seed; the run's seed only
    #: turns it and picks its sheet. Its cost per reflection depends on the
    #: shape alone and ranges over +-15% between drawn shapes, which as the
    #: bulk of a round's time would make heavy_s follow the seed.
    LONG_SHAPE_SEED = 0

    def __init__(self) -> None:
        self.verifier = Verifier()

    def generate(self, seed: int) -> dict:
        from billiardbook import BookTable

        rng = random.Random(seed)
        batch = []
        for k in self.KS:
            for n in self.SHEETS:
                table = BookTable(k=k, sheets=n)
                for _ in range(self.PER_TABLE):
                    state = random_state(rng, rng.randint(1, n))
                    batch.append((table, state, self.BATCH_REFLECTIONS, None))
            table = BookTable(k=k, sheets=2)
            state = random_state(rng, rng.randint(1, 2))
            t_r, _ = oracle.period_advance(k, *_start_hf(k, state))
            batch.append((table, state, None, (self.TIMED_PERIODS + 0.5) * t_r))
        k, n, reflections = self.LONG
        table = BookTable(k=k, sheets=n)
        shape = random_state(random.Random(self.LONG_SHAPE_SEED))
        start = rotated(shape, rng.uniform(0.0, 2.0 * math.pi), rng.randint(1, n))
        return {"batch": batch, "long": (table, start, reflections, None)}

    def run_round(self, inputs: dict, traced: bool) -> Round:
        from billiardbook import dynamics

        out = Round()
        ops = [("op", *op) for op in inputs["batch"]] + [("heavy", *inputs["long"])]
        with _tracing(out, traced):
            for i, (kind, table, start, max_reflections, max_time) in enumerate(ops):
                with _operation(out, kind) as op:
                    segments = dynamics.simulate(
                        table, start, max_reflections=max_reflections, max_time=max_time
                    )
                    op.stop()
                    self.verifier.verify(i, segments, lambda: oracle.check_orbit(
                        table.k, table.sheets, start, segments, max_reflections, max_time
                    ))
                    del segments
        return out.finish()

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------


class MonodromySweep:
    """continue_theta + molecule_labels over loops, period oracle grid, center limit."""

    name = "monodromy-sweep"
    import_module = "billiardbook"
    KS = (-1.0, -4.0)
    SHEETS = (1, 2, 3, 4, 5)
    #: inner radii of the loops, each jittered by the seed within +-C_JITTER
    C_CENTERS = (0.3, 0.5, 0.7)
    C_JITTER = 0.04
    #: every (k, n, c) at the default resolution, the middle c also refined
    PPA = 64
    REFINED_PPA = 256
    #: f_max = F_MAX_FACTOR * c * sqrt(-k) > c * sqrt(-k) keeps (0, 0) inside
    F_MAX_FACTOR = 1.6
    #: the heavy part: quadrature against simulated periods on a grid at k = -1,
    #: n = 2, h from -0.3 and f from 0.1 (all regular values)
    GRID_H = (6, 0.2)
    GRID_F = (5, 0.08)
    CENTER_SHEETS = (1, 3)

    def __init__(self) -> None:
        self.verifier = Verifier()

    def generate(self, seed: int) -> dict:
        from billiardbook import BookTable, loop_around_origin

        rng = random.Random(seed)
        loops = []
        for k in self.KS:
            for n in self.SHEETS:
                table = BookTable(k=k, sheets=n)
                cs = [c + rng.uniform(-self.C_JITTER, self.C_JITTER) for c in self.C_CENTERS]
                specs = [(c, self.PPA) for c in cs] + [(cs[1], self.REFINED_PPA)]
                for c, ppa in specs:
                    f_max = self.F_MAX_FACTOR * c * math.sqrt(-k)
                    loops.append(
                        (table, loop_around_origin(table, c=c, f_max=f_max, points_per_arc=ppa))
                    )
        grid_table = BookTable(k=-1.0, sheets=2)
        uh, uf = rng.random(), rng.random()
        grid = [
            (-0.3 + (j + uh) * self.GRID_H[1], 0.1 + (i + uf) * self.GRID_F[1])
            for j in range(self.GRID_H[0])
            for i in range(self.GRID_F[0])
        ]
        centers = [(BookTable(k=-1.0, sheets=n), rng.uniform(0.3, 0.7)) for n in self.CENTER_SHEETS]
        return {"loops": loops, "grid_table": grid_table, "grid": grid, "centers": centers}

    def run_round(self, inputs: dict, traced: bool) -> Round:
        from billiardbook import monodromy

        out, verify = Round(), self.verifier.verify
        with _tracing(out, traced):
            for i, (table, loop) in enumerate(inputs["loops"]):
                with _operation(out, "op") as op:
                    report = monodromy.continue_theta(table, loop)
                    neg = monodromy.molecule_labels(table, -1, report=report)
                    pos = monodromy.molecule_labels(table, +1, report=report)
                    op.stop()
                    verify(("loop", i), (report, neg, pos), lambda: oracle.check_monodromy(
                        table.k, table.sheets, report, neg, pos
                    ))
            table = inputs["grid_table"]
            for i, (h, f) in enumerate(inputs["grid"]):
                with _operation(out, "heavy") as op:
                    quad = monodromy.radial_period_quadrature(table, h, f)
                    sim = monodromy.radial_period_simulated(table, h, f)
                    op.stop()
                    verify(("grid", i), (quad, sim), lambda: oracle.check_simulated_period(
                        table.k, table.sheets, quad, sim
                    ))
            for i, (table, h) in enumerate(inputs["centers"]):
                with _operation(out, "other") as op:
                    limit = monodromy.theta_center_limit(table, h)
                    op.stop()
                    verify(("center", i), limit, lambda: oracle.check_center_limit(
                        table.sheets, limit
                    ))
        return out.finish()

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------


@dataclass
class Command:
    """One CLI invocation, the output subdirectory it writes, and its check."""

    label: str
    args: list
    out: str
    check: object  # callable(read: name -> file text, stdout: str) -> None


class CliSession:
    """Sequential `python -m billiardbook.cli` children, one at a time.

    Its rounds time no reference kernel, so its timings stay raw. The kernel
    runs in this process, and for a child of a few seconds two timings of it
    around the child did not follow the child: over 108 runs of the
    `simulate --svg` child, scaling widened the coefficient of variation from
    0.155 (raw) to 0.222.
    """

    name = "cli-session"
    import_module = "billiardbook.cli"
    K = -1.0
    SIM_REFLECTIONS = 2000
    SAMPLES_PER_SEGMENT = 16
    #: the --time run lasts about this many radial periods
    TIMED_PERIODS = 200
    GRID_RESOLUTION = 201
    DIAGRAM_RESOLUTION = 201
    MONODROMY_SHEETS = 3
    #: the heavy op: the invocation that writes the big CSV and SVG
    HEAVY = "simulate --svg"

    def __init__(self) -> None:
        self.work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
        self.verifier = Verifier()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def generate(self, seed: int) -> list[Command]:
        rng = random.Random(seed)
        k, samples = self.K, self.SAMPLES_PER_SEGMENT
        n = rng.randint(2, 5)
        sim_seed = rng.randrange(1_000_000)
        start = random_state(rng)
        t_r, _ = oracle.period_advance(k, *_start_hf(k, start))
        max_time = float(f"{(self.TIMED_PERIODS + 0.5) * t_r:.6f}")
        h_c, f_c = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        lam, mu = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        h_r, f_r = rng.uniform(0.05, 0.95), rng.uniform(0.1, 0.9)
        c = rng.uniform(0.4, 0.6)
        n_m = self.MONODROMY_SHEETS
        res = self.GRID_RESOLUTION
        sim_csv = self.work / "simulate" / "trajectory.csv"
        kn = ["-k", repr(k), "-n", str(n)]

        def sim_check(read, _):
            csv_text = read("trajectory.csv")
            oracle.check_trajectory_csv(csv_text, k, n, samples, reflections=self.SIM_REFLECTIONS)
            oracle.check_orbit_svg(read("orbit.svg"), self.SIM_REFLECTIONS)

        def time_check(read, _):
            oracle.check_trajectory_csv(read("trajectory.csv"), k, 2, samples, max_time=max_time)

        def diagram_check(read, _):
            oracle.check_diagram_csv(read("diagram.csv"), k, self.DIAGRAM_RESOLUTION, -1.5, 1.5)
            oracle.check_diagram_svg(read("diagram.svg"), self.DIAGRAM_RESOLUTION)

        def mono_check(read, _):
            doc = json.loads(read("monodromy.json"))
            oracle.check_monodromy_files(doc, read("continuation.csv"), k, n_m)

        initial = ["--initial", *(repr(v) for v in (start.x, start.y, start.vx, start.vy))]
        sim_args = ["--seed", str(sim_seed), "--reflections", str(self.SIM_REFLECTIONS), "--svg"]
        replot = self.work / "plot" / "orbit.svg"
        plot_args = ["--trajectory", str(sim_csv), "--output", str(replot)]
        return [
            Command(self.HEAVY, ["simulate", *kn, *sim_args], "simulate", sim_check),
            Command(
                "simulate --time",
                ["simulate", "-k", repr(k), "-n", "2", *initial, "--time", repr(max_time)],
                "time",
                time_check,
            ),
            Command("diagram --svg", ["diagram", "-k", repr(k), "--svg"], "diagram", diagram_check),
            Command(
                "classify --grid",
                ["classify", *kn, "--grid", "--resolution", str(res)],
                "grid",
                lambda read, _: oracle.check_classification_csv(
                    read("classification.csv"), k, n, res
                ),
            ),
            Command(
                "classify",
                ["classify", *kn, "--h", repr(h_c), "--f", repr(f_c)],
                "classify",
                lambda _, out: oracle.check_classify_single(json.loads(out), k, n, h_c, f_c),
            ),
            Command(
                "eigen",
                ["eigen", "-k", repr(k), "--lam", repr(lam), "--mu", repr(mu)],
                "eigen",
                lambda read, _: oracle.check_spectrum(
                    json.loads(read("spectrum.json")), k, lam, mu
                ),
            ),
            Command(
                "rotation --compare-sim",
                ["rotation", *kn, "--h", repr(h_r), "--f", repr(f_r), "--compare-sim"],
                "rotation",
                lambda _, out: oracle.check_rotation(json.loads(out), k, n, h_r, f_r),
            ),
            Command(
                "monodromy",
                ["monodromy", "-k", repr(k), "-n", str(n_m), "--c", repr(c),
                 "--f-max", repr(1.6 * c)],
                "monodromy",
                mono_check,
            ),
            Command(
                "plot",
                ["plot", *plot_args],
                "plot",
                lambda read, _: oracle.check_orbit_svg(read("orbit.svg"), self.SIM_REFLECTIONS),
            ),
        ]

    def run_round(self, commands: list[Command], traced: bool) -> Round:
        out = Round(raw={} if traced else None)
        env = child_env()
        for i, cmd in enumerate(commands):
            out_dir = self.work / cmd.out
            out_dir.mkdir(parents=True, exist_ok=True)
            if traced:
                trace_file = self.work / f"trace-{i}.json"
                argv = [sys.executable, str(BENCH / "launcher.py"), str(trace_file)]
            else:
                argv = [sys.executable, "-m", "billiardbook.cli"]
            argv += ["--out-dir", str(out_dir), *cmd.args]
            t0 = time.perf_counter()
            proc = subprocess.run(
                argv, env=env, cwd=self.work, capture_output=True, text=True, timeout=CHILD_TIMEOUT
            )
            dt = time.perf_counter() - t0
            if proc.returncode != 0:
                raise oracle.CheckFailed(f"{cmd.label}: exit {proc.returncode}: {proc.stderr}")
            files = tuple((p.name, p.read_bytes()) for p in sorted(out_dir.iterdir()))
            self.verifier.verify(i, (proc.stdout, files), lambda: cmd.check(
                lambda name: (out_dir / name).read_text(), proc.stdout
            ))
            out.times.append(("heavy" if cmd.label == self.HEAVY else "op", dt))
            if traced:
                out.raw = add_raw(out.raw, json.loads(trace_file.read_text()))
        return out

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(resource.RUSAGE_CHILDREN)


WORKLOADS = {w.name: w for w in (LongOrbits, MonodromySweep, CliSession)}
