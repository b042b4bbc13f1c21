"""Benchmark command for billiardbook, measuring the src/ tree of this checkout.

    python3 bench/run.py --workload long-orbits --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30            # every workload in turn

One run sets up SETUP_REPEATS times (a fresh interpreter importing the
package, plus input generation from --seed), then repeats whole rounds of the
workload's operations until --seconds have passed. Every output is checked
against the independent oracles in oracle.py; a failed check exits 1 with
"correct": false. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of untraced rounds, each in-process operation timed at the speed of
a fixed reference kernel measured beside it; --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics plus the tracing overhead.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import CheckFailed
from tracer import layer_metrics
from workloads import CHILD_TIMEOUT, SRC, WORKLOADS, child_env

#: default --seconds, the run_seconds of BENCHMARK.json
RUN_SECONDS = 30
#: set-up is measured this many times per run; setup_s is the median of the
#: raw wall times. Scaled by the reference kernel as per_operation scales the
#: operations, its ten-seed spread grew: a set-up is a child process of about
#: a second, and two kernel timings around it do not follow it.
SETUP_REPEATS = 5
#: bare-interpreter and -X importtime probes of a traced run, medians reported
PROBE_REPEATS = 5


def _in_checkout(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def fresh_import_seconds(module: str) -> float:
    """Wall time of a fresh interpreter importing module from this checkout."""
    code = f"import {module}, billiardbook; print(billiardbook.__file__)"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0 or not _in_checkout(proc.stdout.strip()):
        raise SystemExit(f"fresh import of {module} failed or left the checkout: {proc.stderr}")
    return seconds


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(package, scipy) cumulative import seconds from ``-X importtime`` output.

    The package figure sums the top-level billiardbook entries; the scipy
    figure sums the scipy entries not nested under another scipy entry.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name_field = parts[2].rstrip()
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        entries.append((depth, name_field.strip(), int(parts[1]) * 1e-6))
    package = sum(s for d, name, s in entries if d == 0 and name.split(".")[0] == "billiardbook")
    scipy = [(d, s) for d, name, s in entries if name.split(".")[0] == "scipy"]
    top = min((d for d, _ in scipy), default=0)
    return package, sum(s for d, s in scipy if d == top)


def import_probe(module: str) -> dict:
    """cli.interpreter_s, cli.import_s and cli.import_scipy_s as medians."""
    bare, package, scipy = [], [], []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "pass"], env=child_env(), check=True, timeout=CHILD_TIMEOUT
        )
        bare.append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {module}"],
            env=child_env(), capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT,
        )
        p, s = parse_importtime(proc.stderr)
        package.append(p)
        scipy.append(s)
    return {
        "cli.interpreter_s": (statistics.median(bare), "s"),
        "cli.import_s": (statistics.median(package), "s"),
        "cli.import_scipy_s": (statistics.median(scipy), "s"),
    }


def per_operation(rounds: list) -> list:
    """Each operation's kind and median time at the reference speed over the
    run's rounds; every round runs the same operations in the same order.

    Other tenants of the machine slow everything in it by up to 1.9x, in
    bursts that last from seconds to more than a 30-s run. Each operation's
    time is therefore scaled by the reference kernel timed beside it (see
    workloads.Round.scaled). The kernel follows the bursts closely for
    in-process work, and no change to src/ can move it. It does not follow
    a CLI child, so cli-session rounds keep their raw times.
    """
    columns = zip(*(r.scaled() for r in rounds))
    return [(column[0][0], statistics.median(t for _, t in column)) for column in columns]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import billiardbook

    if not _in_checkout(billiardbook.__file__):
        raise SystemExit(f"billiardbook imported from {billiardbook.__file__}, not from {SRC}")
    workload = WORKLOADS[name]()
    rounds, untraced = [], []
    # every operation that fails raises CheckFailed, so none is counted as failed
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t_import = fresh_import_seconds(workload.import_module)
            t0 = time.perf_counter()
            inputs = workload.generate(seed)
            setups.append(t_import + time.perf_counter() - t0)
        probe = import_probe(workload.import_module) if trace else {}
        start = time.perf_counter()
        while True:
            if trace:
                untraced.append(workload.run_round(inputs, False))
            rounds.append(workload.run_round(inputs, trace))
            if time.perf_counter() - start >= seconds:
                break
    except CheckFailed as exc:
        print(f"CHECK FAILED ({name}): {exc}", file=sys.stderr)
        result["correct"] = False
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    result["attempted"] = max(1, sum(len(r.times) for r in rounds + untraced))
    if not result["correct"]:
        return result

    def median(values):
        return statistics.median(values) if values else 0.0

    if trace:
        per_round = [layer_metrics(r.raw) for r in rounds]
        metrics = {
            key: (median([m[key][0] for m in per_round]), unit)
            for key, (_, unit) in per_round[0].items()
        }
        metrics.update(probe)
        traced_s = median([r.seconds for r in rounds])
        untraced_s = median([r.seconds for r in untraced])
        metrics["trace.traced_round_s"] = (traced_s, "s")
        metrics["trace.untraced_round_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    else:
        ops = per_operation(rounds)
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (math.fsum(t for _, t in ops), "s"),
            "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
            "op_mean_s": (statistics.fmean(t for kind, t in ops if kind == "op"), "s"),
            "heavy_s": (math.fsum(t for kind, t in ops if kind == "heavy"), "s"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def run_all(args) -> int:
    """Run every workload in its own process, one after another, and summarise."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        results[name] = result
        code = code or proc.returncode
        print(
            f"{name}: correct={result.get('correct')} attempted={result.get('attempted')} "
            f"failed={result.get('failed')}"
        )
        for metric, entry in result.get("metrics", {}).items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "billiardbook" / "__init__.py").is_file():
        print(f"error: no billiardbook package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
