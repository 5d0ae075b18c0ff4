#!/usr/bin/env python3
"""Benchmark runner for sheetlab: time to verdict on four paper workloads.

    python3 perfbench/run.py --workload weak-transport --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the package is imported from ``src/`` next to
this directory and nowhere else.  One process, one client, closed loop: a
unit starts when the previous one returns.

--trace 0 prints the end-to-end metrics (setup_s, wall_s, unit_ms_p50,
peak_rss_mb) and the failed share; --trace 1 alternates traced and untraced
verdicts and prints the per-layer metrics of tracing.LAYER_METRICS.  The last
line of standard output is one JSON object {correct, attempted, failed,
metrics}.  The full result (fingerprint, sample counts, every unit's outputs,
spans) goes to perfbench/out/.  At the default seed every unit is compared
with perfbench/golden/<workload>.json at 1e-12 absolute; at any other seed
every repeat of a verdict is compared with the first one.
"""

import os

# A plain single-threaded baseline: pinned before numpy can start a BLAS pool.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYER_METRICS, NullTracer, Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
OUT = HERE / "out"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
TOLERANCE = 1e-12  # the ROADMAP's refactor tolerance, absolute
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("unit_ms_p50", "ms"), ("peak_rss_mb", "MB")]
WORKLOAD_NAMES = ["weak-transport", "grid-small-m", "control-scan", "ito-refine"]


def import_package() -> None:
    """Import sheetlab from this checkout's src/ and from nowhere else."""
    src = ROOT / "src"
    if not (src / "sheetlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {src / 'sheetlab'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import sheetlab

    if Path(sheetlab.__file__).resolve().parent != src / "sheetlab":
        raise SystemExit(f"perfbench: imported sheetlab from {sheetlab.__file__}, not {src}")


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); started = time.perf_counter(); "
    "import sheetlab; print(time.perf_counter() - started)"
)


def fresh_import_seconds() -> float:
    """Time to import sheetlab (numpy included) in a fresh interpreter."""
    probe = [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")]
    return float(subprocess.run(probe, capture_output=True, text=True, check=True).stdout)


def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of this checkout read from .git directly (no git process, no parent dirs)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def deviations(out, ref, path="") -> list:
    """Leaves of ``out`` that differ from ``ref``: numbers by more than TOLERANCE."""
    if isinstance(ref, dict) and isinstance(out, dict) and out.keys() == ref.keys():
        return [d for k in ref for d in deviations(out[k], ref[k], f"{path}/{k}")]
    if isinstance(ref, list) and isinstance(out, list) and len(out) == len(ref):
        return [d for k, (o, r) in enumerate(zip(out, ref)) for d in deviations(o, r, f"{path}/{k}")]
    if isinstance(ref, bool) or isinstance(out, bool):
        return [] if out is ref else [f"{path}: {out} != {ref}"]
    if isinstance(ref, (int, float)) and isinstance(out, (int, float)):
        return [] if abs(out - ref) <= TOLERANCE else [f"{path}: {out!r} != {ref!r}"]
    return [] if out == ref else [f"{path}: {out!r} != {ref!r}"]


def non_finite(out, path="") -> list:
    if isinstance(out, dict):
        return [p for k, v in out.items() for p in non_finite(v, f"{path}/{k}")]
    if isinstance(out, list):
        return [p for k, v in enumerate(out) for p in non_finite(v, f"{path}/{k}")]
    if isinstance(out, float) and not math.isfinite(out):
        return [f"{path}: non-finite {out}"]
    return []


def run_verdict(workload, tr) -> dict:
    """One pass over every unit, then the paper checks; timed as one verdict."""
    outs, problems, unit_seconds = {}, {}, []
    started = time.perf_counter()
    for key in workload.units:
        unit_started = time.perf_counter()
        try:
            outs[key] = workload.run_unit(key, tr)
        except Exception as exc:  # a unit that raises is a failed unit, not a dead benchmark
            problems[key] = [f"raised {exc!r}"]
        unit_seconds.append(time.perf_counter() - unit_started)
    for key, out in outs.items():
        problems[key] = non_finite(out) or workload.unit_problems(out)
    margins = {}
    if len(outs) == len(workload.units):
        for key, msgs in workload.verdict_problems(outs).items():
            problems[key] += msgs
        margins = workload.margins(outs)
    else:
        for key in outs:
            problems[key].append("verdict incomplete: another unit raised")
    return {
        "seconds": time.perf_counter() - started,
        "unit_seconds": unit_seconds,
        "outputs": {str(k): v for k, v in outs.items()},
        "problems": {str(k): v for k, v in problems.items()},
        "margins": margins,
    }


def measure(workload, seconds: float, trace: bool, golden):
    """Verdicts until the next one would overrun ``seconds`` (at least one; two
    when tracing, so that a traced and an untraced verdict can be compared)."""
    tracer, null = Tracer(), NullTracer()
    verdicts = []
    started = time.perf_counter()
    while True:
        traced = trace and len(verdicts) % 2 == 0
        verdict = run_verdict(workload, tracer if traced else null)
        verdict["traced"] = traced
        reference = golden if golden is not None else verdicts[0]["outputs"] if verdicts else None
        if reference is not None:
            for key, out in verdict["outputs"].items():
                verdict["problems"][key] += deviations(out, reference.get(key))
        verdicts.append(verdict)
        elapsed = time.perf_counter() - started
        if elapsed + verdict["seconds"] > seconds and (not trace or len(verdicts) >= 2):
            return verdicts, tracer


def metric(value, unit, samples) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def run_workload(workload_cls, seed: int, seconds: float, trace: bool, golden_file=None, tiny=False):
    """Set up SETUP_REPEATS times (a fresh-interpreter import, inputs, golden
    outputs, one untimed warm-up unit), then measure.  Returns the full result."""
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = fresh_import_seconds()
        started = time.perf_counter()
        workload = workload_cls(seed, tiny=tiny)
        reference = json.loads(golden_file.read_text()) if golden_file else None
        workload.run_unit(workload.units[0], NullTracer())
        setups.append(import_s + time.perf_counter() - started)

    verdicts, tracer = measure(workload, seconds, trace, reference)
    plain = [v for v in verdicts if not v["traced"]]
    attempted = sum(len(v["problems"]) for v in verdicts)
    failed = sum(bool(msgs) for v in verdicts for msgs in v["problems"].values())
    units = [s for v in plain for s in v["unit_seconds"]]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "wall_s": metric(statistics.median(v["seconds"] for v in plain), "s", len(plain)),
        "unit_ms_p50": metric(statistics.median(units) * 1e3, "ms", len(units)),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "failed_share": metric(failed / attempted, "ratio", attempted),
    }
    if trace:
        traced = [v for v in verdicts if v["traced"]]
        layers = layer_metrics(tracer.spans, len(traced))
        layers["trace.wall_s"] = statistics.median(v["seconds"] for v in traced)
        layers["trace.overhead_share"] = layers["trace.wall_s"] / metrics["wall_s"]["value"] - 1
        metrics.update((name, metric(layers[name], unit, len(traced))) for name, unit in LAYER_METRICS)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "units_per_verdict": len(workload.units),
        "verdicts": len(verdicts),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": [f"{k}: {m}" for v in verdicts for k, ms in v["problems"].items() for m in ms],
        "verdict_seconds": [v["seconds"] for v in verdicts],
        "unit_seconds": [v["unit_seconds"] for v in verdicts],
        "margins": verdicts[0]["margins"],
        "outputs": verdicts[0]["outputs"],
        "spans": [s.to_json() for s in tracer.spans],
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_package()
    from workloads import WORKLOADS

    golden_file = GOLDEN / f"{args.workload}.json" if args.seed == DEFAULT_SEED else None
    if golden_file and not golden_file.is_file():
        raise SystemExit(f"perfbench: missing golden outputs {golden_file}")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), golden_file)
    result["fingerprint"] = fingerprint()

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1))

    names = [name for name, _ in (LAYER_METRICS if args.trace else END_TO_END)]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {result['verdicts']} verdicts "
          f"x {result['units_per_verdict']} units; full result in {out_file.relative_to(ROOT)}")
    print("# " + ", ".join(f"{k}={v}" for k, v in result["fingerprint"].items()))
    for problem in result["problems"][:20]:
        print(f"# FAILED {problem}")
    for name, value in result["margins"].items():
        print(f"# margin {name} = {value:.6g}")
    for name in names + ["failed_share"]:
        m = result["metrics"][name]
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    metrics = {name: {k: result["metrics"][name][k] for k in ("value", "unit")} for name in names}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
