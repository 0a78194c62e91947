#!/usr/bin/env python3
"""nptsub benchmark: certified constructions, suites and file I/O.

    python3 benchmarks/run.py --workload construct --seed 1 --seconds 30 --trace 0

Runs whole passes of the workload (see workloads.py) for about --seconds
seconds, checks every output, and prints a JSON report followed, on the
last line, by ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
passes alternate between untraced and traced (tracer.py) and the metrics
are the per-layer ones plus the tracing overhead.

BLAS runs single-threaded unless OPENBLAS_NUM_THREADS / OMP_NUM_THREADS /
MKL_NUM_THREADS say otherwise; more threads than CPUs is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 9
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2

END_TO_END = {
    "setup_s": "s",
    "direct_pass_s": "s",
    "dual_cone_pass_s": "s",
    "stress_trials_per_s": "1/s",
    "file_roundtrip_p50_ms": "ms",
    "file_roundtrip_p90_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linalg.eigh_calls": "count",
    "linalg.eigh_s": "s",
    "linalg.eigh_dim3_sum": "count",
    "linalg.eigh_complex_share": "share",
    "linalg.eigh_share": "share",
    "linalg.lstsq_calls": "count",
    "linalg.lstsq_s": "s",
    "sdp.direct_iterations": "count",
    "sdp.direct_s": "s",
    "sdp.direct_self_s": "s",
    "sdp.direct_eigh_per_iter": "count",
    "sdp.ppt_calls": "count",
    "sdp.ppt_iterations": "count",
    "sdp.ppt_s": "s",
    "sdp.ppt_self_s": "s",
    "sdp.decompose_calls": "count",
    "sdp.decompose_sweeps": "count",
    "sdp.decompose_s": "s",
    "sdp.certified_margin_min": "1",
    "bipartite.partial_transpose_calls": "count",
    "bipartite.partial_transpose_s": "s",
    "bipartite.count_negative_calls": "count",
    "bipartite.count_negative_s": "s",
    "bipartite.density_checks": "count",
    "bipartite.density_check_s": "s",
    "subspace.build_s": "s",
    "subspace.sample_s": "s",
    "subspace.witness_calls": "count",
    "subspace.witness_s": "s",
    "subspace.contains_calls": "count",
    "cli.save_s": "s",
    "cli.load_s": "s",
    "cli.verify_s": "s",
    "cli.doc_bytes": "bytes",
    "cli.suite_s": "s",
    "trace_overhead_share": "share",
}

#: Per-layer metrics measured as time; every other one must repeat exactly.
TIMED = {name for name, unit in PER_LAYER.items() if unit == "s"} | {
    "linalg.eigh_share", "trace_overhead_share"}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas_threads() -> int:
    """Default every BLAS thread variable to 1; refuse more than nproc."""
    cpus = nproc()
    for var in BLAS_ENV:
        value = os.environ.setdefault(var, "1")
        if not value.isdigit() or not 1 <= int(value) <= cpus:
            raise SystemExit(f"error: {var}={value!r}; BLAS threads must be 1..{cpus} (nproc)")
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, found through the process map."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        return {"name": None, "version": None}


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout; git would search the parent directories
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def setup_seconds(workload: str, seed: int, gauge) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, the gauge sampled
    around each."""
    times = []
    for _ in range(SETUP_PROBES):
        gauge.sample()
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                             capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def median(values):
    return statistics.median(values)


def layer_values(W, summary: dict, p) -> dict:
    """Per-layer metrics of one traced pass, from its span summary."""

    def get(name, key="calls"):
        return summary.get(name, {}).get(key, 0)

    def eigh(key):
        return get("numpy.eigh", key) + get("numpy.eigvalsh", key)

    def eigh_under(solver):
        return sum(summary.get(k, {}).get("calls_under", {}).get(solver, 0)
                   for k in ("numpy.eigh", "numpy.eigvalsh"))

    direct, ppt, dec = "sdp.solve_construction_sdp", "sdp.optimize_over_ppt", "sdp.decompose_dual_cone"
    calls = eigh("calls")
    iters = get(direct, "extra")
    margins = [op.margin for op in p.ops if op.margin is not None]
    return {
        "linalg.eigh_calls": calls,
        "linalg.eigh_s": eigh("s"),
        "linalg.eigh_dim3_sum": eigh("extra"),
        "linalg.eigh_complex_share": eigh("complex_calls") / calls if calls else 0.0,
        "linalg.eigh_share": eigh("s") / p.seconds(),
        "linalg.lstsq_calls": get("numpy.lstsq"),
        "linalg.lstsq_s": get("numpy.lstsq", "s"),
        "sdp.direct_iterations": iters,
        "sdp.direct_s": get(direct, "s"),
        "sdp.direct_self_s": get(direct, "self_s"),
        "sdp.direct_eigh_per_iter": eigh_under(direct) / iters if iters else 0.0,
        "sdp.ppt_calls": get(ppt),
        "sdp.ppt_iterations": get(ppt, "extra"),
        "sdp.ppt_s": get(ppt, "s"),
        "sdp.ppt_self_s": get(ppt, "self_s"),
        "sdp.decompose_calls": get(dec),
        "sdp.decompose_sweeps": get(dec, "extra"),
        "sdp.decompose_s": get(dec, "s"),
        "sdp.certified_margin_min": min(margins) if margins else 0.0,
        "bipartite.partial_transpose_calls": get("bipartite.partial_transpose"),
        "bipartite.partial_transpose_s": get("bipartite.partial_transpose", "s"),
        "bipartite.count_negative_calls": get("bipartite.count_negative_eigenvalues"),
        "bipartite.count_negative_s": get("bipartite.count_negative_eigenvalues", "s"),
        "bipartite.density_checks": get("bipartite.DensityMatrix"),
        "bipartite.density_check_s": get("bipartite.DensityMatrix", "s"),
        "subspace.sample_s": get("subspace.sample_mixture_in_subspace", "s"),
        "subspace.witness_calls": get("subspace.locate_witness"),
        "subspace.witness_s": get("subspace.locate_witness", "s"),
        "subspace.contains_calls": get("subspace.contains"),
        "cli.save_s": get("cli.save_matrix", "s"),
        "cli.load_s": get("cli.load_matrix", "s"),
        "cli.verify_s": get("cli.verify_matrix", "s"),
        "cli.doc_bytes": get("cli.save_matrix", "extra"),
        "cli.suite_s": get("cli.run_npt_suite", "s") + get("cli.run_bound_suite", "s"),
    }


def measure(W, wl, inp, seconds: float, workdir: Path, gauge=None, tracer=None):
    """Passes until ~seconds have gone by, the speed gauge ticking between
    ops.  With a tracer, passes alternate untraced / traced.  Returns
    (untraced passes, traced (pass, spans) list, wall time of every pass or pair)."""
    clock = time.perf_counter
    untraced, traced, walls = [], [], []
    minimum = MIN_PASSES if tracer is None else MIN_TRACED_PAIRS
    tick = gauge.tick if gauge is not None else None
    start = clock()
    while len(walls) < minimum or clock() - start + median(walls) <= seconds:
        t0 = clock()
        untraced.append(W.run_pass(wl, inp, workdir, tick))
        if gauge is not None:
            gauge.sample()
        if tracer is not None:
            tracer.install()
            try:
                p = W.run_pass(wl, inp, workdir)
            finally:
                tracer.uninstall()
            traced.append((p, tracer.take()))
        walls.append(clock() - t0)
    return untraced, traced, walls


def op_table(passes) -> dict:
    """Per op: sample count, median seconds, iterations, failures, first reason."""
    rows: dict[str, dict] = {}
    for p in passes:
        for op in p.ops:
            row = rows.setdefault(f"{op.kind} {op.label}", {
                "n": 0, "s": [], "iterations": op.iterations, "failed": 0, "why": "",
                "bracket": op.bracket})
            row["n"] += 1
            row["s"].append(op.s)
            if not op.ok:
                row["failed"] += 1
                row["why"] = row["why"] or op.why
    for row in rows.values():
        row["median_s"] = median(row.pop("s"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    try:
        import workloads as W
    except ImportError as exc:
        print(f"error: cannot import nptsub from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    actual_threads = blas_threads()
    if actual_threads is not None and actual_threads > nproc():
        print(f"error: BLAS runs {actual_threads} threads on {nproc()} CPUs", file=sys.stderr)
        return 2

    provenance = {
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": W.np.__version__,
        "blas": {**blas_info(W.np), "threads_requested": threads, "threads": actual_threads},
        "nproc": nproc(),
        "platform": platform.platform(),
        "workload": asdict(wl),
    }
    verdicts = W.self_test()
    errors = [f"self-test: {case} not detected" for case, ok in verdicts.items() if not ok]

    gauge = None if args.trace else W.SpeedGauge()
    setup = [] if args.trace else setup_seconds(wl.name, args.seed, gauge)
    tracer = None
    if args.trace:
        from tracer import Tracer, summarize

        tracer = Tracer(W.nptsub)
        tracer.install()
        try:
            inp = W.build_inputs(wl, args.seed)
        finally:
            tracer.uninstall()
        setup_summary = summarize(tracer.take())
    else:
        inp = W.build_inputs(wl, args.seed)

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        W.run_pass(W.warmup_workload(wl), inp, Path(tmp))
        untraced, traced, walls = measure(W, wl, inp, args.seconds, Path(tmp), gauge, tracer)
    passes = untraced + [p for p, _ in traced]

    reference = None
    if wl.rotated:
        reference = W.structured_reference(wl, args.seed)
        for p in passes:
            W.check_overlap(p.ops, reference)

    first = passes[0].signature()
    if any(p.signature() != first for p in passes):
        varying = sorted({f"{a[0]} {a[1]}" for p in passes
                          for a, b in zip(p.signature(), first) if a != b})
        errors.append(f"iterations, trials or verdicts differ between passes: "
                      f"{varying or 'the op lists differ'}")

    attempted = sum(len(p.ops) for p in passes)
    failed = sum(not op.ok for p in passes for op in p.ops)
    report = {
        "provenance": provenance,
        "self_test": verdicts,
        "passes": {"untraced": len(untraced), "traced": len(traced), "wall_s": walls},
        "ops": op_table(passes),
        "structured_reference": {f"{k[0]} {k[1]}": v for k, v in (reference or {}).items()},
    }

    if args.trace:
        per_pass = [layer_values(W, summarize(spans), p) for p, spans in traced]
        metrics = {}
        for name in PER_LAYER:
            if name in ("subspace.build_s", "trace_overhead_share"):
                continue
            values = [v[name] for v in per_pass]
            if name not in TIMED and len(set(values)) > 1:
                errors.append(f"{name} differs between traced passes: {values}")
            metrics[name] = median(values) if name in TIMED else values[0]
        metrics["subspace.build_s"] = sum(
            setup_summary.get(k, {}).get("s", 0.0)
            for k in ("subspace.build_subspace", "subspace.subspace_projector"))
        untraced_s = median([p.seconds() for p in untraced])
        traced_s = median([p.seconds() for p, _ in traced])
        metrics["trace_overhead_share"] = traced_s / untraced_s - 1.0
        spans = [summarize(s) for _, s in traced]
        report["layers"] = {
            "per_pass": per_pass,
            "wall_base_s": {"untraced": untraced_s, "traced": traced_s},
            "spans": {name: {k: median([s.get(name, {}).get(k, 0) for s in spans])
                             for k in ("calls", "s", "self_s")}
                      for name in sorted(set().union(*spans))},
        }
        units = PER_LAYER
    else:
        def timings(scale: float) -> dict:
            trips = [op.s * 1e3 * scale for p in passes for op in p.ops if op.kind == "roundtrip"]
            return {
                "setup_s": median(setup) * scale,
                "direct_pass_s": median([p.seconds("direct") for p in passes]) * scale,
                "dual_cone_pass_s": median([p.seconds("dual") for p in passes]) * scale,
                "stress_trials_per_s": median([sum(op.trials for op in p.ops) / p.seconds("suite")
                                               for p in passes]) / scale,
                "file_roundtrip_p50_ms": median(trips),
                "file_roundtrip_p90_ms": statistics.quantiles(trips, n=10)[-1],
            }

        metrics = {
            **timings(gauge.scale()),
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        report["wall_clock"] = timings(1.0)
        report["speed"] = {
            "scale": gauge.scale(),
            "reference_nominal_s": W.REFERENCE_NOMINAL_S,
            "samples": len(gauge.seconds),
            "reference_s_quartiles": statistics.quantiles(gauge.seconds, n=4),
            "gauge_s": sum(gauge.seconds),
        }
        report["samples"] = {
            "setup": setup, "passes": len(passes),
            "roundtrips": sum(op.kind == "roundtrip" for p in passes for op in p.ops),
            "attempted": attempted, "failed": failed,
        }
        units = END_TO_END

    report["errors"] = errors
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
