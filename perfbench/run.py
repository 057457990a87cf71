#!/usr/bin/env python3
"""Training and scoring benchmark for nucontrast.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-b2 --seed 1 --seconds 30 --trace 0

Runs one workload in this process for about ``--seconds`` seconds, checks its
outputs, and prints one JSON object as the last line of standard output.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced units and reports the per-layer metrics.
Every unit's time is divided by the time of reference slices taken around
and during it (see reference.py). A full record of the run goes to
perfbench/results/.
"""

import os
import sys

# BLAS must be pinned before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def seconds_since_process_start() -> float:
    """Wall time since this process started, interpreter start-up included."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22, counted from after the command name
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def import_package():
    """Import nucontrast from the checkout's src/, and from nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "nucontrast")):
        sys.exit(f"perfbench: no package at {SRC}/nucontrast; run from a full checkout")
    sys.path.insert(0, SRC)
    import nucontrast

    if os.path.dirname(os.path.dirname(os.path.abspath(nucontrast.__file__))) != SRC:
        sys.exit(f"perfbench: nucontrast was imported from {nucontrast.__file__}, not {SRC}")


PER_LAYER_SPANS = {
    "linalg.svd": ("calls", "self_ms"),
    "linalg.as_matrix": ("calls", "self_ms"),
    "contrast.as_label_matrix": ("calls", "self_ms"),
    "contrast.loss_grad": ("self_ms",),
    "contrast.correction": ("self_ms",),
    "losses.bce": ("self_ms",),
    "losses.sigmoid": ("self_ms",),
    "model.embed_forward": ("self_ms",),
    "model.classify": ("self_ms",),
    "model.backward": ("self_ms",),
    "model.adam_step": ("self_ms",),
    "model.ema_update": ("self_ms",),
    "trainer.train": ("self_ms",),
    "trainer.evaluate": ("self_ms",),
    "metrics.report": ("self_ms",),
    "data.save_dataset": ("ms",),
    "data.load_dataset": ("ms",),
    "model.save_checkpoint": ("ms",),
    "model.load_checkpoint": ("ms",),
}
# Counters a hook adds.
PER_LAYER_COUNTERS = ("linalg.svd.cells", "contrast.correction.flips", "trainer.steps", "data.bytes_written")
# File I/O that the training workloads do only in set-up: for them these
# figures are the set-up's.
SETUP_IO = ("data.save_dataset", "data.load_dataset", "model.save_checkpoint",
            "model.load_checkpoint", "data.bytes_written")


class Bench:
    """Times units of one workload against the reference slices around them."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.gauge = reference.Gauge(workload.reference)
        self.slice_means = []

    def timed(self, job, tracer=None):
        """Run one unit; returns (unit, net seconds, normalised seconds)."""
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.install()
            self.gauge.on_slice = tracer.exclude
        try:
            unit, net, norm = self.gauge.time(lambda: self.workload.run_unit(job))
        finally:
            if tracer is not None:
                tracer.uninstall()
                self.gauge.on_slice = None
        self.slice_means.append(statistics.fmean(self.gauge.slices))
        return unit, net, norm


def run_rounds(seconds, n_jobs, body):
    """Call body(job) for whole rounds over the jobs, at least two rounds,
    until the next round would end past ``seconds``."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for job in range(n_jobs):
            body(job)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= 2 and elapsed + 0.5 * elapsed / rounds >= seconds:
            return rounds


def per_layer_metrics(records, setup_record, overheads):
    """Per-unit figures from the traced units: medians of normalised times,
    means of counts. File I/O that no unit does comes from the set-up."""
    metrics = {}

    def values(field, name, scaled):
        per_unit = [r[field].get(name, 0.0) * (r["scale"] if scaled else 1.0) for r in records]
        if name in SETUP_IO and not any(per_unit):
            return [setup_record[field].get(name, 0.0) * (setup_record["scale"] if scaled else 1.0)]
        return per_unit

    for name, kinds in PER_LAYER_SPANS.items():
        for kind in kinds:
            if kind == "calls":
                metrics[f"{name}.calls"] = (statistics.fmean(values("calls", name, False)), "count")
            else:
                field = "self_s" if kind == "self_ms" else "total_s"
                metrics[f"{name}.{kind}"] = (1000.0 * statistics.median(values(field, name, True)), "ms")
    for name in PER_LAYER_COUNTERS:
        unit = "bytes" if name == "data.bytes_written" else "count"
        metrics[name] = (statistics.fmean(values("counters", name, False)), unit)
    metrics["trace.overhead"] = (statistics.median(overheads), "ratio")
    return metrics


def snapshot(tracer, scale=1.0):
    return {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "total_s": dict(tracer.total_s),
        "counters": dict(tracer.counters),
        "scale": scale,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import reference
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = workloads.WORKLOADS[args.workload]()
    failures: list[str] = []
    tracer = tracing.Tracer(workloads.traced_hooks(failures)) if args.trace else None
    workdir = tempfile.mkdtemp(prefix=".tmp-", dir=HERE)
    try:
        # --- set-up: inputs, files, a warm-up unit (traced when tracing) ---
        bench = Bench(workload, reference)
        gauge = bench.gauge
        if tracer is not None:
            tracer.install()
            gauge.on_slice = tracer.exclude
        gauge.start()
        try:
            workload.setup(args.seed, workdir)
            setup_raw_s = seconds_since_process_start() - sum(gauge.slices)
        finally:
            setup_scale = gauge.stop()
            gauge.on_slice = None
            if tracer is not None:
                tracer.uninstall()
        setup_s = setup_raw_s * setup_scale
        if tracer is not None:
            setup_record = snapshot(tracer, setup_scale)
            tracer.reset()

        # --- timed units, each gauged by reference slices around and during it ---
        units = [workload.warm]
        raw, norm, rates, raw_rates = [], [], [], []
        records, overheads, spans = [], [], []
        expected_svd = 0

        def untraced(job):
            unit, raw_s, norm_s = bench.timed(job)
            units.append(unit)
            raw.append(raw_s)
            norm.append(norm_s)
            rates.append(unit.rows / norm_s)
            raw_rates.append(unit.rows / raw_s)
            return norm_s

        def traced_pair(job):
            nonlocal expected_svd, spans
            plain = untraced(job)
            unit, raw_s, norm_s = bench.timed(job, tracer)
            units.append(unit)
            records.append(snapshot(tracer, norm_s / raw_s))
            overheads.append(norm_s / plain)
            expected_svd += int(tracer.counters.get("expected_svd", 0))
            spans = tracer.spans

        rounds = run_rounds(
            args.seconds, workload.n_datasets, traced_pair if tracer is not None else untraced
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # --- checks that do not come from the program ---
        failures += workload.check(units)
        if tracer is not None:
            svd_calls = sum(r["calls"].get("linalg.svd", 0) for r in records)
            if "linalg.svd" in tracer.absent or "contrast.loss_grad" in tracer.absent:
                print("perfbench: SVD count check skipped, a traced function is absent", file=sys.stderr)
            else:
                failures += workloads.oracles.check_svd_count("traced units", svd_calls, expected_svd)
                if svd_calls and not sum(r["counters"].get("loss_samples", 0) for r in records):
                    failures.append("traced units: no loss-and-gradient call was sampled")

        if tracer is None:
            mean_map = statistics.fmean(
                next(u.map for u in units if u.job == job) for job in range(workload.n_datasets)
            )
            metrics = {
                "setup_s": (setup_s, "s"),
                "rows_per_s": (statistics.median(rates), "rows/s"),
                "map": (mean_map, "mAP"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            metrics = per_layer_metrics(records, setup_record, overheads)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "rounds": rounds,
            "units": len(raw),
            "raw_unit_s": raw,
            "normalised_unit_s": norm,
            "mean_reference_slice_s": bench.slice_means,
            "raw_rows_per_s": statistics.median(raw_rates),
            "raw_setup_s": setup_raw_s,
            "metrics": {k: v[0] for k, v in metrics.items()},
            "absent": tracer.absent if tracer is not None else [],
            "failures": failures,
        }
        if tracer is not None:
            record["spans_of_last_traced_unit"] = spans
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        out = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(out, "w") as fh:
            json.dump(record, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in failures:
        print("CHECK FAILED:", message, file=sys.stderr)
    if tracer is not None and tracer.absent:
        print("absent (reported as 0):", ", ".join(tracer.absent), file=sys.stderr)
    print(
        f"{args.workload}: {len(raw)} units in {rounds} rounds, "
        f"raw median {statistics.median(raw):.4f} s, normalised {statistics.median(norm):.4f} s"
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(units),
                "failed": 0,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the temp-dir cleanup


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
