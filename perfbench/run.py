"""Benchmark of the prefdiff reproduction pipeline: gen-data, train, eval.

Run from the repository root:

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 30 --trace 0

Every run sets up (imports, input generation and a small warm-up pass at the
full model size), then repeats rounds of the three stages for ``--seconds``
seconds, never fewer than ``Sizes.quality_rounds`` rounds. Each round is one
dataset generated, written and read back; an SFT run on it; each preference
method trained from that SFT result; and the bimodal-DPO model sampled and
scored by the oracle. Throughputs are medians over rounds, each scaled to the
nominal machine speed measured around it (see ``pipeline.speed_scale``).
Set-up is timed, and scaled the same way, in this process and in two fresh
ones, and the median is reported. BLAS runs on one thread.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs the quality rounds untraced, then the same rounds with
every public function of the program's modules wrapped by the tracer, checks
that both passes produce bit-identical outputs, and prints the per-layer
metrics and the tracing overhead.

The last line of standard output is the result object; the line before it is
the run record with the environment stamp. Outputs are checked outside the
timed regions; a failed check makes ``correct`` false.
"""

import time

_START = time.perf_counter()    # set-up time is counted from here

import argparse                 # noqa: E402
import functools                # noqa: E402
import json                     # noqa: E402
import os                       # noqa: E402
import resource                 # noqa: E402
import shutil                   # noqa: E402
import statistics               # noqa: E402
import subprocess               # noqa: E402
import sys                      # noqa: E402
import traceback                # noqa: E402
from pathlib import Path        # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "prefdiff"
SETUP_PROBES = 2                # fresh processes timed besides this one
TRACED_MODULES = ("toyworld", "datapipe", "net", "autodiff", "losses",
                  "trainer", "diffusion", "evalbench")
# private helpers with spans of their own: _child_seed is imported by name
# elsewhere, _mask_rows re-stacks region masks each step, _sigmoid is the
# activation kernel of every forward pass
TRACED_EXTRA = ("datapipe._child_seed", "losses._mask_rows", "autodiff._sigmoid")


def import_program():
    """Make the checkout's ``src/prefdiff`` and ``perfbench`` importable."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no prefdiff sources under {PACKAGE_DIR.parent}")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import prefdiff
    if Path(prefdiff.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise SystemExit(f"perfbench: imported prefdiff from {prefdiff.__file__}, "
                         f"not from {PACKAGE_DIR}")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# running

class Run:
    """What a sequence of rounds measured, counted and checked."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.attempts = {}
        self.failures = []
        self.check_errors = []
        self.rates = {}
        self.raw_rates = {}
        self.seconds = 0.0              # stage wall time
        self.nominal_seconds = 0.0      # the same at nominal machine speed
        self.loss_tails = []
        self.validity = []
        self.digests = []
        self.bytes_written = 0
        self.pairs = 0
        self.images = 0

    def _on_result(self, results, stage, outcome):
        counts = self.attempts.setdefault(stage, {"attempted": 0, "failed": 0})
        counts["attempted"] += 1
        if isinstance(outcome, Exception):
            counts["failed"] += 1
            self.failures.append(f"{stage}: {outcome!r}")
            traceback.print_exception(outcome, file=sys.stderr)
        else:
            results.append(outcome)

    def _finish_round(self, r, results, check):
        from perfbench import pipeline as pl
        for res in results:
            self.rates.setdefault(res.stage, []).append(res.rate)
            self.raw_rates.setdefault(res.stage, []).append(res.work / res.seconds)
            self.seconds += res.seconds
            self.nominal_seconds += res.seconds / res.scale
            if res.stage == "datagen":
                self.bytes_written += res.extra["bytes"]
                self.pairs += res.work
            elif res.stage == "eval":
                self.images += res.work
            if check:
                try:
                    pl.check_result(res)
                except pl.CheckFailed as exc:
                    self.check_errors.append(f"round {r}: {exc}")
            if r < self.sizes.quality_rounds:
                if res.stage == "sft":
                    self.loss_tails.append(pl.loss_tail(res, self.sizes))
                elif res.stage == "eval":
                    self.validity.append(res.extra["card"].validity)
        self.digests.append({res.stage: res.digest for res in results})

    def rounds(self, runner, count=None, seconds=None, check=True):
        """Run ``count`` rounds, or rounds for ``seconds`` but at least the
        quality rounds; returns how many ran."""
        start = time.perf_counter()
        r = 0
        while r < (count or self.sizes.quality_rounds) or (
                count is None and time.perf_counter() - start < seconds):
            results = []
            runner.round(r, functools.partial(self._on_result, results))
            self._finish_round(r, results, check)
            r += 1
        return r

    @property
    def attempted(self):
        return sum(c["attempted"] for c in self.attempts.values())

    @property
    def failed(self):
        return sum(c["failed"] for c in self.attempts.values())


def set_up(workload_name, seed, sizes, work_dir):
    from perfbench import pipeline as pl
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = pl.Runner(pl.WORKLOADS[workload_name], seed, sizes, str(work_dir))
    runner.warm_up()
    return runner


def probe_setup(args):
    """Set-up time of a fresh process, measured by running this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metrics

def end_to_end_values(run, setup_samples):
    from perfbench import pipeline as pl
    rate = {stage: statistics.median(rates) for stage, rates in run.rates.items()}
    values = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "datagen.pairs_per_s": rate["datagen"],
        "eval.images_per_s": rate["eval"],
        "train.sft_loss_tail": statistics.fmean(run.loss_tails),
    }
    for method in pl.TRAIN_METHODS:
        values[f"train.{method}_steps_per_s"] = rate[method]
    return values


def _ratio(num, den):
    return num / den if den else 0.0


def layer_value(name, tracer, info):
    """Resolve a per-layer metric name against the tracer's spans.

    ``<stage>.<module>.<function>.calls|self_s`` reads the spans of one
    function in one stage, ``<stage>.<module>.calls`` counts every call into
    a module; the rest are ratios and sizes named one by one below.
    """
    if name in info:
        return info[name]
    parts = name.split(".")
    stage, last = parts[0], parts[-1]
    if last == "calls_per_pair":
        return _ratio(tracer.calls("toyworld.detect", stage), info["pairs"])
    if last == "calls_per_image":
        return _ratio(tracer.calls("toyworld.detect", stage), info["images"])
    if last == "ambiguous_ratio":
        return _ratio(tracer.raised("toyworld.detect", "AmbiguousDetectionError", stage),
                      tracer.calls("toyworld.detect", stage))
    if last == "kept_ratio":
        calls = tracer.calls("datapipe.build_pair", stage)
        discards = sum(tracer.raised("datapipe.build_pair", exc, stage)
                       for exc in ("VqaInconsistencyError", "LayoutError"))
        return _ratio(calls - discards, calls)
    if len(parts) == 3 and last == "calls":
        return tracer.module_calls(parts[1], stage)
    if len(parts) == 4 and last in ("calls", "self_s"):
        query = tracer.calls if last == "calls" else tracer.self_s
        return query(f"{parts[1]}.{parts[2]}", stage)
    raise KeyError(f"no rule for per-layer metric {name!r}")


def traced_values(runner, sizes, spec_names):
    """Untraced and traced passes over the same rounds, and the per-layer
    metrics of the traced one."""
    from perfbench import tracer as tr

    plain = Run(sizes)
    plain.rounds(runner, count=sizes.quality_rounds)
    tracer = tr.Tracer()
    traced = Run(sizes)
    runner.tracer = tracer
    with tracer.installed("prefdiff", TRACED_MODULES, TRACED_EXTRA):
        traced.rounds(runner, count=sizes.quality_rounds, check=False)
    runner.tracer = None
    if traced.digests != plain.digests:
        plain.check_errors.append("traced outputs differ from untraced outputs")
    info = {
        "pairs": traced.pairs,
        "images": traced.images,
        "datagen.datapipe.write_dataset.bytes": traced.bytes_written,
        "eval.validity": statistics.fmean(traced.validity) if traced.validity else 0.0,
        "trace.untraced_s": plain.nominal_seconds,
        "trace.traced_s": traced.nominal_seconds,
        "trace.overhead_s": traced.nominal_seconds - plain.nominal_seconds,
        "trace.wrapped_functions": len(tracer.wrapped),
        "trace.absent_functions": len(tracer.absent),
    }
    values = {name: layer_value(name, tracer, info) for name in spec_names}
    extra = {"absent": tracer.absent, "trace_overhead_s": info["trace.overhead_s"],
             "untraced_wall_s": plain.seconds, "traced_wall_s": traced.seconds}
    return plain, traced, values, extra


# ---------------------------------------------------------------------------
# entry point

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None, sizes=None):
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads. On a shared two-core machine
    # a second thread made step rates spread about 1.5x as much between runs.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import_program()
    from perfbench import pipeline as pl
    from perfbench import record
    if args.workload not in pl.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(pl.WORKLOADS)}")
    sizes = sizes or pl.Sizes()
    spec = load_spec()
    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        runner = set_up(args.workload, args.seed, sizes, work_dir)
        raw_setup_s = time.perf_counter() - _START
        setup = {"setup_s": raw_setup_s / pl.speed_scale("setup"),
                 "raw_setup_s": raw_setup_s}
        if args.setup_probe:
            print(json.dumps(setup))
            return 0

        rec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": record.environment(ROOT)}
        if args.trace:
            run, traced, metrics, extra = traced_values(
                runner, sizes, [m["name"] for m in spec["per_layer"]])
            declared = spec["per_layer"]
            rec.update(extra)
            rec["traced_attempts"] = traced.attempts
            attempted = run.attempted + traced.attempted
            failed = run.failed + traced.failed
        else:
            setups = [setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]
            run = Run(sizes)
            rec["rounds"] = run.rounds(runner, seconds=args.seconds)
            metrics = end_to_end_values(run, [x["setup_s"] for x in setups])
            declared = spec["end_to_end"]
            rec["setups"] = setups
            rec["rates"] = run.rates
            rec["raw_rates"] = run.raw_rates
            rec["eval_validity"] = run.validity
            attempted, failed = run.attempted, run.failed
        rec.update({"attempts": run.attempts, "failures": run.failures,
                    "check_errors": run.check_errors, "round_digests": run.digests})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    result = {
        "correct": not run.check_errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print("perfbench-record " + json.dumps(rec, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
