"""Benchmark of the dimerqpt simulate -> reconstruct pipeline.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 45 \
        --trace 0

Run from the root of a source tree; the package is imported from its
``src`` directory, never from an installed copy.  One run is one fresh
process for one workload (see workloads.py and README.md).  It times a
warm-up pass that is thrown away, then whole passes until ``--seconds``
have gone by, checks the outputs of every pass, and prints as its last
line of standard output one JSON object: whether the outputs were
correct, the operations attempted and failed, and the metrics, which are
the end-to-end medians with ``--trace 0`` and the per-layer figures of a
traced run with ``--trace 1``.  Set-up time is the median over several
fresh interpreters that import ``dimerqpt.cli`` and load the workload's
configuration.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One worker and one BLAS thread: on a small shared machine a process pool
# per Gamma and threaded BLAS made most of the run-to-run spread.
SERIAL_ENV = {"DIMERQPT_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_STARTS = 9
MIN_PASSES = 3

SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import dimerqpt.cli; from dimerqpt.config import load_config; "
               "load_config(sys.argv[2])")

END_TO_END = {"setup_s": "s", "simulate_s": "s", "reconstruct_s": "s",
              "wall_s": "s", "peak_rss_mib": "MiB"}

CALLS = ("isoaverage.build_m_blocks", "response.iso_pathway_vector",
         "response.projection_table", "response.pathway_amplitude",
         "ensemble.evaluate_member", "reconstruct.reconstruct_single",
         "reconstruct.validate_tensor", "bath.propagate_process_tensor",
         "bath.build_redfield_generator", "pulses.build_c_matrix",
         "model.build_exciton_basis")
SELF_TIMES = ("isoaverage.build_m_blocks", "isoaverage.solve_chi_blocks",
              "response.iso_pathway_vector", "response.projection_table",
              "ensemble.sample_members", "ensemble.run_ensemble",
              "ensemble.evaluate_member", "reconstruct.reconstruct_single",
              "reconstruct.invert_signals", "reconstruct.validate_tensor",
              "bath.propagate_process_tensor",
              "bath.build_redfield_generator", "pulses.build_c_matrix",
              "model.build_exciton_basis", "cli.cmd_simulate",
              "cli.cmd_reconstruct", "cli.cmd_validate", "config.load_config")
PER_MEMBER = {"isoaverage.m_builds_per_member": "isoaverage.build_m_blocks",
              "ensemble.member_evals_per_member": "ensemble.evaluate_member"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ensemble", "dense-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def measure_setup(config_path):
    """Median wall time of fresh interpreters importing the CLI."""
    env = dict(os.environ, **SERIAL_ENV)
    times = []
    for _ in range(SETUP_STARTS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, config_path],
                       env=env, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


class Tally:
    """Operations attempted, failed and incorrect over checked passes."""

    def __init__(self, work):
        self.work = work
        self.attempted = self.failed = self.incorrect = 0

    def run(self):
        """One whole pass plus its checks; the pass times, or None."""
        self.attempted += self.work.ops_per_pass
        try:
            times, result = self.work.run_pass()
            failed, incorrect = self.work.check(result)
        except Exception:
            traceback.print_exc()
            self.failed += self.work.ops_per_pass
            return None
        self.failed += failed
        self.incorrect += incorrect
        return times


def timed_passes(seconds, run_pass):
    """Whole passes until ``seconds`` have gone by; successful pass times."""
    start = perf_counter()
    done = []
    count = 0
    while count < MIN_PASSES or perf_counter() - start < seconds:
        count += 1
        times = run_pass()
        if times is not None:
            done.append(times)
    return done


def end_to_end_metrics(tally, seconds, config_path):
    setup_s = measure_setup(config_path)
    tally.run()  # warm-up
    passes = timed_passes(seconds, tally.run)
    if not passes:
        return None
    values = {name: statistics.median(p[name] for p in passes)
              for name in ("simulate_s", "reconstruct_s", "wall_s")}
    values["setup_s"] = setup_s
    # ru_maxrss is in KiB on Linux
    values["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(f"{len(passes)} timed passes, wall_s: "
          + " ".join(f"{p['wall_s']:.3f}" for p in passes), file=sys.stderr)
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def per_layer_metrics(tally, seconds, tracer, trace_path):
    """Alternate untraced and traced passes; per-layer figures per pass."""
    names = tracer.install()
    tally.run()  # warm-up
    plain, traced, stats = [], [], []

    def pair():
        times = tally.run()
        tracer.start()
        traced_times = tally.run()
        pass_stats = tracer.stop()
        if times is None or traced_times is None:
            return None
        plain.append(times["wall_s"])
        traced.append(traced_times["wall_s"])
        stats.append(pass_stats)
        return traced_times

    if not timed_passes(seconds, pair):
        return None
    with open(trace_path, "w") as fh:
        json.dump([{"functions": {name: dict(zip(("calls", "self_s",
                                                  "total_s"), s))
                                  for name, s in funcs.items()},
                    "io": io} for funcs, io in stats], fh, indent=1)
    funcs, io = stats[0]
    if any(other[1] != io or {k: v[0] for k, v in other[0].items()}
           != {k: v[0] for k, v in funcs.items()} for other in stats[1:]):
        print("warning: call or byte counts differ between traced passes",
              file=sys.stderr)
    absent = [name for name in CALLS + SELF_TIMES if name not in names]
    if absent:
        print(f"absent (reported as 0): {', '.join(sorted(set(absent)))}",
              file=sys.stderr)

    def calls(name):
        return funcs[name][0] if name in funcs else 0

    def self_s(name):
        if name not in funcs:
            return 0.0
        return statistics.median(s[0][name][1] for s in stats)

    metrics = {}
    for name in CALLS:
        metrics[f"{name}_calls"] = (calls(name), "count")
    for name in SELF_TIMES:
        metrics[f"{name}_self_s"] = (self_s(name), "s")
    for metric, name in PER_MEMBER.items():
        metrics[metric] = (calls(name) / tally.work.members, "count")
    metrics["cli.bytes_written"] = (io["written"], "bytes")
    metrics["cli.bytes_read"] = (io["read"], "bytes")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    print(f"{len(traced)} traced passes, trace written to {trace_path}",
          file=sys.stderr)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dimerqpt", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    # before numpy is first imported, so that BLAS reads it
    os.environ.update(SERIAL_ENV)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS  # imports numpy and dimerqpt

    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        work = WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally(work)
        if args.trace:
            from tracing import Tracer
            trace_path = os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json")
            metrics = per_layer_metrics(tally, args.seconds, Tracer(),
                                        trace_path)
        else:
            metrics = end_to_end_metrics(tally, args.seconds,
                                         work.config_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is None:
        print("error: every pass raised", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
