#!/usr/bin/env python3
"""lucentnet benchmark: four net families timed through the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout (nothing is installed).  One caller in one process, no
threads: a closed loop in which each operation is one in-process call of
``lucentnet.cli.main([...])`` with standard output captured, so parsing,
analysis and output are all inside the timed operation.  After the timing
every operation's output is checked (see ``checks.py``).  Times are scaled
to reference speed (see ``speed.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A summary goes to
standard error; results and traces are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import speed
import trace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
TAIL_SAMPLES = 10   # samples beyond the reported tail percentile
TAIL_MIN_OPS = 40   # below this the tail is no tail, and is dropped


def import_program():
    """Import lucentnet afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "lucentnet" or n.startswith("lucentnet.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = importlib.import_module("lucentnet")
    importlib.import_module("lucentnet.cli")
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported lucentnet from {lib.__file__}, not from {SRC}")
    return lib


def setup(meter, workload: str, seed: int):
    """Import the package and build the workload's inputs, SETUP_REPEATS
    times; returns the last import, the inputs, and the median set-up time
    as measured and as scaled."""
    measured, scaled = [], []
    for _ in range(SETUP_REPEATS):
        (lib, prepared), dt, dt_scaled = meter.time(
            lambda: (import_program(), workloads.prepare(workload, seed, OUT)))
        measured.append(dt)
        scaled.append(dt_scaled)
    return lib, prepared, statistics.median(measured), statistics.median(scaled)


def run_cli(main, argv):
    """One operation: returns (exit code, captured standard output)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        rc = f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue()


def timed_loop(meter, lib, prepared, seconds: float, tracer=None):
    """Run operations back to back for ``seconds``, and on a host so slow
    that fewer than TAIL_MIN_OPS fit, until that many were attempted.
    Returns the measured and the scaled latencies of the successful
    operations, the attempted and failed counts, the first output of each
    distinct input, and the problems seen.  Every workload's operations
    exit with code 0 on a correct run."""
    argvs = prepared.argvs
    outputs = {}   # argv index -> first output
    problems = []
    measured, scaled = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted < TAIL_MIN_OPS:
        k = attempted % len(argvs)
        if tracer is not None:
            tracer.begin_op()
        (rc, out), dt, dt_scaled = meter.time(run_cli, lib.cli.main, argvs[k])
        attempted += 1
        if tracer is not None:
            tracer.ops[-1]["scale"] = dt_scaled / dt
        if rc != 0:
            failed += 1
            problems.append(f"{' '.join(argvs[k])}: exit {rc}")
            continue
        if outputs.setdefault(k, out) != out:
            problems.append(f"{' '.join(argvs[k])}: output differs between runs")
        measured.append(dt)
        scaled.append(dt_scaled)
    return measured, scaled, attempted, failed, outputs, problems


def check_outputs(lib, prepared, outputs):
    """Check the output of every distinct input; returns the problems."""
    problems = []
    for k, out in sorted(outputs.items()):
        argv = prepared.argvs[k]
        if prepared.workload == "suite-batch":
            nets = lib.suite_nets(random_count=workloads.SUITE_N, seed=int(argv[4]))
            found = checks.check_suite(out, nets, lib)
        else:
            structure, text = prepared.nets[argv[1]]
            if prepared.workload == "forkjoin-analyze":
                found = checks.check_forkjoin(out, structure, workloads.FORKJOIN_K)
            elif prepared.workload == "ring-home":
                found = checks.check_ring(out, structure, workloads.RING_L, lib, text)
            else:
                found = checks.check_chain(out, structure, workloads.CHAIN_L, lib, text)
        problems += [f"{' '.join(argv)}: {p}" for p in found]
    return problems


def kernel_nets(lib, prepared, outputs):
    """The nets whose states and edges the kernel rates sweep: the file's
    net, or the nets of the first batch a suite run analysed."""
    if prepared.workload == "suite-batch":
        seed = int(prepared.argvs[min(outputs)][4])
        return [(net, m0) for _, net, m0 in
                lib.suite_nets(random_count=workloads.SUITE_N, seed=seed)]
    _, text = next(iter(prepared.nets.values()))
    return [lib.parse_net(text).to_net()]


def end_to_end(latencies, setup_s, peak_rss_mib):
    n = len(latencies)
    ordered = sorted(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    if n >= TAIL_MIN_OPS:
        # the highest percentile with TAIL_SAMPLES samples beyond it
        metrics["op_tail_ms"] = (ordered[n - TAIL_SAMPLES - 1] * 1e3, "ms")
    return metrics


LAYER_UNITS = dict({m: "ms" for m in trace.LAYER_TIMES},
                   **{"reachability.states": "count", "reachability.edges": "count",
                      "homecluster.clusters": "count", "report.bytes": "bytes",
                      "reachability.states_per_s": "1/s", "net.enabled_per_s": "1/s",
                      "net.fire_per_s": "1/s"})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lucentnet" / "__init__.py").is_file():
        print(f"bench: no lucentnet sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))

    meter = speed.Meter()
    lib, prepared, setup_measured_s, setup_s = setup(meter, args.workload, args.seed)
    run_cli(lib.cli.main, prepared.argvs[0])  # warm-up: lazy imports, first allocations
    tracer = None
    if args.trace:
        tracer = trace.Tracer()
        tracer.install(lib)
    gc.collect()
    measured, latencies, attempted, failed, outputs, problems = timed_loop(
        meter, lib, prepared, args.seconds, tracer)
    if tracer is not None:
        tracer.active = False
    if not latencies:
        print(f"bench: no operation succeeded: {problems[:3]}", file=sys.stderr)
        return 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems += check_outputs(lib, prepared, outputs)

    if tracer is None:
        metrics = end_to_end(latencies, setup_s, peak_rss_mib)
    else:
        values = tracer.layer_metrics()
        values.update(trace.kernel_rates(meter, lib, kernel_nets(lib, prepared, outputs)))
        metrics = {m: (values[m], LAYER_UNITS[m]) for m in sorted(values)}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, problems=problems, setup_measured_s=setup_measured_s,
                       latencies_ms=[x * 1e3 for x in latencies],
                       measured_latencies_ms=[x * 1e3 for x in measured]), fh, indent=1)
    if tracer is not None:
        with open(OUT / f"trace-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.dump(), op_p50_ms=statistics.median(latencies) * 1e3,
                           measured_op_p50_ms=statistics.median(measured) * 1e3), fh)

    for p in problems[:20]:
        print(f"bench: FAIL {p}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {attempted} operations, {failed} failed, "
          f"op p50 {statistics.median(latencies) * 1e3:.1f} ms scaled, "
          f"{statistics.median(measured) * 1e3:.1f} ms measured", file=sys.stderr)
    for m, (v, u) in metrics.items():
        print(f"  {m:32} {v:14.4f} {u}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
