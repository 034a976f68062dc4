"""Command-line interface.

Exit codes: 0 = analyses completed; 1 = the subcommand checks a property
and found it violated; 2 = input error; 3 = a verdict stayed undecided:
the exploration was truncated (for ``paper-suite``: no check failed and
only reference nets the cap cut short miss an expectation), or
``home-clusters`` found no home cluster and could not decide some cluster
(the direct method on an unbounded net, the short-circuit method where it
does not apply or its short-circuited net's exploration was truncated);
130 = interrupted by Ctrl-C (``error: interrupted`` on stderr, no
traceback); 141 = standard output was closed early, as by ``| head`` (no
message).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import corpus, homecluster, lucency, report
from .errors import LucentNetError, ParseError, TheoremViolation
from .reachability import DEFAULT_MAX_STATES, TRUNCATED, ExplorationLimits, explore
from .textio import parse_net

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3
EXIT_INTERRUPTED = 130
EXIT_CLOSED_OUTPUT = 141  # 128 + SIGPIPE, what a shell reports for a process SIGPIPE ended


def _common(parser):
    parser.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES,
                        help=f"state-space exploration cap (default {DEFAULT_MAX_STATES})")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:  # an input error; an OSError of the output is not
        raise LucentNetError(str(exc)) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    doc = parse_net(text)
    net, m0 = doc.to_net()  # built once already, to validate the document
    return doc.name, net, m0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each argument it adds
    makes a help formatter, which reads the terminal size."""
    parser = argparse.ArgumentParser(
        prog="lucentnet",
        description="Lucency, transparency, and home-cluster analysis for marked Petri nets")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, summary in (("analyze", "full property report for a net file"),
                             ("lucency", "decide lucency of a net file"),
                             ("home-clusters", "find home clusters of a net file"),
                             ("reach", "dump the reachable state space")):
        p_file = sub.add_parser(command, help=summary)
        p_file.add_argument("file")
        if command == "home-clusters":
            p_file.add_argument("--method", choices=("direct", "short-circuit", "both"),
                                default="both")
        _common(p_file)

    p_suite = sub.add_parser("paper-suite",
                             help="run the bundled reference nets and the randomized "
                                  "implication suite")
    p_suite.add_argument("--random", type=int, default=0, metavar="N",
                         help="additionally generate N random free-choice nets")
    p_suite.add_argument("--seed", type=int, default=0)
    _common(p_suite)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        limits = ExplorationLimits(max_states=args.max_states)
    except ValueError:
        parser.error("--max-states must be a positive integer")  # exits with 2
    if args.command == "paper-suite" and args.random < 0:
        parser.error("--random must be a non-negative integer")

    commands = {"analyze": _cmd_analyze, "lucency": _cmd_lucency, "reach": _cmd_reach,
                "home-clusters": _cmd_home_clusters, "paper-suite": _cmd_suite}
    try:
        code = commands[args.command](args, limits)
        sys.stdout.flush()  # a closed output fails here, not at exit
        return code
    except BrokenPipeError:  # the reader left; once stdout is on the null device,
        with contextlib.suppress(OSError):  # a file's flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_OUTPUT
    except OSError as exc:  # the output could not be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except LucentNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION if isinstance(exc, TheoremViolation) else EXIT_INPUT
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def _cmd_analyze(args, limits) -> int:
    name, net, m0 = _load(args.file)
    rep = report.build_report(name, net, m0, limits)
    sys.stdout.write(report.emit_report(rep, args.format))
    return EXIT_UNDECIDED if rep["exploration"]["verdict"] == TRUNCATED else EXIT_OK


def _cmd_lucency(args, limits) -> int:
    name, net, m0 = _load(args.file)
    verdict = lucency.check_lucency(net, m0, limits)
    if args.format == "json":
        payload = {"net": name, "lucent": verdict.lucent}
        if verdict.witness:
            payload["witness"] = report._witness_pair(verdict.witness)
            payload["footprint"] = list(verdict.footprint or ())
        if verdict.unbounded:
            payload["unbounded_witness"] = report._unbounded(verdict.unbounded)
        print(report.dumps(payload))
    else:
        if verdict.lucent is True:
            print(f"{name}: lucent")
        elif verdict.lucent is None:
            print(f"{name}: undecided (exploration truncated)")
        elif verdict.witness:
            m1, m2 = verdict.witness
            print(f"{name}: not lucent; {m1.pretty()} and {m2.pretty()} both enable "
                  f"{{{', '.join(verdict.footprint or ())}}}")
        else:
            print(f"{name}: not lucent (unbounded)")
    if verdict.lucent is None:
        return EXIT_UNDECIDED
    return EXIT_OK if verdict.lucent else EXIT_VIOLATION


def _cmd_home_clusters(args, limits) -> int:
    name, net, m0 = _load(args.file)
    hc = homecluster.find_home_clusters(net, m0, limits, method=args.method)
    if args.format == "json":
        payload = {
            "net": name,
            "method": hc.method,
            "home_clusters": [list(c.nodes()) for c in hc.home_clusters],
            "details": [{"cluster": list(d.cluster.nodes()), "is_home": d.is_home,
                         "direct": d.direct, "short_circuit": d.short_circuit,
                         "note": d.note} for d in hc.details],
        }
        print(report.dumps(payload))
    else:
        if hc.home_clusters:
            print(f"{name}: home clusters: "
                  + "; ".join(c.pretty() for c in hc.home_clusters))
        else:
            print(f"{name}: no home clusters")
        for d in hc.details:
            verdict = {True: "home", False: "not home", None: "undecided"}[d.is_home]
            note = f"  [{d.note}]" if d.note else ""
            print(f"  {d.cluster.pretty()}: {verdict}{note}")
    if hc.home_clusters:
        return EXIT_OK
    if any(d.is_home is None for d in hc.details):
        return EXIT_UNDECIDED
    return EXIT_VIOLATION


def _cmd_reach(args, limits) -> int:
    name, net, m0 = _load(args.file)
    rg = explore(net, m0, limits)
    if args.format == "json":
        payload = {
            "net": name,
            "verdict": rg.verdict,
            "states": rg.rows(range(len(rg.states))),
            "edges": [[i, t, j] for i, t, j in rg.edges],
            "terminal_sccs": [list(c) for c in rg.terminal_sccs()],
        }
        if rg.unbounded_witness:
            payload["unbounded_witness"] = report._unbounded(rg.unbounded_witness)
        print(report.dumps(payload))
    else:
        print(f"{name}: {rg.verdict}, {len(rg.states)} states, {len(rg.edges)} edges")
        for i, m in enumerate(rg.states):
            succ = ", ".join(f"{t}->{j}" for t, j in rg.out_edges(i))
            print(f"  {i}: {m.pretty()}" + (f"  [{succ}]" if succ else ""))
        if rg.unbounded_witness:
            print(f"  unbounded: stem {list(rg.unbounded_witness.stem)} "
                  f"pump {list(rg.unbounded_witness.pump)}")
    return EXIT_UNDECIDED if rg.verdict == TRUNCATED else EXIT_OK


def _cmd_suite(args, limits) -> int:
    # the graphs explored before the suite, by (net, m0); suite_nets probes
    # under the default cap, so only a suite under that cap may read them
    graphs = {}
    nets = corpus.suite_nets(random_count=args.random, seed=args.seed,
                             graphs=graphs if limits == ExplorationLimits() else None)
    refs = [(ref, explore(ref.net, ref.initial, limits)) for ref in corpus.all_reference_nets()]
    graphs.update(((ref.net, ref.initial), rg) for ref, rg in refs)
    # the expectations read the suite's lucency verdicts and home clusters
    verdicts = {}
    suite = corpus.run_theorem_suite(nets, limits, graphs, verdicts)
    checked, failed, undecided = 0, [], []
    for ref, rg in refs:
        rows = corpus.verify_reference_net(ref, limits, rg, *verdicts[ref.net, ref.initial])
        checked += len(rows)
        # an expectation missed on a graph the cap cut short is undecided
        missed = undecided if rg.verdict == TRUNCATED else failed
        missed.extend([ref.ident, prop, _shown(expected), _shown(got)]
                      for prop, expected, got, ok in rows if not ok)
    if not suite.ok or failed:
        code, result = EXIT_VIOLATION, "ANOMALIES FOUND"
    elif undecided:
        code, result = EXIT_UNDECIDED, "undecided (exploration truncated)"
    else:
        code, result = EXIT_OK, "ok"

    if args.format == "json":
        expectations = {"checked": checked, "failed": failed}
        if undecided:
            expectations["undecided"] = undecided
        payload = {
            "nets": suite.nets,
            "expectations": expectations,
            "checks": {check: dict(sorted(counts.items()))
                       for check, counts in sorted(suite.counts.items())},
            "anomalies": [list(a) for a in suite.anomalies],
        }
        print(report.dumps(payload))
    else:
        print(f"{suite.nets} nets analyzed ({checked} reference expectations checked)")
        for check in sorted(suite.counts):
            c = suite.counts[check]
            print(f"  {check}: {c['pass']} pass, {c['fail']} fail, {c['skip']} skip")
        for word, rows in (("FAILED", failed), ("UNDECIDED", undecided)):
            for ident, prop, expected, got in rows:
                print(f"  EXPECTATION {word} {ident}.{prop}: expected {expected}, got {got}")
        for net_name, check, detail in suite.anomalies:
            print(f"  ANOMALY {net_name} {check}: {detail}")
        print("result: " + result)
    return code


def _shown(value) -> str:
    """``repr``, with a set's items sorted so the text does not vary with
    the hash seed."""
    if isinstance(value, set) and value:
        return "{" + ", ".join(sorted(map(repr, value))) + "}"
    return repr(value)


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
