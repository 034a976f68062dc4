#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks.

    python3 bench/selftest.py

Each check must accept the program's right answer on a tiny instance of its
workload and reject a planted wrong one: a changed field in the output, or
a stand-in for the program's library that returns a wrong answer.  Runs in
a few seconds.
"""

from __future__ import annotations

import json
import random
import sys

import checks
import run
import workloads


class Planted:
    """The program's library with some functions replaced."""

    def __init__(self, lib, **overrides):
        self._lib = lib
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._lib, name)


def edited(output: str, edit) -> str:
    payload = json.loads(output)
    edit(payload)
    return json.dumps(payload)


def cli_output(lib, argv):
    rc, out = run.run_cli(lib.cli.main, argv)
    if rc != 0:
        raise SystemExit(f"selftest: {argv} exited {rc}")
    return out


def main() -> int:
    if not (run.SRC / "lucentnet" / "__init__.py").is_file():
        print(f"selftest: no lucentnet sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    lib = run.import_program()
    results = []

    def expect(name, problems, want_problems):
        ok = bool(problems) == want_problems
        results.append(ok)
        shown = f" ({problems[0]})" if problems else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{shown}")

    def net_file(structure: workloads.Structure, stem: str):
        text = structure.text(random.Random(0))
        path = run.OUT / f"selftest-{stem}.net"
        path.write_text(text, encoding="utf-8")
        return str(path), text

    # the independent explorer and the witness replay
    counts = checks.plain_explore(workloads.forkjoin(3), 100)
    expect("plain_explore: forkjoin(3) closed forms",
           [] if (counts["states"], counts["edges"], counts["lucent"]) == (9, 26, True)
           else [f"got {counts}"], False)
    pump = workloads.Structure("pump", (("p", 1), ("q", 0)), ("t",),
                               (("p", "t"), ("t", "p"), ("t", "q")))
    expect("replay_grows: a real pump", [] if checks.replay_grows(pump, (), ("t",))
           else ["pump not accepted"], False)
    expect("replay_grows: planted non-growing pump",
           ["rejected"] if not checks.replay_grows(workloads.ring(3), (), ("t0", "t1", "t2"))
           else [], True)

    # forkjoin-analyze
    k = 3
    s = workloads.forkjoin(k)
    path, _ = net_file(s, "forkjoin")
    out = cli_output(lib, ["analyze", path, "--format", "json"])
    expect("forkjoin: right answer", checks.check_forkjoin(out, s, k), False)
    bad = edited(out, lambda r: r["exploration"].update(states=r["exploration"]["states"] + 1))
    expect("forkjoin: planted state count", checks.check_forkjoin(bad, s, k), True)
    bad = edited(out, lambda r: r["home_clusters"]["home_clusters"].pop())
    expect("forkjoin: planted missing home cluster", checks.check_forkjoin(bad, s, k), True)

    # ring-home
    length = 4
    s = workloads.ring(length)
    path, text = net_file(s, "ring")
    out = cli_output(lib, ["home-clusters", path, "--method", "both", "--format", "json"])
    expect("ring: right answer", checks.check_ring(out, s, length, lib, text), False)
    bad = edited(out, lambda r: r["details"][1].update(short_circuit=False))
    expect("ring: planted short-circuit verdict", checks.check_ring(bad, s, length, lib, text),
           True)
    wrong = Planted(lib, explore=lambda net, m0: lib.explore(net, m0, lib.ExplorationLimits(2)))
    expect("ring: planted truncated exploration",
           checks.check_ring(out, s, length, wrong, text), True)

    # chain-lucency
    length = 3
    s = workloads.chain(length)
    path, text = net_file(s, "chain")
    out = cli_output(lib, ["lucency", path, "--format", "json"])
    expect("chain: right answer", checks.check_chain(out, s, length, lib, text), False)
    bad = edited(out, lambda r: r.update(lucent=False))
    expect("chain: planted lucency verdict", checks.check_chain(bad, s, length, lib, text), True)
    wrong = Planted(lib, classify_dead_end=lambda *a, **kw: "regenerative")
    expect("chain: planted dead-end class", checks.check_chain(out, s, length, wrong, text), True)

    # suite-batch
    n, seed = 4, 11
    out = cli_output(lib, ["paper-suite", "--random", str(n), "--seed", str(seed),
                           "--format", "json"])
    nets = lib.suite_nets(random_count=n, seed=seed)
    expect("suite: right answer", checks.check_suite(out, nets, lib), False)
    bad = edited(out, lambda r: r["anomalies"].append(["n1", "planted", ""]))
    expect("suite: planted anomaly", checks.check_suite(bad, nets, lib), True)
    flip_first = nets[0][1]

    def flipped_lucency(net, m0, **kw):
        verdict = lib.check_lucency(net, m0, **kw)
        if net is not flip_first:
            return verdict
        return lib.LucencyVerdict("not-lucent" if verdict.lucent else "lucent")

    wrong = Planted(lib, check_lucency=flipped_lucency)
    expect("suite: planted lucency verdict", checks.check_suite(out, nets, wrong), True)

    failed = results.count(False)
    print(f"selftest: {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
