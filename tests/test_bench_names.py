"""The benchmark calls lucentnet functions by name and argument shape, and its
tracer wraps them by name; a rename or a dropped parameter that would break
a benchmark run fails here first."""

import importlib
import importlib.util
import pathlib

import lucentnet

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
CORPUS = BENCH.parent / "corpus"

# (bench file, call as it is written there); each is made below on a
# reference net with the same argument shapes
CALLS = [
    ("checks.py", "program.parse_net(text).to_net()"),
    ("checks.py", "program.explore(net, m0)"),
    ("checks.py", "program.check_lucency(net, m0, rg=rg)"),
    ("checks.py", 'program.find_home_clusters(net, m0, method="direct", rg=rg)'),
    ("checks.py", "program.classify_dead_end(net, m0, hc.home_clusters[0], rg=rg)"),
    ("selftest.py", "lib.explore(net, m0, lib.ExplorationLimits(2))"),
    ("selftest.py", "lib.check_lucency(net, m0, **kw)"),
    ("selftest.py", "lib.suite_nets(random_count=n, seed=seed)"),
    ("selftest.py", 'lib.LucencyVerdict("not-lucent" if verdict.lucent else "lucent")'),
    ("selftest.py", "run.run_cli(lib.cli.main, argv)"),
]


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    for module_name, attr, _, _ in trace.TRACED:
        target = importlib.import_module(f"lucentnet.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attr)


def test_bench_calls_are_written_as_checked_here():
    for name, call in CALLS:
        assert call in (BENCH / name).read_text(encoding="utf-8"), (name, call)


def test_bench_call_shapes():
    program = lib = lucentnet
    text = (CORPUS / "n1.net").read_text(encoding="utf-8")
    net, m0 = program.parse_net(text).to_net()
    rg = program.explore(net, m0)
    assert rg.complete
    assert lib.explore(net, m0, lib.ExplorationLimits(2)).verdict == "truncated"
    assert program.check_lucency(net, m0, rg=rg).lucent is True
    hc = program.find_home_clusters(net, m0, method="direct", rg=rg)
    assert program.classify_dead_end(net, m0, hc.home_clusters[0], rg=rg) == "terminal"
    nets = lib.suite_nets(random_count=2, seed=11)
    assert nets and all(len(item) == 3 for item in nets)
    for status, lucent in (("lucent", True), ("not-lucent", False)):
        assert lib.LucencyVerdict(status).lucent is lucent
    importlib.import_module("lucentnet.cli")
    assert lib.cli.main(["lucency", str(CORPUS / "n1.net")]) == 0
