import json
import os
import pathlib
import subprocess
import sys

import pytest

from lucentnet import cli, document_of, serialize_net
from lucentnet.cli import main
from test_fast_short_circuit import forkjoin

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def corpus_file(ident):
    return str(CORPUS / f"{ident}.net")


def test_lucency_exit_codes(capsys):
    assert main(["lucency", corpus_file("n1")]) == 0
    assert "lucent" in capsys.readouterr().out
    assert main(["lucency", corpus_file("n3")]) == 1
    out = capsys.readouterr().out
    assert "not lucent" in out and "t1" in out and "t4" in out


def test_lucency_undecided_exit(capsys):
    assert main(["lucency", corpus_file("n3"), "--max-states", "3"]) == 3


def test_home_clusters_exit_codes(capsys):
    assert main(["home-clusters", corpus_file("n1")]) == 0
    assert "{p4}" in capsys.readouterr().out
    assert main(["home-clusters", corpus_file("n3")]) == 1
    assert "no home clusters" in capsys.readouterr().out
    assert main(["home-clusters", corpus_file("n1"), "--method", "direct"]) == 0
    capsys.readouterr()


NOT_PROPER = "short-circuit: not applicable to this net"


def _home_report(capsys):
    """The home-cluster part of a JSON report: all of ``home-clusters``'s
    output, one section of ``analyze``'s."""
    out = json.loads(capsys.readouterr().out)
    return out if "details" in out else out["home_clusters"]


def test_short_circuit_stands_aside_on_non_proper_nets(tmp_path, capsys):
    # {p} is home, and {p, x} above it makes the short-circuited net
    # unbounded: t2 has no output place, so the two methods need not agree
    sink = tmp_path / "sink.net"
    sink.write_text("net sink\nplace a init 1\nplace p\nplace x\ntrans t1\ntrans t2\n"
                    "arc a -> t1\narc t1 -> p\narc t1 -> x\narc x -> t2\n")
    for argv in (["analyze"], ["home-clusters"]):
        assert main(argv + [str(sink), "--format", "json"]) == 0
        report = _home_report(capsys)
        assert report["home_clusters"] == [["p"]]
        home = next(d for d in report["details"] if d["cluster"] == ["p"])
        assert (home["is_home"], home["short_circuit"], home["note"]) == (True, None, NOT_PROPER)
    # t has no input place: [p] is a home marking, but the state space is
    # unbounded, so neither method decides {p, u}
    source = tmp_path / "source.net"
    source.write_text("net source\nplace p\ntrans t\ntrans u\narc t -> p\narc p -> u\n")
    for method in ("short-circuit", "both"):
        argv = ["home-clusters", str(source), "--method", method, "--format", "json"]
        assert main(argv) == 3
        pu = next(d for d in _home_report(capsys)["details"] if d["cluster"] == ["p", "u"])
        assert (pu["is_home"], pu["short_circuit"]) == (None, None)
        assert NOT_PROPER in pu["note"]


def test_analyze_text(capsys):
    assert main(["analyze", corpus_file("n5")]) == 0
    out = capsys.readouterr().out
    assert "lucent: yes" in out
    assert "fully transparent: no" in out


def test_analyze_json_deterministic(capsys):
    assert main(["analyze", corpus_file("n2"), "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", corpus_file("n2"), "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert '"lucent": {' in first and '"value": false' in first
    assert '"schema_version": 1' in first


def test_analyze_reports_home_clusters_json(capsys):
    assert main(["analyze", corpus_file("n1"), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"home_clusters": [\n      [\n        "p4"\n      ]\n    ]' in out


def test_reach_dump(capsys):
    assert main(["reach", corpus_file("n2")]) == 0
    out = capsys.readouterr().out
    assert "6 states" in out
    assert main(["reach", corpus_file("n2"), "--max-states", "2"]) == 3
    capsys.readouterr()


def test_input_errors(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.net")]) == 2
    assert main(["analyze", str(tmp_path)]) == 2  # a directory cannot be read
    bad = tmp_path / "bad.net"
    bad.write_text("place p1\n")
    assert main(["lucency", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_paper_suite(capsys):
    assert main(["paper-suite", "--random", "8", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "result: ok" in out
    assert "home-cluster-implies-lucent" in out


def test_paper_suite_json(capsys):
    assert main(["paper-suite", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"anomalies": []' in out


@pytest.mark.parametrize("cap", range(1, 12))
def test_paper_suite_under_a_small_cap_is_undecided(cap, capsys):
    # n4, the largest reference net, has 11 states: below that the cap
    # leaves reference expectations undecided, which is no anomaly
    code = 3 if cap <= 10 else 0
    assert main(["paper-suite", "--max-states", str(cap)]) == code
    out, err = capsys.readouterr()
    assert not err.startswith("error:")
    assert out.splitlines()[-1] == ("result: ok" if code == 0
                                    else "result: undecided (exploration truncated)")
    assert main(["paper-suite", "--max-states", str(cap), "--format", "json"]) == code
    out, err = capsys.readouterr()
    assert not err.startswith("error:")
    result = json.loads(out)
    assert result["anomalies"] == []
    # an expectation the cap leaves undecided is listed apart from the failed ones
    assert result["expectations"]["failed"] == []
    if cap <= 10:
        assert result["expectations"]["undecided"]
    else:
        assert "undecided" not in result["expectations"]


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_states_must_be_positive(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lucency", corpus_file("n1"), "--max-states", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max-states must be a positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_negative_random_count_is_an_input_error(fmt, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paper-suite", "--random", "-3", "--format", fmt])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--random must be a non-negative integer" in err
    assert "Traceback" not in err


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.net"
    bad.write_bytes(b"net x\nplace p init 1\n# caf\xe9\ntrans t\narc p -> t\n")
    assert main(["lucency", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "UTF-8" in err


def test_file_input_builds_the_net_once(monkeypatch, capsys):
    from lucentnet import net as net_module
    built = []
    init = net_module.PetriNet.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(net_module.PetriNet, "__init__", counting)
    assert main(["lucency", corpus_file("n1")]) == 0
    capsys.readouterr()
    assert len(built) == 1


@pytest.mark.parametrize("argv,handler", [
    (["analyze", corpus_file("n1")], "_cmd_analyze"),
    (["lucency", corpus_file("n1")], "_cmd_lucency"),
    (["home-clusters", corpus_file("n1")], "_cmd_home_clusters"),
    (["reach", corpus_file("n1")], "_cmd_reach"),
    (["paper-suite"], "_cmd_suite"),
])
def test_ctrl_c_exits_130_without_a_traceback(monkeypatch, capsys, argv, handler):
    def interrupted(args, limits):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, handler, interrupted)
    assert main(argv) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")


def test_parse_and_decode_errors_count_lines_alike(tmp_path, capsys):
    # a form feed or U+2028 inside a comment ends neither the comment nor the line
    for separator in ("\x0c", "\x85", "\u2028", " "):
        bad = tmp_path / "bad.net"
        bad.write_bytes(f"net x # a{separator}b\nplace p\nwidget\n".encode())
        assert main(["lucency", str(bad)]) == 2
        assert "line 3: unknown statement 'widget'" in capsys.readouterr().err
        bad.write_bytes(f"net x # a{separator}b\nplace p\n".encode() + b"# \xff\n")
        assert main(["lucency", str(bad)]) == 2
        assert "line 3: not UTF-8 text" in capsys.readouterr().err


def _cli_process(argv, stdout, **env):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    return subprocess.Popen([sys.executable, "-m", "lucentnet.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_capped_paper_suite_output_does_not_depend_on_the_hash_seed(fmt):
    # under this cap the undecided rows print sets of markings
    outs = []
    for hash_seed in ("1", "2"):
        proc = _cli_process(["paper-suite", "--max-states", "4", "--format", fmt],
                            subprocess.PIPE, PYTHONHASHSEED=hash_seed)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 3 and err == b""
        outs.append(out)
    assert outs[0] == outs[1]
    assert b"reachable_markings" in outs[0]


def test_closed_output_exits_141_without_a_message(tmp_path):
    # forkjoin(10)'s state space is about 1 MB of JSON, far more than a pipe
    # holds, so the output is still being written when the reader leaves
    path = tmp_path / "fj.net"
    path.write_text(serialize_net(document_of("fj", *forkjoin(10))))
    proc = _cli_process(["reach", str(path), "--format", "json"], subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_output_is_not_an_input_error():
    with open("/dev/full", "wb") as full:
        proc = _cli_process(["analyze", corpus_file("n1")], full)
        assert proc.wait(timeout=120) == 1
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert err.startswith("error: ") and "Traceback" not in err


# -- one parser for every call in a process --------------------------------

EVERY_SUBCOMMAND = [
    ["analyze", corpus_file("n1"), "--format", "json"],
    ["analyze", corpus_file("n3")],
    ["lucency", corpus_file("n3")],
    ["lucency", "no-such.net"],
    ["home-clusters", corpus_file("n1"), "--method", "direct"],
    ["home-clusters", corpus_file("n2"), "--format", "json"],
    ["reach", corpus_file("n2")],
    ["reach", corpus_file("n4"), "--max-states", "3", "--format", "json"],
    ["paper-suite", "--max-states", "4"],
]


def _in_process(argv, capsys):
    """The exit code and the bytes written to stdout and stderr by one call of ``main``."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own exits: --help and bad options
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


def _fresh(argv):
    """What a new process prints for ``argv``: its exit code, stdout and stderr."""
    proc = _cli_process(argv, subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def test_one_process_runs_every_subcommand_as_new_processes_do(capsys):
    want = [_fresh(argv) for argv in EVERY_SUBCOMMAND]
    assert {code for code, _, _ in want} == {0, 1, 2, 3}
    parser = cli._parser()
    for _ in range(2):  # each subcommand in turn, twice, on the one parser
        assert [_in_process(argv, capsys) for argv in EVERY_SUBCOMMAND] == want
    assert cli._parser() is parser


def test_max_states_zero_exits_2_on_every_call(capsys):
    argv = ["lucency", corpus_file("n1"), "--max-states", "0"]
    want = _fresh(argv)
    assert want[0] == 2 and b"--max-states must be a positive integer" in want[2]
    assert [_in_process(argv, capsys) for _ in range(2)] == [want, want]


@pytest.mark.parametrize("command", [[], ["analyze"], ["lucency"], ["home-clusters"],
                                     ["reach"], ["paper-suite"]])
def test_help_from_the_reused_parser_matches_a_new_process(command, capsys, monkeypatch):
    # help is wrapped to the terminal width, which COLUMNS fixes for both
    monkeypatch.setenv("COLUMNS", "100")
    want = _fresh(command + ["--help"])
    assert want[0] == 0 and want[1].startswith(b"usage: lucentnet")
    assert [_in_process(command + ["--help"], capsys) for _ in range(2)] == [want, want]
