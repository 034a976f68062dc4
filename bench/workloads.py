"""The benchmark's workloads: the nets each one builds and the CLI calls it times.

Every input is made from the run's ``--seed``.  For the three scalable
families the seed only shuffles the order of the declarations in the net
file, so the net (and the work an operation does) is the same on every
seed while the bytes fed to the parser are not.  For ``suite-batch`` the
seed picks the generator seeds of the batches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

FORKJOIN_K = 10     # forkjoin(k): 2^k+1 states, k*2^k+2 edges
RING_L = 70         # ring(L): L states, L edges, L clusters
CHAIN_L = 500       # chain(L): L+1 states, 2L edges, 4L arcs
SUITE_N = 30        # random nets per paper-suite batch
SUITE_BATCHES = 400  # distinct batches available to one run, used in order


@dataclass(frozen=True)
class Structure:
    """A net as plain data, independent of the program's own classes."""

    name: str
    places: Tuple[Tuple[str, int], ...]   # (place, initial tokens)
    transitions: Tuple[str, ...]
    arcs: Tuple[Tuple[str, str], ...]

    def text(self, rng: random.Random) -> str:
        """The net in lucentnet's text format, declarations shuffled by ``rng``."""
        places = list(self.places)
        transitions = list(self.transitions)
        arcs = list(self.arcs)
        for part in (places, transitions, arcs):
            rng.shuffle(part)
        lines = [f"net {self.name}"]
        lines += [f"place {p} init {n}" if n else f"place {p}" for p, n in places]
        lines += [f"trans {t}" for t in transitions]
        lines += [f"arc {a} -> {b}" for a, b in arcs]
        return "\n".join(lines) + "\n"


def forkjoin(k: int) -> Structure:
    """p0 -> tf -> a_i; a_i -> {tx_i, ty_i} -> d_i; all d_i -> tj -> p0."""
    places = [("p0", 1)] + [(f"a{i}", 0) for i in range(k)] + [(f"d{i}", 0) for i in range(k)]
    transitions = ["tf", "tj"] + [f"tx{i}" for i in range(k)] + [f"ty{i}" for i in range(k)]
    arcs = [("p0", "tf"), ("tj", "p0")]
    for i in range(k):
        arcs += [("tf", f"a{i}"), (f"a{i}", f"tx{i}"), (f"a{i}", f"ty{i}"),
                 (f"tx{i}", f"d{i}"), (f"ty{i}", f"d{i}"), (f"d{i}", "tj")]
    return Structure("forkjoin", tuple(places), tuple(transitions), tuple(arcs))


def ring(length: int) -> Structure:
    """p_i -> t_i -> p_(i+1 mod L), one token on p0."""
    places = [("p0", 1)] + [(f"p{i}", 0) for i in range(1, length)]
    transitions = [f"t{i}" for i in range(length)]
    arcs = []
    for i in range(length):
        arcs += [(f"p{i}", f"t{i}"), (f"t{i}", f"p{(i + 1) % length}")]
    return Structure("ring", tuple(places), tuple(transitions), tuple(arcs))


def chain(length: int) -> Structure:
    """p_i -> {a_i, b_i} -> p_(i+1) for i < L; p_L is a sink place."""
    places = [("p0", 1)] + [(f"p{i}", 0) for i in range(1, length + 1)]
    transitions = [f"a{i}" for i in range(length)] + [f"b{i}" for i in range(length)]
    arcs = []
    for i in range(length):
        arcs += [(f"p{i}", f"a{i}"), (f"p{i}", f"b{i}"),
                 (f"a{i}", f"p{i + 1}"), (f"b{i}", f"p{i + 1}")]
    return Structure("chain", tuple(places), tuple(transitions), tuple(arcs))


@dataclass
class Prepared:
    """One workload's inputs: the CLI calls of the operations, in order, and
    for a file workload the net behind its file."""

    workload: str
    argvs: List[List[str]]           # operation i uses argvs[i % len(argvs)]
    nets: Dict[str, Tuple[Structure, str]] = field(default_factory=dict)  # file -> (net, text)


def _file_workload(workload: str, structure: Structure, argv_tail: List[str],
                   seed: int, workdir: Path) -> Prepared:
    text = structure.text(random.Random(f"{workload}:{seed}"))
    path = workdir / f"{workload}-{seed}.net"
    path.write_text(text, encoding="utf-8")
    argv = [argv_tail[0], str(path)] + argv_tail[1:]
    return Prepared(workload, [argv], nets={str(path): (structure, text)})


def prepare(workload: str, seed: int, workdir: Path) -> Prepared:
    """Build the inputs of one workload; this is the benchmark's set-up."""
    if workload == "forkjoin-analyze":
        return _file_workload(workload, forkjoin(FORKJOIN_K),
                              ["analyze", "--format", "json"], seed, workdir)
    if workload == "ring-home":
        return _file_workload(workload, ring(RING_L),
                              ["home-clusters", "--method", "both", "--format", "json"],
                              seed, workdir)
    if workload == "chain-lucency":
        return _file_workload(workload, chain(CHAIN_L),
                              ["lucency", "--format", "json"], seed, workdir)
    if workload == "suite-batch":
        # batches never share a generated net: consecutive seeds step by SUITE_N
        base = random.Random(f"suite-batch:{seed}").randrange(10 ** 6)
        seeds = [base + SUITE_N * i for i in range(SUITE_BATCHES)]
        argvs = [["paper-suite", "--random", str(SUITE_N), "--seed", str(s),
                  "--format", "json"] for s in seeds]
        return Prepared(workload, argvs)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("forkjoin-analyze", "ring-home", "suite-batch", "chain-lucency")
