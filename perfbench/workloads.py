"""Seeded inputs, op definitions and independent output checks.

An *op* is one ``redei_berge.cli.main(argv)`` call.  Each workload turns a
seed into a pool of ops that repeats a fixed rotation of inputs; the
program sees only the generated ``--arcs`` specs and weight-JSON files.  The checks use nothing from the program: they recompute a
known invariant of each output by an independent route (a subset DP over
Hamiltonian paths written here), so a wrong result is caught even when
the program agrees with itself.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

class Op(NamedTuple):
    kind: str  # e.g. "compute:tournament" or "hamps:T14"
    argv: tuple[str, ...]
    expect: dict  # what the check needs besides the output
    slot: int = 0  # place in the rotation; the repeats of a slot do the same work


class Outcome(NamedTuple):
    rc: int | None  # None when cli.main raised
    stdout: str
    stderr: str


# ------------------------------------------------------------ generators


def random_digraph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Each of the n^2 arcs, loops included, with probability 1/2."""
    return [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.5]


def random_tournament(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u in range(n)
        for v in range(u + 1, n)
    ]


def random_two_cycle_free(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Loops with probability 1/2; each pair is empty, u->v or v->u."""
    arcs = []
    for u in range(n):
        if rng.random() < 0.5:
            arcs.append((u, u))
        for v in range(u + 1, n):
            arcs.append(rng.choice([None, (u, v), (v, u)]))
    return sorted(a for a in arcs if a is not None)


GENERATORS = {
    "random": random_digraph,
    "tournament": random_tournament,
    "two-cycle-free": random_two_cycle_free,
}


def arcs_spec(n: int, arcs: list[tuple[int, int]]) -> str:
    """The ``--arcs`` form: header and arcs joined by ';'."""
    return ";".join([str(n), *(f"{u} {v}" for u, v in sorted(arcs))])


def random_weights(rng: random.Random, n: int) -> dict[str, str]:
    """A rational t(u, v) for every ordered pair, as the weight JSON's map."""
    return {
        f"{u},{v}": str(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for u in range(n)
        for v in range(n)
    }


# --------------------------------------------------------------- workloads

COMPUTE_N = 8
DEFORMED_N = 7
CHECK_N = 7
# Each workload is a rotation of slots with one seeded input per slot.  A
# pool repeats the rotation REPEATS times, each repeat of a slot's input
# under a fresh seeded relabelling of its vertices: the same work on an
# isomorphic input, which a result cache in the program cannot answer.
REPEATS = 40
COMPUTE_CYCLE = ("random", "tournament", "two-cycle-free", "deformed")
CHECK_SLOTS = 9
# (shape, n) per slot of the check-hamps rotation, T a tournament and D a
# random digraph; the n = 12 tournament runs the mod-4 odd-cycle DFS.  No
# n >= 15 slot: their DP tables make those ops the most sensitive to a busy
# host and the longest, and the run needs many short repeats.  Set-up warms
# with the last op of each subcommand in the pool, so the rotation ends on
# the cheap slot.
HAMPS_CYCLE = (("T", 14), ("D", 14), ("T", 14), ("T", 12))


def relabel_arcs(arcs: list[tuple[int, int]], perm: list[int]) -> list[tuple[int, int]]:
    return sorted((perm[u], perm[v]) for u, v in arcs)


def relabel_weights(table: dict[str, str], perm: list[int]) -> dict[str, str]:
    pairs = (tuple(map(int, key.split(","))) for key in table)
    return {f"{perm[u]},{perm[v]}": table[f"{u},{v}"] for u, v in sorted(pairs)}


def compute_pool(seed: int, input_dir: Path) -> list[Op]:
    rng = random.Random(f"compute/{seed}")
    input_dir.mkdir(parents=True, exist_ok=True)
    bases = [
        random_weights(rng, DEFORMED_N) if kind == "deformed" else GENERATORS[kind](rng, COMPUTE_N)
        for kind in COMPUTE_CYCLE
    ]
    ops = []
    for r in range(REPEATS):
        for slot, (kind, base) in enumerate(zip(COMPUTE_CYCLE, bases)):
            if kind == "deformed":
                table = relabel_weights(base, rng.sample(range(DEFORMED_N), DEFORMED_N))
                path = input_dir / f"weights-{r:03d}.json"
                path.write_text(json.dumps({"n": DEFORMED_N, "t": table}) + "\n")
                argv = ("deformed", "--format", "json", "--input", str(path))
                ops.append(Op("deformed", argv, {"n": DEFORMED_N, "t": table}, slot))
            else:
                arcs = relabel_arcs(base, rng.sample(range(COMPUTE_N), COMPUTE_N))
                argv = ("compute", "--format", "json", "--arcs", arcs_spec(COMPUTE_N, arcs))
                ops.append(Op(f"compute:{kind}", argv, {"n": COMPUTE_N, "arcs": arcs}, slot))
    return ops


def check_hamps_pool(seed: int, input_dir: Path) -> list[Op]:
    """CHECK_SLOTS compute --check slots, then the hamps slots."""
    rng = random.Random(f"check-hamps/{seed}")
    shapes = [("C", CHECK_N)] * CHECK_SLOTS + list(HAMPS_CYCLE)
    generate = {"C": random_digraph, "D": random_digraph, "T": random_tournament}
    bases = [generate[shape](rng, n) for shape, n in shapes]
    ops = []
    for _ in range(REPEATS):
        for slot, ((shape, n), base) in enumerate(zip(shapes, bases)):
            arcs = relabel_arcs(base, rng.sample(range(n), n))
            spec = arcs_spec(n, arcs)
            if shape == "C":
                argv = ("compute", "--check", "--format", "json", "--arcs", spec)
                ops.append(Op("check", argv, {"n": n, "arcs": arcs}, slot))
            else:
                argv = ("hamps", "--format", "json", "--arcs", spec)
                expect = {"n": n, "tournament": shape == "T"}
                ops.append(Op(f"hamps:{shape}{n}", argv, expect, slot))
    return ops


# --------------------------------------------------------- independent checks


def hamiltonian_path_sum(n: int, weight: Callable[[int, int], Fraction | int]):
    """Sum over all Hamiltonian paths of the product of arc weights, by a
    DP over (visited set, last vertex); 1 for n = 0."""
    if n == 0:
        return 1
    w = [[weight(u, v) if u != v else 0 for v in range(n)] for u in range(n)]
    table = [[0] * n for _ in range(1 << n)]
    for v in range(n):
        table[1 << v][v] = 1
    for mask in range(1, 1 << n):
        row = table[mask]
        for last in range(n):
            count = row[last]
            if not count:
                continue
            for nxt in range(n):
                if not mask >> nxt & 1 and w[last][nxt]:
                    table[mask | 1 << nxt][nxt] += count * w[last][nxt]
    return sum(table[(1 << n) - 1])


def _parse_powersum(text: str) -> dict[str, Fraction]:
    return {key: Fraction(value) for key, value in json.loads(text).items()}


def _check_powersum_zeta(expect: dict, stdout: str) -> str | None:
    """Coefficients are integers and sum to the number of Hamiltonian paths
    of the complement (loops play no part)."""
    terms = _parse_powersum(stdout)
    if any(c.denominator != 1 for c in terms.values()):
        return "non-integer coefficient"
    arcs = set(map(tuple, expect["arcs"]))
    hamps = hamiltonian_path_sum(expect["n"], lambda u, v: (u, v) not in arcs)
    zeta = sum(terms.values())
    return None if zeta == hamps else f"zeta {zeta} != complement hamps {hamps}"


def _check_deformed(expect: dict, stdout: str) -> str | None:
    """Zeta equals the sum over listings of the product of s = t + 1 over
    consecutive pairs."""
    t = {key: Fraction(value) for key, value in expect["t"].items()}
    total = hamiltonian_path_sum(expect["n"], lambda u, v: t.get(f"{u},{v}", 0) + 1)
    zeta = sum(_parse_powersum(stdout).values())
    return None if zeta == total else f"zeta {zeta} != weighted path sum {total}"


def _check_hamps(expect: dict, stdout: str) -> str | None:
    data = json.loads(stdout)
    hamps = int(data["hamps"])
    if data["n"] != expect["n"] or data["tournament"] != expect["tournament"]:
        return "output describes another digraph"
    reports = {k: v for k, v in data.items() if isinstance(v, dict)}
    if not all(r.get("pass") is True for r in reports.values()):
        return "a report does not pass"
    if int(reports["berge"]["hamps"]) != hamps:
        return "berge report counts another number of paths"
    if expect["tournament"]:
        if hamps % 2 != 1 or "redei" not in reports:
            return f"Redei parity fails: {hamps} paths"
        mod4 = reports.get("mod4")
        if mod4 and not (
            mod4["lhs_mod4"] == hamps % 4 == (1 + 2 * mod4["odd_cycles"]) % 4
        ):
            return "mod-4 report inconsistent"
    return None


def check(op: Op, outcome: Outcome) -> str | None:
    """None when the output is right, else the reason it is not."""
    if outcome.rc != 0:
        return f"exit {outcome.rc}: {outcome.stderr.strip()[-200:]}"
    try:
        if op.kind == "deformed":
            return _check_deformed(op.expect, outcome.stdout)
        if op.kind.startswith("compute:"):
            return _check_powersum_zeta(op.expect, outcome.stdout)
        if op.kind == "check":
            if "agrees" not in outcome.stderr:
                return "definition route does not agree"
            return _check_powersum_zeta(op.expect, outcome.stdout)
        return _check_hamps(op.expect, outcome.stdout)
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"


class Workload(NamedTuple):
    pool: Callable[[int, Path], list[Op]]
    cycle: int  # ops per rotation


WORKLOADS = {
    "compute": Workload(compute_pool, len(COMPUTE_CYCLE)),
    "check-hamps": Workload(check_hamps_pool, CHECK_SLOTS + len(HAMPS_CYCLE)),
}
