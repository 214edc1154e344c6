"""Command-line front end.

Subcommands:

- ``compute``      print the Redei--Berge function of a digraph in the
                   power-sum basis, optionally cross-checked against the
                   definition route (the listing sum, from paths)
- ``deformed``     print the deformed function for a JSON weight matrix
- ``hamps``        Hamiltonian-path count plus the congruence checks
- ``verify``       sweep a theorem or the lemma battery over exhaustive or
                   seeded-random instance streams
- ``tournaments``  stream all tournaments on n vertices in enumeration order

Exit status: 0 all good, 1 a verification failed (the failing instance is
echoed in edge-list format), 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import random
import sys
from functools import cache, partial
from typing import Callable, Iterator, Sequence

from . import hamilton
from .core import (
    ArcWeights,
    _matches_definition,
    deformed_powersum,
    in_doubled_odd_cone,
    redei_berge_powersum,
    redei_berge_tournament,
    redei_berge_two_cycle_free,
)
from .digraph import (
    Digraph,
    _exhaustive,
    _random,
    enumerate_tournaments,
    format_digraph,
    parse_digraph,
)
from .hamilton import count_hamiltonian_paths, verify_berge, verify_mod4, verify_redei
from .limits import (
    CYCLE_SUM_CAP,
    DP_VERTEX_CAP,
    ENUMERATION_CAP,
    FACTORIAL_CAP,
    ODD_CYCLE_CAP,
    _check_cap,
)


# ---------------------------------------------------------------- input


def _read_text(path: str) -> str:
    """The text of the file at ``path``, or of stdin for '-'."""
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _read_digraph(args: argparse.Namespace) -> Digraph:
    if args.arcs is not None:
        return parse_digraph(args.arcs.replace(";", "\n"))
    if args.input is not None:
        return parse_digraph(_read_text(args.input))
    raise ValueError("no digraph given: use --input FILE or --arcs 'n;u v;...'")


def _read_weights(args: argparse.Namespace) -> ArcWeights:
    if args.input is None:
        raise ValueError("no weight matrix given: use --input FILE (or '-')")
    return ArcWeights.from_json(_read_text(args.input))


# ------------------------------------------------------------- checks


def _check_thm1(d: Digraph) -> tuple[bool, dict]:
    by_formula = redei_berge_powersum(d)
    if _matches_definition(d, by_formula):
        return True, {}
    return False, {"powersum": json.loads(by_formula.to_json())}


def _check_thm2(d: Digraph) -> tuple[bool, dict]:
    general = redei_berge_powersum(d)
    ok = redei_berge_tournament(d) == general and in_doubled_odd_cone(general)
    return ok, {} if ok else {"powersum": json.loads(general.to_json())}


def _check_thm3(d: Digraph) -> tuple[bool, dict]:
    # the two-cycle-free form is the signed formula's partition sum, so
    # comparing the two would compare one computation with itself
    positive_form = redei_berge_two_cycle_free(d)
    ok = all(c.denominator == 1 and c >= 0 for c in positive_form.terms.values())
    return ok, {} if ok else {"powersum": json.loads(positive_form.to_json())}


def _check_antipode(d: Digraph) -> tuple[bool, dict]:
    here = redei_berge_powersum(d)
    there = redei_berge_powersum(d.complement())
    ok = here.omega() == there and here.antipode() == there.scale((-1) ** d.n)
    return ok, {}


def _check_zeta(d: Digraph) -> tuple[bool, dict]:
    value = redei_berge_powersum(d).zeta()
    hamps = count_hamiltonian_paths(d.complement())
    return value == hamps, {"zeta": str(value), "hamps_complement": str(hamps)}


def _report_check(verify: Callable[[Digraph], dict]) -> Callable:
    """A sweep check from a congruence report: its verdict and the report."""

    def check(d: Digraph) -> tuple[bool, dict]:
        report = verify(d)
        return report["pass"], report

    return check


def _check_lemmas(d: Digraph) -> tuple[bool, dict]:
    from .oracles import (
        count_friendly_listings,
        friendly_product,
        redei_berge_by_signed_perms,
        signed_linear_sum,
    )

    failures = []
    hamps = count_hamiltonian_paths(d.complement())
    if signed_linear_sum(d) != hamps:
        failures.append("signed linear-subset sum != hamps of complement")
    if redei_berge_by_signed_perms(d) != redei_berge_powersum(d):
        failures.append("per-permutation signed sums do not rebuild the power-sum form")
    for levels in ([1] * d.n, [1 + v % 2 for v in range(d.n)]):
        if count_friendly_listings(d, levels) != friendly_product(d, levels):
            failures.append(f"friendly-listing count != level product for {levels}")
            break
    return not failures, {"failures": failures}


def _lemma_preamble() -> list[str]:
    """Instance-independent identity checks, run once per ``verify lemmas``.
    The oracles are imported here and in :func:`_check_lemmas`, so only
    that target pays for them."""
    from .oracles import (
        count_listings_containing,
        count_perms_containing,
        cycle_type,
        is_arc_set_of_path_cover,
        is_linear,
        polya_sum,
        signed_subset_sum,
    )
    from .polynomials import PowerSumPolynomial

    failures = []
    for size in range(9):
        if signed_subset_sum(size) != (1 if size == 0 else 0):
            failures.append(f"signed subset sum wrong for size {size}")
    cover_example = Digraph(8, [(0, 3), (3, 2), (1, 7), (6, 5)])
    if count_listings_containing(cover_example) != 24:
        failures.append("listing count for a 4-path cover is not 4!")
    if count_perms_containing(cover_example) != 24:
        failures.append("permutation count for a 4-path cover is not 4!")
    cyclic = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    if count_listings_containing(cyclic) != 0 or is_linear(cyclic):
        failures.append("cyclic arc set misclassified")
    sample = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)]
    for r in range(4):
        for subset in itertools.combinations(sample, r):
            arc_set = Digraph(4, subset)
            if is_linear(arc_set) != is_arc_set_of_path_cover(arc_set):
                failures.append(f"linearity criteria disagree on {sorted(subset)}")
    for sigma in ((0, 1, 2), (1, 2, 0), (1, 0, 2)):
        p_type = PowerSumPolynomial({cycle_type(sigma): 1})
        if polya_sum(sigma) != p_type.to_fundamental():
            failures.append(f"cycle-colouring sum wrong for {sigma}")
    return failures


# target: (instance kind, check, vertex cap of the routes the check calls:
# the cycle-sum engine for the power-sum and definition forms, the odd-cycle
# count for mod 4, the path engines for the parities, n! for the lemmas'
# sweeps)
_CHECKS: dict[str, tuple[str, Callable[[Digraph], tuple[bool, dict]], int]] = {
    "thm1": ("digraph", _check_thm1, CYCLE_SUM_CAP),
    "thm2": ("tournament", _check_thm2, CYCLE_SUM_CAP),
    "thm3": ("two-cycle-free", _check_thm3, CYCLE_SUM_CAP),
    "antipode": ("digraph", _check_antipode, CYCLE_SUM_CAP),
    "zeta": ("digraph", _check_zeta, CYCLE_SUM_CAP),
    "redei": ("tournament", _report_check(verify_redei), DP_VERTEX_CAP),
    "mod4": ("tournament", _report_check(verify_mod4), ODD_CYCLE_CAP),
    "berge": ("digraph", _report_check(verify_berge), DP_VERTEX_CAP),
    "lemmas": ("digraph", _check_lemmas, FACTORIAL_CAP),
}


# ------------------------------------------------------------- sweeps


def _stream(
    kind: str, exhaustive: bool, count: int, max_n: int, seed: int
) -> Iterator[tuple[int, Sequence]]:
    """A sweep's instances as (n, slot choices) pairs, rebuilt from plain
    values in any process; ``Digraph(n, filter(None, choices))`` builds one."""
    if exhaustive:
        return zip(itertools.repeat(max_n), _exhaustive(kind, max_n)[1])
    rng = random.Random(seed)
    sizes = (rng.randint(0, max_n) for _ in range(count))
    return ((n, _random(rng, kind, n)) for n in sizes)


def _sweep_chunk(
    target: str, spec: tuple, jobs: int, keep_going: bool, k: int
) -> list[tuple[int, str, dict]]:
    """The failures in range k of ``jobs``: indices total*k // jobs up to
    total*(k+1) // jobs of ``_stream(*spec)``, built only inside that range."""
    check = _CHECKS[target][1]
    start, stop = spec[2] * k // jobs, spec[2] * (k + 1) // jobs
    failures = []
    for i, (n, c) in enumerate(itertools.islice(_stream(*spec), start, stop), start):
        d = Digraph(n, filter(None, c))
        ok, detail = check(d)
        if not ok:
            failures.append((i, format_digraph(d), detail))
            if not keep_going:
                break
    return failures


def _run_sweep(
    target: str, spec: tuple, jobs: int, keep_going: bool
) -> tuple[int, list[tuple[int, str, dict]]]:
    """Returns (instances checked, failures as (index, edge list, detail)) over
    the ``spec[2]`` instances of ``_stream(*spec)``, split into the ``jobs``
    ranges that :func:`_plan` chose (:func:`_sweep_chunk`), so reports do not
    depend on the job count and no instance list is held.  The ranges are read in order, and without
    ``keep_going`` the first that fails ends the sweep; leaving the pool
    stops the workers still checking later ranges.  ``multiprocessing`` is
    imported here, so only a sweep pays for it."""
    from multiprocessing import Pool

    chunk = partial(_sweep_chunk, target, spec, jobs, keep_going)
    failures = []
    with Pool(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        for found in (pool.imap if pool else map)(chunk, range(jobs)):
            if found and not keep_going:
                return found[0][0] + 1, found
            failures += found
    return spec[2], failures


# -------------------------------------------------------- subcommands


def _cmd_compute(args: argparse.Namespace) -> int:
    d = _read_digraph(args)
    f = redei_berge_powersum(d)
    print(f.to_json() if args.format == "json" else f.to_text())
    if args.check:
        agrees = _matches_definition(d, f)
        verdict = "agrees" if agrees else "disagrees"
        print(f"definition route {verdict} in the fundamental basis", file=sys.stderr)
        if not agrees:
            return 1
    return 0


def _cmd_deformed(args: argparse.Namespace) -> int:
    weights = _read_weights(args)
    f = deformed_powersum(weights)
    print(f.to_json() if args.format == "json" else f.to_text())
    return 0


def _cmd_hamps(args: argparse.Namespace) -> int:
    report = hamilton._hamps_report(_read_digraph(args))
    if args.format == "json":
        print(json.dumps(report))
    else:
        print(f"n = {report['n']}")
        print(f"hamps = {report['hamps']}")
        if not report["tournament"]:
            print("redei/mod4: skipped (not a tournament)")
        else:
            r = report["redei"]
            print(f"redei: {'pass' if r['pass'] else 'FAIL'} (count mod 2 = {r['hamps_mod2']})")
            if "mod4" in report:
                m = report["mod4"]
                print(
                    f"mod4: {'pass' if m['pass'] else 'FAIL'} "
                    f"({m['lhs_mod4']} vs 1 + 2*{m['odd_cycles']} = {m['rhs_mod4']} mod 4)"
                )
            else:
                print(f"mod4: skipped (above the odd-cycle cap of {ODD_CYCLE_CAP})")
        b = report["berge"]
        print(
            f"berge: {'pass' if b['pass'] else 'FAIL'} "
            f"(hamps {b['lhs_mod2']} vs complement {b['rhs_mod2']} mod 2)"
        )
    return 0 if all(r["pass"] for r in report.values() if isinstance(r, dict)) else 1


def _plan(args: argparse.Namespace) -> tuple[tuple, dict, int]:
    """The sweep of ``verify``: the spec of :func:`_stream`, the mode fields
    of the JSON report and the worker count, at most the usable CPUs and
    the instance count.  Refuses, before any instance is built or checked,
    a sweep whose sizes are negative or above the target's cap, whose
    exhaustive stream or random count is above the enumeration cap, or
    whose worker count is below 1."""
    kind, _, cap = _CHECKS[args.target]

    def vertices(flag: str, n: int) -> int:
        if n < 0:
            raise ValueError(f"{flag} must be nonnegative, got {n}")
        _check_cap(n, f"vertices ({flag})", cap, args.target)
        return n

    if args.exhaustive is not None:
        n = vertices("--exhaustive", args.exhaustive)
        spec = (kind, True, _exhaustive(kind, n)[0], n, args.seed)
        mode = {"mode": "exhaustive", "n": n}
    else:
        if args.random < 0:
            raise ValueError(f"--random must be nonnegative, got {args.random}")
        _check_cap(args.random, "random instances", ENUMERATION_CAP, "enumeration")
        n = vertices("--max-n", args.max_n)
        spec = (kind, False, args.random, n, args.seed)
        mode = {"mode": "random", "count": args.random, "max_n": n, "seed": args.seed}
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may use
    else:
        cpus = os.cpu_count() or 1
    return spec, mode, max(1, min(args.jobs or cpus, cpus, spec[2]))


def _cmd_verify(args: argparse.Namespace) -> int:
    spec, mode, jobs = _plan(args)
    preamble_failures = _lemma_preamble() if args.target == "lemmas" else []
    checked, failures = _run_sweep(args.target, spec, jobs, args.keep_going)
    passed = checked - len(failures)
    ok = not failures and not preamble_failures
    if args.format == "json":
        print(
            json.dumps(
                {
                    "target": args.target,
                    **mode,
                    "instances": spec[2],
                    "checked": checked,
                    "passed": passed,
                    "preamble_failures": preamble_failures,
                    "failures": [
                        {"index": i, "digraph": text, "detail": detail}
                        for i, text, detail in failures
                    ],
                    "pass": ok,
                }
            )
        )
    else:
        for line in preamble_failures:
            print(f"PREAMBLE FAIL: {line}")
        print(f"{args.target}: {passed}/{checked} pass")
        for i, text, detail in failures:
            print(f"FAIL at instance #{i}; replay with `compute` on:")
            print(text, end="")
            if detail:
                print(f"detail: {json.dumps(detail)}")
    return 0 if ok else 1


def _cmd_tournaments(args: argparse.Namespace) -> int:
    for index, d in enumerate(enumerate_tournaments(args.n)):
        if args.format == "json":
            print(
                json.dumps(
                    {"index": index, "n": d.n, "arcs": [list(a) for a in d.arcs()]}
                )
            )
        else:
            if index:
                print()
            print(format_digraph(d), end="")
    return 0


# --------------------------------------------------------------- main


def _add_digraph_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", metavar="FILE", help="edge-list file ('-' = stdin)")
    parser.add_argument(
        "--arcs", metavar="SPEC", help="inline digraph, e.g. '3;0 1;1 1;2 2'"
    )


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redei-berge",
        description="Exact Redei--Berge symmetric functions, Hamiltonian-path "
        "counts, and brute-force theorem verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("compute", help="power-sum form of the function of a digraph")
    _add_digraph_input(p)
    _add_format(p)
    p.add_argument(
        "--check",
        action="store_true",
        help="cross-check against the path-sum definition route (fundamental basis)",
    )
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("deformed", help="deformed function for a JSON weight matrix")
    p.add_argument("--input", metavar="FILE", help="weight JSON ('-' = stdin)")
    _add_format(p)
    p.set_defaults(fn=_cmd_deformed)

    p = sub.add_parser("hamps", help="Hamiltonian-path count and congruence checks")
    _add_digraph_input(p)
    _add_format(p)
    p.set_defaults(fn=_cmd_hamps)

    p = sub.add_parser("verify", help="sweep a theorem over instance streams")
    p.add_argument("target", choices=sorted(_CHECKS))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--exhaustive", type=int, metavar="N", help="all instances on N vertices"
    )
    group.add_argument(
        "--random", type=int, metavar="K", help="K seeded random instances"
    )
    p.add_argument("--max-n", type=int, default=5, help="max vertices for --random")
    p.add_argument("--seed", type=int, default=0, help="seed for --random")
    p.add_argument(
        "--jobs", type=int, help="workers, at least 1 (default and cap: usable CPUs)"
    )
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="report every failure instead of stopping at the first",
    )
    _add_format(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("tournaments", help="stream all tournaments on n vertices")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_tournaments)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; building it costs about a
    millisecond, as much as a small ``compute`` call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # bad input, refused sizes, unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
