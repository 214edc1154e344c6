"""Command-line front end.

Subcommands:

- ``compute``      print the Redei--Berge function of a digraph in the
                   power-sum basis, optionally cross-checked against the
                   defining listing sum
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
import itertools
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

from .core import (
    ArcWeights,
    deformed_powersum,
    in_doubled_odd_cone,
    redei_berge_by_definition,
    redei_berge_powersum,
    redei_berge_tournament,
    redei_berge_two_cycle_free,
)
from .digraph import (
    Digraph,
    DigraphFormatError,
    _random_digraph,
    _random_tournament,
    enumerate_digraphs,
    enumerate_tournaments,
    format_digraph,
    parse_digraph,
)
from .hamilton import (
    count_hamiltonian_paths,
    verify_berge,
    verify_mod4,
    verify_redei,
)
from .kernel import Permutation
from .limits import CYCLE_ENUM_CAP, DP_VERTEX_CAP, FACTORIAL_CAP, CapExceededError
from .oracles import (
    ArcSet,
    count_friendly_listings,
    count_listings_containing,
    count_perms_containing,
    friendly_product,
    is_arc_set_of_path_cover,
    is_linear,
    polya_sum,
    signed_linear_sum,
    signed_subset_sum,
    signed_sum_per_perm,
)
from .polynomials import PowerSumPolynomial


# ---------------------------------------------------------------- input


def _read_digraph(args: argparse.Namespace) -> Digraph:
    if args.arcs is not None:
        return parse_digraph(args.arcs.replace(";", "\n"))
    if args.input is not None:
        if args.input == "-":
            return parse_digraph(sys.stdin.read())
        with open(args.input, encoding="utf-8") as handle:
            return parse_digraph(handle.read())
    raise ValueError("no digraph given: use --input FILE or --arcs 'n;u v;...'")


def _read_weights(args: argparse.Namespace) -> ArcWeights:
    if args.input is None:
        raise ValueError("no weight matrix given: use --input FILE (or '-')")
    if args.input == "-":
        return ArcWeights.from_json(sys.stdin.read())
    with open(args.input, encoding="utf-8") as handle:
        return ArcWeights.from_json(handle.read())


# ------------------------------------------------------------- checks


def _check_thm1(d: Digraph) -> tuple[bool, dict]:
    by_formula = redei_berge_powersum(d)
    if by_formula.to_fundamental() == redei_berge_by_definition(d):
        return True, {}
    return False, {"powersum": json.loads(by_formula.to_json())}


def _check_thm2(d: Digraph) -> tuple[bool, dict]:
    general = redei_berge_powersum(d)
    ok = (
        redei_berge_tournament(d) == general
        and redei_berge_two_cycle_free(d) == general
        and in_doubled_odd_cone(general)
    )
    return ok, {} if ok else {"powersum": json.loads(general.to_json())}


def _check_thm3(d: Digraph) -> tuple[bool, dict]:
    general = redei_berge_powersum(d)
    positive_form = redei_berge_two_cycle_free(d)
    ok = positive_form == general and all(
        c.denominator == 1 and c >= 0 for c in positive_form.terms.values()
    )
    return ok, {} if ok else {"powersum": json.loads(general.to_json())}


def _check_antipode(d: Digraph) -> tuple[bool, dict]:
    here = redei_berge_powersum(d)
    there = redei_berge_powersum(d.complement())
    ok = here.omega() == there and here.antipode() == there.scale((-1) ** d.n)
    return ok, {}


def _check_zeta(d: Digraph) -> tuple[bool, dict]:
    value = redei_berge_powersum(d).zeta()
    hamps = count_hamiltonian_paths(d.complement()).value
    return value == hamps, {"zeta": str(value), "hamps_complement": str(hamps)}


def _check_redei(d: Digraph) -> tuple[bool, dict]:
    report = verify_redei(d)
    return report["pass"], report


def _check_mod4(d: Digraph) -> tuple[bool, dict]:
    report = verify_mod4(d)
    return report["pass"], report


def _check_berge(d: Digraph) -> tuple[bool, dict]:
    report = verify_berge(d)
    return report["pass"], report


def _check_lemmas(d: Digraph) -> tuple[bool, dict]:
    failures = []
    hamps = count_hamiltonian_paths(d.complement()).value
    if signed_linear_sum(d) != hamps:
        failures.append("signed linear-subset sum != hamps of complement")
    rebuilt: dict[tuple[int, ...], int] = {}
    for images in itertools.permutations(range(d.n)):
        sigma = Permutation(images)
        weight = signed_sum_per_perm(d, sigma)
        if weight:
            key = sigma.cycle_type
            rebuilt[key] = rebuilt.get(key, 0) + weight
    if PowerSumPolynomial(rebuilt) != redei_berge_powersum(d):
        failures.append("per-permutation signed sums do not rebuild the power-sum form")
    for levels in ([1] * d.n, [1 + v % 2 for v in range(d.n)]):
        if count_friendly_listings(d, levels) != friendly_product(d, levels):
            failures.append(f"friendly-listing count != level product for {levels}")
            break
    return not failures, {"failures": failures}


def _lemma_preamble() -> list[str]:
    """Instance-independent identity checks, run once per ``verify lemmas``."""
    failures = []
    for size in range(9):
        if signed_subset_sum(size) != (1 if size == 0 else 0):
            failures.append(f"signed subset sum wrong for size {size}")
    cover_example = ArcSet.of(8, [(0, 3), (3, 2), (1, 7), (6, 5)])
    if count_listings_containing(cover_example) != 24:
        failures.append("listing count for a 4-path cover is not 4!")
    if count_perms_containing(cover_example) != 24:
        failures.append("permutation count for a 4-path cover is not 4!")
    cyclic = ArcSet.of(3, [(0, 1), (1, 2), (2, 0)])
    if count_listings_containing(cyclic) != 0 or is_linear(cyclic):
        failures.append("cyclic arc set misclassified")
    sample = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)]
    for r in range(4):
        for subset in itertools.combinations(sample, r):
            arc_set = ArcSet.of(4, subset)
            if is_linear(arc_set) != is_arc_set_of_path_cover(arc_set):
                failures.append(f"linearity criteria disagree on {sorted(subset)}")
    for images in ((0, 1, 2), (1, 2, 0), (1, 0, 2)):
        sigma = Permutation(images)
        cycle_type = PowerSumPolynomial({sigma.cycle_type: 1})
        if polya_sum(sigma) != cycle_type.to_fundamental():
            failures.append(f"cycle-colouring sum wrong for {images}")
    return failures


# target: (instance kind, check, vertex cap of the routes the check calls)
_CHECKS: dict[str, tuple[str, Callable[[Digraph], tuple[bool, dict]], int]] = {
    "thm1": ("digraph", _check_thm1, FACTORIAL_CAP),
    "thm2": ("tournament", _check_thm2, FACTORIAL_CAP),
    "thm3": ("two-cycle-free", _check_thm3, FACTORIAL_CAP),
    "antipode": ("digraph", _check_antipode, FACTORIAL_CAP),
    "zeta": ("digraph", _check_zeta, FACTORIAL_CAP),
    "redei": ("tournament", _check_redei, DP_VERTEX_CAP),
    "mod4": ("tournament", _check_mod4, CYCLE_ENUM_CAP),
    "berge": ("digraph", _check_berge, DP_VERTEX_CAP),
    "lemmas": ("digraph", _check_lemmas, FACTORIAL_CAP),
}


# ------------------------------------------------------------- sweeps


def _exhaustive_instances(kind: str, n: int) -> Iterable[Digraph]:
    if kind == "tournament":
        return enumerate_tournaments(n)
    if kind == "two-cycle-free":
        return (d for d in enumerate_digraphs(n) if d.is_two_cycle_free())
    return enumerate_digraphs(n)


def _random_two_cycle_free(rng: random.Random, n: int) -> Digraph:
    arcs = []
    for u in range(n):
        if rng.random() < 0.5:
            arcs.append((u, u))
        for v in range(u + 1, n):
            arcs.append(rng.choice([None, (u, v), (v, u)]))
    return Digraph(n, (a for a in arcs if a is not None))


def _random_instances(
    kind: str, count: int, max_n: int, seed: int | None
) -> list[Digraph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(0, max_n)
        if kind == "tournament":
            out.append(_random_tournament(rng, n))
        elif kind == "two-cycle-free":
            out.append(_random_two_cycle_free(rng, n))
        else:
            out.append(_random_digraph(rng, n, 0.5))
    return out


def _sweep_chunk(
    target: str,
    instances: list[Digraph],
    start: int,
    keep_going: bool,
) -> list[tuple[int, bool, dict]]:
    check = _CHECKS[target][1]
    results = []
    for offset, d in enumerate(instances):
        ok, detail = check(d)
        results.append((start + offset, ok, detail))
        if not ok and not keep_going:
            break
    return results


def _run_sweep(
    target: str,
    instances: Sequence[Digraph],
    jobs: int,
    keep_going: bool,
) -> tuple[int, list[tuple[int, Digraph, dict]]]:
    """Returns (number of instances checked, failures as (index, digraph,
    detail)).  Instance-to-worker assignment is by contiguous index range,
    so reports are stable for a fixed seed regardless of job count."""
    instances = list(instances)
    jobs = max(1, min(jobs, len(instances) or 1))
    if jobs == 1:
        results = _sweep_chunk(target, instances, 0, keep_going)
    else:
        bounds = [len(instances) * k // jobs for k in range(jobs + 1)]
        chunks = [
            (instances[bounds[k] : bounds[k + 1]], bounds[k]) for k in range(jobs)
        ]
        results = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_sweep_chunk, target, chunk, start, keep_going)
                for chunk, start in chunks
                if chunk
            ]
            for future in futures:
                results.extend(future.result())
    results.sort(key=lambda item: item[0])
    failures = [(i, instances[i], detail) for i, ok, detail in results if not ok]
    if failures and not keep_going:
        first = failures[0][0]
        checked = first + 1
        failures = failures[:1]
    else:
        checked = len(instances)
    return checked, failures


# -------------------------------------------------------- subcommands


def _cmd_compute(args: argparse.Namespace) -> int:
    d = _read_digraph(args)
    f = redei_berge_powersum(d)
    print(f.to_json() if args.format == "json" else f.to_text())
    if args.check:
        agrees = f.to_fundamental() == redei_berge_by_definition(d)
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
    d = _read_digraph(args)
    hamps = count_hamiltonian_paths(d).value
    is_tournament = d.is_tournament()
    reports = {"berge": verify_berge(d)}
    if is_tournament:
        reports["redei"] = verify_redei(d)
        try:
            reports["mod4"] = verify_mod4(d)
        except CapExceededError:
            pass  # cycle enumeration capped below the path-counting cap
    if args.format == "json":
        payload = {"n": d.n, "hamps": str(hamps), "tournament": is_tournament}
        payload.update(reports)
        print(json.dumps(payload))
    else:
        print(f"n = {d.n}")
        print(f"hamps = {hamps}")
        if not is_tournament:
            print("redei/mod4: skipped (not a tournament)")
        else:
            r = reports["redei"]
            print(f"redei: {'pass' if r['pass'] else 'FAIL'} (count mod 2 = {r['hamps_mod2']})")
            if "mod4" in reports:
                m = reports["mod4"]
                print(
                    f"mod4: {'pass' if m['pass'] else 'FAIL'} "
                    f"({m['lhs_mod4']} vs 1 + 2*{m['odd_cycles']} = {m['rhs_mod4']} mod 4)"
                )
            else:
                print("mod4: skipped (cycle enumeration capped)")
        b = reports["berge"]
        print(
            f"berge: {'pass' if b['pass'] else 'FAIL'} "
            f"(hamps {b['lhs_mod2']} vs complement {b['rhs_mod2']} mod 2)"
        )
    return 0 if all(r["pass"] for r in reports.values()) else 1


def _check_sweep_size(args: argparse.Namespace, cap: int) -> None:
    """Refuses a sweep whose sizes are negative or above the target's cap,
    before any instance is built or checked."""
    if args.exhaustive is not None:
        flag, n = "--exhaustive", args.exhaustive
    elif args.random < 0:
        raise ValueError(f"--random must be nonnegative, got {args.random}")
    else:
        flag, n = "--max-n", args.max_n
    if n < 0:
        raise ValueError(f"{flag} must be nonnegative, got {n}")
    if n > cap:
        raise CapExceededError(
            f"{flag} {n} exceeds the {args.target} cap of {cap} vertices"
        )


def _cmd_verify(args: argparse.Namespace) -> int:
    kind, _check, cap = _CHECKS[args.target]
    _check_sweep_size(args, cap)
    preamble_failures: list[str] = []
    if args.target == "lemmas":
        preamble_failures = _lemma_preamble()
    if args.exhaustive is not None:
        instances = list(_exhaustive_instances(kind, args.exhaustive))
        mode = {"mode": "exhaustive", "n": args.exhaustive}
    else:
        instances = _random_instances(kind, args.random, args.max_n, args.seed)
        mode = {
            "mode": "random",
            "count": args.random,
            "max_n": args.max_n,
            "seed": args.seed,
        }
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may use
    else:
        cpus = os.cpu_count() or 1
    jobs = min(args.jobs or cpus, cpus)
    checked, failures = _run_sweep(args.target, instances, jobs, args.keep_going)
    passed = checked - len(failures)
    ok = not failures and not preamble_failures
    if args.format == "json":
        print(
            json.dumps(
                {
                    "target": args.target,
                    **mode,
                    "instances": len(instances),
                    "checked": checked,
                    "passed": passed,
                    "preamble_failures": preamble_failures,
                    "failures": [
                        {
                            "index": i,
                            "digraph": format_digraph(d),
                            "detail": detail,
                        }
                        for i, d, detail in failures
                    ],
                    "pass": ok,
                }
            )
        )
    else:
        for line in preamble_failures:
            print(f"PREAMBLE FAIL: {line}")
        print(f"{args.target}: {passed}/{checked} pass")
        for i, d, detail in failures:
            print(f"FAIL at instance #{i}; replay with `compute` on:")
            print(format_digraph(d), end="")
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
        help="cross-check against the defining listing sum, in the fundamental basis",
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
    p.add_argument("--jobs", type=int, help="workers (default and cap: usable CPUs)")
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DigraphFormatError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
