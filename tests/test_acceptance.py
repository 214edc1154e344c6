"""Acceptance criteria, one test per criterion.

Every check is an exact identity (integer or rational equality, zero
tolerance).  Each test prints a single pass/fail line with its elapsed
time and asserts both the identity sweep and the stated time budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from conftest import GESSEL, REMARK, THREE_LOOP
from redei_berge import (
    ArcWeights,
    Digraph,
    PowerSumPolynomial,
    count_hamiltonian_paths,
    deformed_powersum,
    enumerate_digraphs,
    enumerate_tournaments,
    in_doubled_odd_cone,
    random_digraph,
    random_tournament,
    redei_berge_by_definition,
    redei_berge_powersum,
    redei_berge_tournament,
    redei_berge_two_cycle_free,
    verify_mod4,
)
from redei_berge.oracles import (
    count_friendly_listings,
    count_listings_containing,
    count_nontrivial_odd_cycles,
    count_perms_containing,
    cycle_type,
    friendly_product,
    is_arc_set_of_path_cover,
    is_linear,
    path_cover_of,
    polya_sum,
    redei_berge_by_listings,
    signed_linear_sum,
    signed_subset_sum,
    signed_sum_per_perm,
)

P = PowerSumPolynomial


def finish(number, name, budget, started, failures):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"criterion {number} [{name}]: {status} in {elapsed:.1f}s (budget {budget}s)")
    assert not failures, failures[:5]
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def random_stream(seed):
    return random.Random(seed)


def test_criterion_1_golden_values():
    started = time.perf_counter()
    failures = []
    expected = [
        (THREE_LOOP, P({(1, 1, 1): 1, (2, 1): 2, (3,): 1})),
        (GESSEL, P({(1, 1, 1): 1, (2, 1): -1, (3,): 1})),
        (REMARK, P({(1, 1, 1, 1): 1, (2, 1, 1): 1, (3, 1): 1})),
    ]
    for d, want in expected:
        got = redei_berge_powersum(d)
        if got != want:
            failures.append(f"{d!r}: got {got.to_text()}, want {want.to_text()}")
    finish(1, "golden power-sum values", 1, started, failures)


def test_criterion_2_powersum_formula_equals_definition():
    started = time.perf_counter()
    failures = []
    # the path route is checked against the n! listing sum on every input,
    # so the formula is compared with the defining sum itself
    for d in enumerate_digraphs(3):
        definition = redei_berge_by_definition(d)
        if redei_berge_powersum(d).to_fundamental() != definition:
            failures.append(f"exhaustive n=3: {sorted(d.arcs())}")
        elif redei_berge_by_listings(d) != definition:
            failures.append(f"path route, exhaustive n=3: {sorted(d.arcs())}")
    rng = random_stream(202)
    for i in range(200):
        n = rng.randint(0, 5)
        d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
        definition = redei_berge_by_definition(d)
        if redei_berge_powersum(d).to_fundamental() != definition:
            failures.append(f"random #{i}: {sorted(d.arcs())}")
        elif redei_berge_by_listings(d) != definition:
            failures.append(f"path route, random #{i}: {sorted(d.arcs())}")
    finish(2, "signed formula = defining sum", 60, started, failures)


def test_criterion_3_tournament_and_two_cycle_free_forms():
    started = time.perf_counter()
    failures = []
    for n in (4, 5):
        for d in enumerate_tournaments(n):
            general = redei_berge_powersum(d)
            if redei_berge_tournament(d) != general:
                failures.append(f"tournament form differs: {sorted(d.arcs())}")
            elif redei_berge_two_cycle_free(d) != general:
                failures.append(f"two-cycle-free form differs: {sorted(d.arcs())}")
            elif not in_doubled_odd_cone(general):
                failures.append(f"outside doubled-odd cone: {sorted(d.arcs())}")
    finish(3, "tournament forms on all n=4,5 tournaments", 60, started, failures)


def test_criterion_4_redei_and_mod4():
    started = time.perf_counter()
    failures = []
    instances = [d for n in range(6) for d in enumerate_tournaments(n)]
    instances += [random_tournament(8, seed=i) for i in range(50)]
    for d in instances:
        hamps = count_hamiltonian_paths(d)
        mod4 = verify_mod4(d)
        if hamps % 2 != 1:
            failures.append(f"even path count: {sorted(d.arcs())}")
        elif mod4["odd_cycles"] != count_nontrivial_odd_cycles(d):
            failures.append(f"odd-cycle count differs: {sorted(d.arcs())}")
        elif hamps % 4 != (1 + 2 * mod4["odd_cycles"]) % 4:
            failures.append(f"mod-4 mismatch: {sorted(d.arcs())}")
    finish(4, "odd path counts and mod-4 refinement", 120, started, failures)


def test_criterion_5_complement_parity():
    started = time.perf_counter()
    failures = []
    instances = list(enumerate_digraphs(3))
    rng = random_stream(205)
    instances += [
        random_digraph(rng.randint(0, 7), 0.5, seed=rng.getrandbits(32))
        for _ in range(200)
    ]
    for d in instances:
        lhs = count_hamiltonian_paths(d)
        rhs = count_hamiltonian_paths(d.complement())
        if lhs % 2 != rhs % 2:
            failures.append(f"parity mismatch: {sorted(d.arcs())}")
    finish(5, "path-count parity vs complement", 60, started, failures)


def test_criterion_6_zeta_bridge_exhaustive_n4():
    started = time.perf_counter()
    failures = []
    for d in enumerate_digraphs(4):
        hamps = count_hamiltonian_paths(d.complement())
        if redei_berge_powersum(d).zeta() != hamps:
            failures.append(f"zeta mismatch: {sorted(d.arcs())}")
    finish(6, "zeta bridge on all 65536 n=4 digraphs", 120, started, failures)


def test_criterion_7_omega_and_antipode():
    started = time.perf_counter()
    failures = []
    instances = list(enumerate_digraphs(3))
    rng = random_stream(207)
    instances += [
        random_digraph(rng.randint(0, 5), 0.5, seed=rng.getrandbits(32))
        for _ in range(100)
    ]
    for d in instances:
        here = redei_berge_powersum(d)
        there = redei_berge_powersum(d.complement())
        if here.omega() != there:
            failures.append(f"omega mismatch: {sorted(d.arcs())}")
        elif here.antipode() != there.scale((-1) ** d.n):
            failures.append(f"antipode mismatch: {sorted(d.arcs())}")
    finish(7, "omega and antipode send D to its complement", 30, started, failures)


def n2_closed_form(w):
    return P({(1, 1): 1, (2,): w.t(0, 1) + w.t(1, 0) + 1})


def n3_closed_form(w):
    pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    linear = sum((w.t(u, v) for u, v in pairs), Fraction(0))
    forward = w.t(0, 1) * w.t(1, 2) + w.t(1, 2) * w.t(2, 0) + w.t(2, 0) * w.t(0, 1)
    backward = w.t(0, 2) * w.t(2, 1) + w.t(2, 1) * w.t(1, 0) + w.t(1, 0) * w.t(0, 2)
    return P({(1, 1, 1): 1, (2, 1): linear + 3, (3,): forward + backward + linear + 2})


def test_criterion_8_deformation():
    started = time.perf_counter()
    failures = []
    for seed in range(5):
        w2 = ArcWeights.random(2, seed=seed)
        if deformed_powersum(w2) != n2_closed_form(w2):
            failures.append(f"n=2 closed form, seed {seed}")
        w3 = ArcWeights.random(3, seed=seed)
        if deformed_powersum(w3) != n3_closed_form(w3):
            failures.append(f"n=3 closed form, seed {seed}")
    rng = random_stream(208)
    for i in range(100):
        d = random_digraph(rng.randint(0, 4), 0.5, seed=rng.getrandbits(32))
        if deformed_powersum(ArcWeights.from_digraph(d)) != redei_berge_powersum(d):
            failures.append(f"indicator specialization #{i}: {sorted(d.arcs())}")
    for seed in range(3):
        n = seed % 3 + 1
        w = ArcWeights.random(n, seed=seed)
        for u in range(n):
            for v in range(n):
                base = w.t(u, v)
                f0 = deformed_powersum(w)
                f1 = deformed_powersum(w.updated(u, v, base + 1))
                f2 = deformed_powersum(w.updated(u, v, base + 2))
                if f2 - f1.scale(2) + f0 != P():
                    failures.append(f"second difference nonzero at t({u},{v})")
    finish(8, "deformation closed forms and multilinearity", 60, started, failures)


def test_criterion_9_lemma_oracles():
    started = time.perf_counter()
    failures = []

    # signed sums over subsets cancel except for the empty set
    for size in range(13):
        if signed_subset_sum(size) != (1 if size == 0 else 0):
            failures.append(f"subset cancellation fails at size {size}")

    # the two linearity criteria agree
    rng = random_stream(209)
    for _ in range(500):
        n = rng.randint(2, 6)
        size = rng.randint(0, min(8, n * n))
        pairs = rng.sample([(u, v) for u in range(n) for v in range(n)], size)
        arc_set = Digraph(n, pairs)
        if is_linear(arc_set) != is_arc_set_of_path_cover(arc_set):
            failures.append(f"linearity criteria disagree on {sorted(pairs)}")

    # containment counts equal the factorial of the cover size
    cover_example = Digraph(8, [(0, 3), (3, 2), (1, 7), (6, 5)])
    for arc_set in (cover_example, Digraph(5), Digraph(4, [(1, 0), (0, 2), (2, 3)])):
        cover = path_cover_of(arc_set)
        want = math.factorial(len(cover))
        if count_listings_containing(arc_set) != want:
            failures.append(f"listing count wrong for {sorted(arc_set.arcs())}")
        if count_perms_containing(arc_set) != want:
            failures.append(f"permutation count wrong for {sorted(arc_set.arcs())}")

    # inclusion-exclusion over linear subsets counts complement hamps
    for d in enumerate_digraphs(3):
        if signed_linear_sum(d) != count_hamiltonian_paths(d.complement()):
            failures.append(f"signed linear sum wrong: {sorted(d.arcs())}")
            break

    # per-permutation signed sums rebuild the signed power-sum formula
    for d in enumerate_digraphs(3):
        terms = {}
        for sigma in itertools.permutations(range(3)):
            weight = signed_sum_per_perm(d, sigma)
            if weight:
                key = cycle_type(sigma)
                terms[key] = terms.get(key, 0) + weight
        if P(terms) != redei_berge_powersum(d):
            failures.append(f"per-permutation rebuild wrong: {sorted(d.arcs())}")
            break

    # friendly listings factor over levels
    rng = random_stream(219)
    for i in range(20):
        n = rng.randint(0, 5)
        d = random_digraph(n, 0.5, seed=rng.getrandbits(32))
        levels = [rng.randint(1, 3) for _ in range(n)]
        if count_friendly_listings(d, levels) != friendly_product(d, levels):
            failures.append(f"friendly product wrong #{i}: levels {levels}")

    # cycle-colouring sums give the cycle-type power sum
    for sigma in itertools.permutations(range(4)):
        if polya_sum(sigma) != P({cycle_type(sigma): 1}).to_fundamental():
            failures.append(f"colouring sum wrong for {sigma}")

    finish(9, "lemma oracle battery", 120, started, failures)
