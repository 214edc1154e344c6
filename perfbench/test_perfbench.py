"""Self-tests of the benchmark: its checks catch wrong outputs, its inputs
depend on the seed alone, and its tracer attributes time correctly.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Outcome, check  # noqa: E402

# Arcs 0->1 plus loops at 1 and 2: p[3] + 2*p[2,1] + p[1,1,1], and the
# complement has 4 Hamiltonian paths.
THREE_LOOP = [(0, 1), (1, 1), (2, 2)]
THREE_LOOP_OUT = '{"3": "1", "2,1": "2", "1,1,1": "1"}\n'


def compute_op(arcs=THREE_LOOP, n=3) -> Op:
    argv = ("compute", "--format", "json", "--arcs", workloads.arcs_spec(n, arcs))
    return Op("compute:random", argv, {"n": n, "arcs": arcs})


def test_right_powersum_passes():
    assert check(compute_op(), Outcome(0, THREE_LOOP_OUT, "")) is None


@pytest.mark.parametrize(
    "stdout",
    [
        '{"3": "1", "2,1": "3", "1,1,1": "1"}',  # corrupted coefficient
        '{"3": "1", "2,1": "3/2", "1,1,1": "3/2"}',  # right sum, not integral
        '{"3": "1", "2,1": "2"',  # truncated
    ],
)
def test_corrupted_powersum_is_a_failure(stdout):
    assert check(compute_op(), Outcome(0, stdout, "")) is not None


def test_nonzero_exit_is_a_failure():
    assert check(compute_op(), Outcome(2, "", "error: bad")) is not None
    assert check(compute_op(), Outcome(None, THREE_LOOP_OUT, "Traceback")) is not None


def test_check_needs_agreement_on_stderr():
    op = compute_op()._replace(kind="check")
    agrees = "definition route agrees in 3 variables\n"
    assert check(op, Outcome(0, THREE_LOOP_OUT, agrees)) is None
    assert check(op, Outcome(0, THREE_LOOP_OUT, "")) is not None


def test_deformed_zeta_against_weighted_paths():
    # t = -1 on the arcs specializes the deformation to the digraph's function.
    table = {"0,1": "-1", "1,1": "-1", "2,2": "-1"}
    op = Op("deformed", (), {"n": 3, "t": table})
    assert check(op, Outcome(0, THREE_LOOP_OUT, "")) is None
    assert check(op, Outcome(0, '{"3": "1", "2,1": "2", "1,1,1": "2"}', "")) is not None


def test_hamps_parity_and_reports():
    # The transitive tournament 0->1->2, 0->2 has exactly one Hamiltonian path.
    good = {
        "n": 3, "hamps": "1", "tournament": True,
        "berge": {"hamps": "1", "pass": True},
        "redei": {"hamps": "1", "pass": True},
        "mod4": {"lhs_mod4": 1, "rhs_mod4": 1, "odd_cycles": 0, "pass": True},
    }  # fmt: skip
    op = Op("hamps:T3", (), {"n": 3, "tournament": True})
    assert check(op, Outcome(0, json.dumps(good), "")) is None
    bad = {**good, "hamps": "2", "berge": {"hamps": "2", "pass": True}}
    assert check(op, Outcome(0, json.dumps(bad), "")) is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_byte_identical_inputs(name, tmp_path):
    pool = workloads.WORKLOADS[name].pool

    def materialize(seed, where):
        ops = pool(seed, where)
        files = {p.name: p.read_bytes() for p in sorted(where.glob("*"))}
        return [(op.kind, op.argv[:-1] if "--input" in op.argv else op.argv, op.expect)
                for op in ops], files  # fmt: skip

    first = materialize(7, tmp_path / "a")
    assert first == materialize(7, tmp_path / "b")
    assert first != materialize(8, tmp_path / "c")


def test_hamiltonian_path_sum_counts_paths():
    # The complete loopless digraph on n vertices has n! Hamiltonian paths.
    assert workloads.hamiltonian_path_sum(5, lambda u, v: 1) == 120
    assert workloads.hamiltonian_path_sum(0, lambda u, v: 1) == 1
    assert workloads.hamiltonian_path_sum(3, lambda u, v: u < v) == 1


def test_best_by_slot_takes_each_slots_fastest_repeat():
    a, b = Op("check", (), {}, 0), Op("check", (), {}, 1)
    timed = [(a, 3.0), (b, 5.0), (a, 2.0), (b, 7.0), (a, 4.0)]
    assert run.best_by_slot(timed) == {0: 2.0, 1: 5.0}


def test_repeats_of_a_slot_are_relabellings(tmp_path):
    pool = workloads.WORKLOADS["check-hamps"].pool(7, tmp_path)
    first, again = pool[0], pool[workloads.WORKLOADS["check-hamps"].cycle]
    assert first.slot == again.slot == 0 and first.argv != again.argv

    def paths(op):  # an isomorphism invariant
        arcs = set(op.expect["arcs"])
        return workloads.hamiltonian_path_sum(op.expect["n"], lambda u, v: (u, v) in arcs)

    assert len(first.expect["arcs"]) == len(again.expect["arcs"])
    assert paths(first) == paths(again)


def test_relabel_weights_moves_each_weight_with_its_pair():
    table = {"0,1": "2", "1,0": "-1/3", "1,1": "5"}
    assert workloads.relabel_weights(table, [1, 0]) == {"0,0": "5", "0,1": "-1/3", "1,0": "2"}


def test_benchmark_json_matches_reference():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[section]}
        reference = {k: (v["unit"], v["better"]) for k, v in run.REFERENCE[section].items()}
        assert listed == reference
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_spans_and_self_times():
    modules = run.fresh_modules()
    tracer = tracing.Tracer()
    tracer.install(modules)
    tracer.install(modules)  # idempotent
    tracer.op = 0
    argv = ("compute", "--check", "--format", "json", "--arcs", "3;0 1;1 1;2 2")
    wall, outcome = run.run_op(modules, argv)
    assert check(compute_op()._replace(kind="check"), outcome) is None
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][tracing.PARENT] is None
    assert "core.redei_berge_powersum" in names and tracing.LISTING_SWEEP in names
    assert all(s[tracing.OP] == 0 for s in tracer.spans)
    root = tracer.spans[0]
    attributed = sum(tracer.span_self_s()) + sum(tracer.self_s.values())
    assert attributed == pytest.approx(root[tracing.END] - root[tracing.START], rel=1e-6)
    assert min(tracer.span_self_s()) > -1e-6
    metrics, absent = tracer.layer_metrics(1)
    assert metrics["core.listings_visited"] == 6 and metrics["core.perms_visited"] == 6
    assert metrics["polynomials.monomials_out"] == 2 * 10  # C(5, 3) per expansion
    assert absent == []


def test_absent_name_is_reported_not_fatal():
    modules = run.fresh_modules()
    del modules["hamilton"]
    tracer = tracing.Tracer()
    tracer.install(modules)
    assert "hamilton:count_nontrivial_odd_cycles" in tracer.absent
    _, absent = tracer.layer_metrics(1)
    assert "hamilton.cycles_self_s" in absent
    assert "hamilton.dp_calls" not in absent  # still reached through cli
    del modules["cli"], modules["core"]
    tracer = tracing.Tracer()
    tracer.install(modules)
    _, absent = tracer.layer_metrics(1)
    assert "core.listing_sweep_self_s" in absent and "hamilton.dp_calls" in absent
