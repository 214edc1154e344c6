import io
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import THREE_LOOP, drawn_digraph, drawn_tournament
from redei_berge import (
    Digraph,
    FundamentalQSym,
    PowerSumPolynomial,
    enumerate_tournaments,
    format_digraph,
    parse_digraph,
    random_digraph,
    random_tournament,
    verify_berge,
    verify_mod4,
    verify_redei,
)
from redei_berge import cli, core, hamilton, polynomials
from redei_berge.limits import ODD_CYCLE_CAP
from redei_berge.polynomials import _cut_shapes


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def inline_pool(monkeypatch):
    """A stand-in pool that records its size and maps ranges inline, in
    order and lazily as ``Pool.imap`` does, so no process is started
    whatever --jobs says; returns the recorded sizes."""
    sizes = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        imap = staticmethod(map)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)  # cli imports it per sweep
    return sizes


class TestCompute:
    def test_inline_example(self, capsys):
        code, out, _ = run(capsys, "compute", "--arcs", "3;0 1;1 1;2 2")
        assert code == 0
        assert out.strip() == "p[3] + 2*p[2,1] + p[1,1,1]"

    def test_mixed_sign_example(self, capsys):
        code, out, _ = run(capsys, "compute", "--arcs", "3;0 2;1 0;2 0;2 1")
        assert code == 0
        assert out.strip() == "p[3] - p[2,1] + p[1,1,1]"

    def test_json_round_trips_to_same_value(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--arcs", "3;0 1;1 1;2 2", "--format", "json"
        )
        assert code == 0
        assert out == '{"3": "1", "2,1": "2", "1,1,1": "1"}\n'

    def test_text_and_json_render_same_polynomial(self, capsys):
        _, text_out, _ = run(capsys, "compute", "--arcs", "4;0 1;1 0;1 2;1 3;2 3")
        _, json_out, _ = run(
            capsys, "compute", "--arcs", "4;0 1;1 0;1 2;1 3;2 3", "--format", "json"
        )
        assert text_out == "p[3,1] + p[2,1,1] + p[1,1,1,1]\n"
        assert json_out == '{"3,1": "1", "2,1,1": "1", "1,1,1,1": "1"}\n'

    def test_check_flag(self, capsys):
        code, out, err = run(capsys, "compute", "--arcs", "3;0 1;1 1;2 2", "--check")
        assert code == 0
        assert "definition route agrees in the fundamental basis" in err

    def test_check_flag_reports_a_disagreement(self, capsys, monkeypatch):
        # fault injection: the definition route loses one listing without
        # descents, whose L_{} = h_n is the sum of every m_lambda of degree n
        real = core._listing_monomials

        def broken(n, w, scales):
            m, scale = real(n, w, scales)
            shapes = set(_cut_shapes(n)[1])  # every partition of n
            return {shape: m.get(shape, 0) - scale for shape in shapes}, scale

        monkeypatch.setattr(core, "_listing_monomials", broken)
        code, out, err = run(capsys, "compute", "--arcs", "3;0 1;1 1;2 2", "--check")
        assert code == 1
        assert "definition route disagrees" in err
        assert out.strip() == "p[3] + 2*p[2,1] + p[1,1,1]"

    def test_check_builds_no_fundamental_function(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fundamental-basis function was built")

        monkeypatch.setattr(core, "_monomial_to_fundamental", refuse)
        monkeypatch.setattr(polynomials, "_monomial_to_fundamental", refuse)
        monkeypatch.setattr(FundamentalQSym, "__init__", refuse)
        monkeypatch.setattr(FundamentalQSym, "_trusted", refuse)
        code, _, err = run(capsys, "compute", "--arcs", "3;0 1;1 1;2 2", "--check")
        assert code == 0
        assert "definition route agrees in the fundamental basis" in err
        code, out, _ = run(capsys, "verify", "thm1", "--exhaustive", "2", "--jobs", "1")
        assert code == 0
        assert out == "thm1: 16/16 pass\n"

    def test_vars_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["compute", "--arcs", "3;0 1", "--check", "--vars", "2"])
        assert err.value.code == 2
        assert "unrecognized arguments: --vars 2" in capsys.readouterr().err

    def test_reads_file(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(format_digraph(THREE_LOOP))
        code, out, _ = run(capsys, "compute", "--input", str(path))
        assert code == 0
        assert out.strip() == "p[3] + 2*p[2,1] + p[1,1,1]"

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
        code, out, _ = run(capsys, "compute", "--input", "-")
        assert code == 0
        assert out.strip() == "p[1]"

    def test_missing_input_is_exit_2(self, capsys):
        code, _, err = run(capsys, "compute")
        assert code == 2
        assert "error" in err

    def test_malformed_arcs_is_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--arcs", "2;0 5")
        assert code == 2
        assert "line 2" in err

    def test_cap_violation_is_exit_2(self, capsys, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a table was built above the cap")

        monkeypatch.setattr(core, "_cycle_sums", no_tables)
        monkeypatch.setattr(core, "_partition_sum", no_tables)
        code, out, err = run(capsys, "compute", "--arcs", "15")
        assert (code, out) == (2, "")
        assert "15 vertices exceeds the cycle-sum cap of 14" in err


class TestDeformed:
    def test_indicator_matrix_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"n":2,"t":{"0,1":"-1","1,0":"0"}}')
        )
        code, out, _ = run(capsys, "deformed", "--input", "-")
        assert code == 0
        assert out.strip() == "p[1,1]"

    def test_rational_weights(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"n":2,"t":{"0,1":"1/2","1,0":"1/2"}}')
        code, out, _ = run(capsys, "deformed", "--input", str(path))
        assert code == 0
        assert out.strip() == "2*p[2] + p[1,1]"

    def test_bad_json_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("{"))
        code, _, err = run(capsys, "deformed", "--input", "-")
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": 2, "t": [1]}', "'t' must be a JSON object"),
            ('{"n": true, "t": {"0,0": "1"}}', "'n' must be an integer, got true"),
            ('{"n": 1, "t": {"0,0": 0.1}}', "must be an integer or a rational string"),
            ('{"n": 2, "t": {"0,1": "1/0"}}', "weight of '0,1' has a zero denominator"),
            (
                '{"n": 2, "t": {"0,1": "1", "0,01": "2"}}',
                "pair keys '0,1' and '0,01' both name (0, 1)",
            ),
            ('{"n": 2, "t": {"0,1": "1e1000000000"}}', "weight of '0,1' must be"),
            ('{"n": 2, "t": {"0,1": "1.5"}}', "weight of '0,1' must be"),
            ('{"n": 2, "T": {"0,1": "-1"}}', "unknown key 'T'"),
            ('{"n": 2, "s": {"0,1": "0"}}', "unknown key 's'"),
            pytest.param(
                "[" * 200000, "weight JSON is nested too deeply", id="nested"
            ),
        ],
    )
    def test_mistyped_weight_json_is_exit_2(self, capsys, monkeypatch, text, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "deformed", "--input", "-")
        assert code == 2
        assert out == ""
        assert message in err and "Traceback" not in err


class TestHamps:
    def test_tournament_report(self, capsys):
        code, out, _ = run(capsys, "hamps", "--arcs", "3;0 1;1 2;2 0")
        assert code == 0
        assert "hamps = 3" in out
        assert "redei: pass" in out
        assert "mod4: pass" in out
        assert "berge: pass" in out

    def test_non_tournament_skips_tournament_checks(self, capsys):
        code, out, _ = run(capsys, "hamps", "--arcs", "3;0 1;1 1;2 2")
        assert code == 0
        assert "skipped" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "hamps", "--arcs", "3;0 1;1 2;2 0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["hamps"] == "3"
        assert payload["tournament"] is True
        assert payload["mod4"]["pass"] is True

    def test_mod4_skipped_beyond_cycle_cap(self, capsys, tmp_path):
        from conftest import transitive_tournament
        from redei_berge import format_digraph

        path = tmp_path / "t13.txt"
        path.write_text(format_digraph(transitive_tournament(13)))
        code, out, _ = run(capsys, "hamps", "--input", str(path))
        assert code == 0
        assert "hamps = 1" in out
        assert "mod4: skipped (above the odd-cycle cap of 12)" in out.splitlines()

    @pytest.mark.parametrize(
        "n, payload",
        [
            (
                13,
                '{"n": 13, "hamps": "1938191", "tournament": true, "berge": '
                '{"theorem": "berge", "n": 13, "hamps": "1938191", "lhs_mod2": 1, '
                '"rhs_mod2": 1, "pass": true}, "redei": {"theorem": "redei", '
                '"n": 13, "hamps_mod2": 1, "pass": true}}\n',
            ),
            (
                14,
                '{"n": 14, "hamps": "19431499", "tournament": true, "berge": '
                '{"theorem": "berge", "n": 14, "hamps": "19431499", "lhs_mod2": 1, '
                '"rhs_mod2": 1, "pass": true}, "redei": {"theorem": "redei", '
                '"n": 14, "hamps_mod2": 1, "pass": true}}\n',
            ),
        ],
    )
    def test_no_mod4_report_above_the_odd_cycle_cap(self, capsys, monkeypatch, n, payload):
        # the cycle-sum cap is above 12, yet the mod-4 report keeps its own
        # cap: no odd cycle is counted, and the payload is pinned whole
        def no_count(*args):
            raise AssertionError("odd cycles counted above their cap")

        monkeypatch.setattr(hamilton, "_odd_cycles", no_count)
        spec = format_digraph(random_tournament(n, seed=n)).replace("\n", ";")
        code, out, _ = run(capsys, "hamps", "--arcs", spec, "--format", "json")
        assert (code, out) == (0, payload)

    @pytest.mark.parametrize(
        "d",
        [random_tournament(9, seed=1), random_tournament(13, seed=2), THREE_LOOP],
        ids=["tournament-n9", "tournament-n13", "digraph"],
    )
    def test_counts_each_digraph_once(self, capsys, monkeypatch, d):
        # one exact count, of D; Berge's report needs only the parity of
        # hamps(D^c), read from the GF(2) table, and a tournament's
        # complement is its converse with loops, whose count is hamps(D)
        # again, so one path count serves all three reports; each table
        # reads the masks its digraph was built with, in the order of
        # _run_order
        counted = []
        parities = []
        tables = []
        count_dp = hamilton._count_dp
        path_parity = hamilton._path_parity
        cycle_sums = hamilton._cycle_sums

        def counting_dp(preds):
            counted.append(preds)
            return count_dp(preds)

        def counting_parity(preds):
            parities.append(preds)
            return path_parity(preds)

        def recording_sums(*args):
            tables.append(args)
            return cycle_sums(*args)

        monkeypatch.setattr(hamilton, "_count_dp", counting_dp)
        monkeypatch.setattr(hamilton, "_path_parity", counting_parity)
        monkeypatch.setattr(hamilton, "_cycle_sums", recording_sums)
        spec = format_digraph(d).replace("\n", ";")
        code, out, _ = run(capsys, "hamps", "--arcs", spec, "--format", "json")
        assert code == 0
        assert counted == [hamilton._run_order(d.ins)]
        tournament = d.is_tournament()
        complement = [] if tournament else [hamilton._run_order(d.complement().ins)]
        assert parities == complement
        payload = json.loads(out)
        # the odd cycles are counted on the path table, at every n
        assert tables == []
        assert ("mod4" in payload) == (tournament and d.n <= ODD_CYCLE_CAP)

    @staticmethod
    def _reports_match_verify(capsys, d):
        spec = format_digraph(d).replace("\n", ";")
        code, out, _ = run(capsys, "hamps", "--arcs", spec, "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["berge"] == verify_berge(d)
        if d.is_tournament():
            assert payload["redei"] == verify_redei(d)
            assert payload["mod4"] == verify_mod4(d)
        else:
            assert "redei" not in payload and "mod4" not in payload

    def test_reports_match_verify_on_every_tournament_through_n5(self, capsys):
        for n in range(6):
            for d in enumerate_tournaments(n):
                self._reports_match_verify(capsys, d)

    def test_reports_match_verify_on_random_inputs_through_n9(self, capsys):
        rng = random.Random(2024)
        for i in range(60):
            n = rng.randint(0, 9)
            seed = rng.getrandbits(32)
            if i % 2:
                self._reports_match_verify(capsys, random_tournament(n, seed=seed))
            else:
                self._reports_match_verify(capsys, random_digraph(n, 0.5, seed=seed))

    @pytest.mark.parametrize("header", ["23", "1000000"])
    def test_vertex_count_above_the_cap_is_exit_2(self, capsys, header):
        code, out, err = run(capsys, "hamps", "--arcs", f"{header};0 1")
        assert code == 2
        assert out == ""
        assert f"line 1: vertex count {header} exceeds the cap of 22" in err


class TestVerify:
    def test_thm1_exhaustive_3(self, capsys):
        code, out, _ = run(capsys, "verify", "thm1", "--exhaustive", "3", "--jobs", "1")
        assert code == 0
        assert "512/512 pass" in out

    def test_exhaustive_targets_small(self, capsys):
        for target, expected in [
            ("thm2", "64/64"),
            ("thm3", "216/216"),  # 2^3 * 3^3 two-cycle-free digraphs on n=3
            ("antipode", "512/512"),
            ("zeta", "512/512"),
            ("redei", "64/64"),
            ("mod4", "8/8"),
            ("berge", "512/512"),
        ]:
            n = {"thm2": "4", "redei": "4", "mod4": "3"}.get(target, "3")
            code, out, _ = run(
                capsys, "verify", target, "--exhaustive", n, "--jobs", "1"
            )
            assert code == 0, target
            assert expected in out, (target, out)

    @pytest.mark.parametrize(
        "target, n, per_instance", [("thm2", "4", 2), ("thm3", "3", 1)]
    )
    def test_each_form_computed_once(
        self, capsys, monkeypatch, target, n, per_instance
    ):
        # thm2 checks the tournament form against the signed one (their block
        # weights are independent); thm3's two-cycle-free form is the signed
        # formula's partition sum, so it is computed once and checked alone
        calls = []
        partition_sum = core._partition_sum

        def counting(*args):
            calls.append(args)
            return partition_sum(*args)

        monkeypatch.setattr(core, "_partition_sum", counting)
        argv = ["verify", target, "--exhaustive", n, "--jobs", "1", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(calls) == per_instance * json.loads(out)["checked"]

    def test_thm3_fails_on_a_negative_coefficient(self, capsys, monkeypatch):
        def negative(d):
            return PowerSumPolynomial({(1,) * d.n: -1})

        monkeypatch.setattr(cli, "redei_berge_two_cycle_free", negative)
        code, out, _ = run(capsys, "verify", "thm3", "--exhaustive", "2", "--jobs", "1")
        assert code == 1
        assert "FAIL at instance #0" in out
        assert '"1,1": "-1"' in out

    def test_report_check_returns_the_verdict_and_the_report(self):
        check = cli._report_check(lambda d: {"n": d.n, "pass": d.n == 3})
        assert check(THREE_LOOP) == (True, {"n": 3, "pass": True})
        assert check(parse_digraph("2\n")) == (False, {"n": 2, "pass": False})

    def test_lemmas_random(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "lemmas",
            "--random",
            "8",
            "--max-n",
            "4",
            "--seed",
            "1",
            "--jobs",
            "1",
        )
        assert code == 0
        assert "8/8 pass" in out

    def test_lemmas_on_digraphs_with_many_arcs(self, capsys):
        # the first instance has 28 arcs off the diagonal: a cap on the
        # 2^arcs subsets would refuse it halfway through the sweep
        code, out, err = run(
            capsys,
            "verify",
            "lemmas",
            "--random",
            "2",
            "--max-n",
            "7",
            "--seed",
            "61",
            "--jobs",
            "1",
        )
        assert code == 0
        assert err == ""
        assert "lemmas: 2/2 pass" in out

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_random_streams_match_the_arc_by_arc_oracles(self, seed):
        def drawn(kind):
            rng = random.Random(seed)
            for _ in range(60):
                n = rng.randint(0, 12)
                if kind == "tournament":
                    yield n, drawn_tournament(rng, n)
                else:
                    yield n, drawn_digraph(rng, n, 0.5)

        for kind in ("digraph", "tournament"):
            stream = cli._stream(kind, False, 60, 12, seed)
            built = [(n, Digraph(n, filter(None, c))) for n, c in stream]
            assert built == list(drawn(kind))

    def test_random_two_cycle_free_stream(self, capsys):
        pairs = list(cli._stream("two-cycle-free", False, 50, 6, 3))
        instances = [Digraph(n, filter(None, c)) for n, c in pairs]
        assert len(instances) == 50
        assert all(d.is_two_cycle_free() for d in instances)
        assert max(len(list(d.arcs())) for d in instances) > 6
        # choices come in slot order: the n loops, then the pairs u < v
        loops = {c is None for n, choices in pairs for c in choices[:n]}
        states = {c and c[0] < c[1] for n, choices in pairs for c in choices[n:]}
        assert loops == {True, False} and states == {None, True, False}
        argv = ["--random", "50", "--max-n", "6", "--seed", "3", "--jobs", "1"]
        code, out, _ = run(capsys, "verify", "thm3", *argv)
        assert code == 0 and "thm3: 50/50 pass" in out

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the workers see the injected check only when forked",
    )
    def test_first_failure_stops_the_workers(self, capsys, monkeypatch):
        # at --jobs 2 the 16 digraphs split into #0-7 and #8-15: #0 fails,
        # and #8, the first of the later range, would take 30 s
        def broken(d):
            if sum(row << (u * d.n) for u, row in enumerate(d.rows)) == 8:
                time.sleep(30)
            return d.rows != (0, 0), {}

        monkeypatch.setitem(cli._CHECKS, "zeta", ("digraph", broken, 9))
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        args = ["verify", "zeta", "--exhaustive", "2"]
        serial = run(capsys, *args, "--jobs", "1")
        start = time.monotonic()
        assert run(capsys, *args, "--jobs", "2") == serial
        assert time.monotonic() - start < 5
        assert multiprocessing.active_children() == []
        code, out, _ = serial
        assert code == 1 and "zeta: 0/1 pass" in out

    def test_random_sweep_reproducible(self, capsys):
        args = ["verify", "berge", "--random", "20", "--max-n", "5", "--seed", "7"]
        _, first, _ = run(capsys, *args, "--jobs", "1")
        _, second, _ = run(capsys, *args, "--jobs", "1")
        _, parallel, _ = run(capsys, *args, "--jobs", "3")
        assert first == second == parallel

    def test_parallel_jobs_match_serial(self, capsys):
        args = ["verify", "thm1", "--exhaustive", "2"]
        _, serial, _ = run(capsys, *args, "--jobs", "1")
        _, parallel, _ = run(capsys, *args, "--jobs", "4")
        assert serial == parallel

    def test_jobs_clamped_to_available_cpus(self, capsys, monkeypatch, inline_pool):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        args = ["verify", "zeta", "--exhaustive", "2"]
        for jobs in (["--jobs", "1000"], []):
            code, out, _ = run(capsys, *args, *jobs)
            assert code == 0 and "16/16 pass" in out
        assert inline_pool == [2, 2]

    def test_reports_match_across_jobs(self, capsys, monkeypatch, inline_pool):
        # at --jobs 3 the 16 digraphs split into #0-4, #5-9 and #10-15; the
        # injected failures leave the first range clean and hit the other two
        def broken(d):
            index = sum(row << (u * d.n) for u, row in enumerate(d.rows))
            return index not in (6, 8, 12, 13), {"index": index}

        monkeypatch.setitem(cli._CHECKS, "thm1", ("digraph", broken, 9))
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        args = ["verify", "thm1", "--exhaustive", "2"]
        reports = []
        for extra in ([], ["--keep-going"], ["--keep-going", "--format", "json"]):
            serial = run(capsys, *args, *extra, "--jobs", "1")
            assert run(capsys, *args, *extra, "--jobs", "3") == serial
            reports.append(serial)
        assert inline_pool == [3, 3, 3]
        (code, first, _), (_, every, _), (_, as_json, _) = reports
        assert code == 1 and "6/7 pass" in first
        assert re.findall(r"instance #(\d+)", first) == ["6"]
        assert "12/16 pass" in every
        assert re.findall(r"instance #(\d+)", every) == ["6", "8", "12", "13"]
        failures = json.loads(as_json)["failures"]
        assert [f["index"] for f in failures] == [6, 8, 12, 13]

    @pytest.mark.parametrize("jobs", ["1", "3"])
    @pytest.mark.parametrize("keep_going", [[], ["--keep-going"]])
    def test_text_and_json_reports_agree(
        self, capsys, monkeypatch, inline_pool, jobs, keep_going
    ):
        # #3, #8 and #13 of the 16 digraphs fail, one in each of the ranges
        # #0-4, #5-9 and #10-15 of --jobs 3
        def broken(d):
            index = sum(row << (u * d.n) for u, row in enumerate(d.rows))
            return index % 5 != 3, {"index": index, "arcs": len(list(d.arcs()))}

        monkeypatch.setitem(cli._CHECKS, "thm1", ("digraph", broken, 9))
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        args = ["verify", "thm1", "--exhaustive", "2", *keep_going, "--jobs", jobs]
        code, text, _ = run(capsys, *args)
        json_code, as_json, _ = run(capsys, *args, "--format", "json")
        report = json.loads(as_json)
        assert code == json_code == 1 and report["pass"] is False
        header, *blocks = text.split("FAIL at instance #")
        counts = re.fullmatch(r"thm1: (\d+)/(\d+) pass\n", header).groups()
        assert [int(c) for c in counts] == [report["passed"], report["checked"]]
        failures = []
        for block in blocks:
            index, rest = block.split("; replay with `compute` on:\n")
            edges, detail = rest.split("detail: ")
            failures.append(
                {"index": int(index), "digraph": edges, "detail": json.loads(detail)}
            )
        assert failures == report["failures"]
        expected = [3, 8, 13] if keep_going else [3]
        assert [f["index"] for f in failures] == expected
        assert report["checked"] == (16 if keep_going else 4)
        assert inline_pool == ([3, 3] if jobs == "3" else [])

    def test_plan_clamps_the_workers_once(self, monkeypatch):
        # the worker count is at most the usable CPUs and the instance
        # count, and at least 1 for an empty sweep
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        for argv, jobs in [
            (["--random", "2", "--jobs", "5"], 2),
            (["--random", "0"], 1),
            (["--random", "20"], 8),
            (["--random", "20", "--jobs", "3"], 3),
            (["--exhaustive", "1", "--jobs", "4"], 2),
        ]:
            args = cli._parser().parse_args(["verify", "zeta", *argv])
            assert cli._plan(args)[2] == jobs

    def test_sweep_stops_before_building_the_next_instance(self, capsys, monkeypatch):
        # the check fails on instance #1, and building #2 would raise
        built = []

        def build(n, arcs):
            assert len(built) < 2, "instance #2 was built"
            built.append(n)
            return Digraph(n, arcs)

        def fails_on_the_second(d):
            return len(built) != 2, {}

        monkeypatch.setattr(cli, "Digraph", build)
        monkeypatch.setitem(cli._CHECKS, "berge", ("digraph", fails_on_the_second, 22))
        code, out, _ = run(capsys, "verify", "berge", "--random", "5", "--jobs", "1")
        assert code == 1
        assert "1/2 pass" in out and "FAIL at instance #1" in out
        assert len(built) == 2

    def test_sweep_range_builds_only_its_own_instances(self, monkeypatch):
        # range 1 of 2 of the 512 digraphs on 3 vertices skips #0-255 on
        # their slot choices and builds only #256-511
        builds = []
        init = Digraph.__init__

        def counted(self, *args):
            builds.append(args[0])
            init(self, *args)

        monkeypatch.setattr(Digraph, "__init__", counted)
        monkeypatch.setitem(cli._CHECKS, "zeta", ("digraph", lambda d: (True, {}), 9))
        spec = ("digraph", True, 512, 3, 0)
        assert cli._sweep_chunk("zeta", spec, 2, False, 1) == []
        assert builds == [3] * 256

    def test_sweep_memory_does_not_grow_with_the_count(self, capsys):
        # an instance list would peak near 11.5 MiB here
        argv = ["--random", "20000", "--max-n", "3", "--seed", "1", "--jobs", "1"]
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "verify", "berge", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and "20000/20000 pass" in out
        assert peak < 2 * 2**20

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "zeta",
            "--exhaustive",
            "2",
            "--jobs",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["checked"] == payload["instances"] == 16
        assert payload["failures"] == []

    @pytest.mark.parametrize(
        "target, argv, mode",
        [
            ("lemmas", "--random 3 --max-n 3 --seed 2", ["count", "max_n", "seed"]),
            ("thm1", "--exhaustive 2", ["n"]),
        ],
        ids=["lemmas", "thm1"],
    )
    def test_json_report_keys_in_order(self, capsys, target, argv, mode):
        # every target reports the same fields, in this order
        argv = [*argv.split(), "--jobs", "1", "--format", "json"]
        code, out, _ = run(capsys, "verify", target, *argv)
        assert code == 0
        assert list(json.loads(out)) == [
            "target",
            "mode",
            *mode,
            "instances",
            "checked",
            "passed",
            "failures",
            "pass",
        ]

    def test_failure_echoes_counterexample(self, capsys, monkeypatch):
        # fault injection: a check that rejects any digraph with an arc
        def broken(d):
            return not any(d.rows), {"note": "injected"}

        monkeypatch.setitem(cli._CHECKS, "thm1", ("digraph", broken, 9))
        code, out, _ = run(capsys, "verify", "thm1", "--exhaustive", "2", "--jobs", "1")
        assert code == 1
        assert "FAIL at instance #1" in out
        assert "1/2 pass" in out  # stops at the first failure
        replay = out[out.index("2\n") :].splitlines()
        assert len(list(parse_digraph("\n".join(replay[:2])).arcs())) == 1

    def test_keep_going_reports_all(self, capsys, monkeypatch):
        def broken(d):
            return not any(d.rows), {}

        monkeypatch.setitem(cli._CHECKS, "thm1", ("digraph", broken, 9))
        code, out, _ = run(
            capsys,
            "verify",
            "thm1",
            "--exhaustive",
            "2",
            "--jobs",
            "1",
            "--keep-going",
        )
        assert code == 1
        assert "1/16 pass" in out
        assert out.count("FAIL at instance") == 15

    def test_cap_violation_is_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "thm1", "--exhaustive", "6", "--jobs", "1")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize(
        "target, argv, message",
        [
            (
                "thm1",
                "--random 20 --max-n 15",
                "15 vertices (--max-n) exceeds the thm1 cap of 14",
            ),
            (
                "thm1",
                "--exhaustive 15",
                "15 vertices (--exhaustive) exceeds the thm1 cap of 14",
            ),
            ("thm2", "--random 1 --max-n 15", "exceeds the thm2 cap of 14"),
            ("lemmas", "--exhaustive 10", "exceeds the lemmas cap of 9"),
            ("mod4", "--exhaustive 13", "exceeds the mod4 cap of 12"),
            (
                "mod4",
                "--random 3 --max-n 13",
                "13 vertices (--max-n) exceeds the mod4 cap of 12",
            ),
            ("berge", "--random 1 --max-n 23", "exceeds the berge cap of 22"),
            (
                "berge",
                "--exhaustive 3000",
                "3000 vertices (--exhaustive) exceeds the berge cap of 22",
            ),
            (
                "lemmas",
                "--exhaustive 5",
                "33554432 digraphs on 5 vertices exceeds the enumeration cap",
            ),
            (
                "thm2",
                "--exhaustive 8",
                "268435456 tournaments on 8 vertices exceeds the enumeration cap",
            ),
            (
                "thm3",
                "--exhaustive 6",
                "918330048 two-cycle-free digraphs on 6 vertices exceeds the "
                "enumeration cap of 16777216",
            ),
            ("zeta", "--random -3", "--random must be nonnegative, got -3"),
            ("zeta", "--random 3 --max-n -1", "--max-n must be nonnegative"),
            ("zeta", "--exhaustive -1", "--exhaustive must be nonnegative"),
            (
                "zeta",
                "--random 16777217",
                "16777217 random instances exceeds the enumeration cap of 16777216",
            ),
        ],
    )
    def test_sizes_refused_before_any_work(
        self, capsys, monkeypatch, target, argv, message
    ):
        def no_work(*args):
            raise AssertionError("work started before the size check")

        kind, _, cap = cli._CHECKS[target]
        monkeypatch.setitem(cli._CHECKS, target, (kind, no_work, cap))
        monkeypatch.setattr(cli, "_stream", no_work)
        code, out, err = run(capsys, "verify", target, *argv.split(), "--jobs", "1")
        assert code == 2
        assert out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_below_one_refused_before_any_work(self, capsys, monkeypatch, jobs):
        def no_work(*args):
            raise AssertionError("work started before the --jobs check")

        monkeypatch.setattr(cli, "_stream", no_work)
        monkeypatch.setattr(cli, "_run_sweep", no_work)
        for argv in (["--exhaustive", "2"], ["--random", "3"]):
            code, out, err = run(capsys, "verify", "zeta", *argv, "--jobs", jobs)
            assert code == 2
            assert out == ""
            assert f"--jobs must be at least 1, got {jobs}" in err

    def test_two_cycle_free_stream_sized_by_its_own_count(self, capsys, monkeypatch):
        # 2^5 * 3^10 = 1,889,568 two-cycle-free digraphs on 5 vertices are
        # under the cap, though the 2^25 digraphs they are drawn from are not
        calls = []

        def recorded(target, spec, jobs, keep_going):
            calls.append((target, spec))
            return 0, []

        monkeypatch.setattr(cli, "_run_sweep", recorded)
        argv = ["--exhaustive", "5", "--jobs", "1", "--format", "json"]
        code, out, err = run(capsys, "verify", "thm3", *argv)
        assert (code, err) == (0, "")
        assert calls == [("thm3", ("two-cycle-free", True, 1889568, 5, 0))]
        assert json.loads(out)["instances"] == 1889568

    def test_sizes_at_the_cap_are_accepted(self, capsys):
        code, out, _ = run(
            capsys, "verify", "mod4", "--random", "1", "--max-n", "12", "--seed", "3"
        )
        assert code == 0
        assert "1/1 pass" in out

    def test_unknown_target_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "thm9", "--exhaustive", "2"])
        assert err.value.code == 2


class TestTournaments:
    def test_stream_text(self, capsys):
        code, out, _ = run(capsys, "tournaments", "--n", "3")
        assert code == 0
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 8
        assert all(parse_digraph(b).is_tournament() for b in blocks)

    def test_stream_json(self, capsys):
        code, out, _ = run(capsys, "tournaments", "--n", "3", "--format", "json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        first = json.loads(lines[0])
        assert first["index"] == 0 and first["n"] == 3

    @pytest.mark.parametrize(
        "n, count", [("60", "2^1770"), ("3000", "2^4498500")]
    )
    def test_long_stream_refused_by_its_exponent(self, capsys, n, count):
        code, out, err = run(capsys, "tournaments", "--n", n)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {count} tournaments on {n} vertices exceeds the "
            "enumeration cap of 16777216\n"
        )

    def test_unknown_subcommand_is_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2


class TestMain:
    def test_one_parser_serves_every_call_of_a_process(self, capsys, monkeypatch):
        calls = [
            ["compute", "--arcs", "3;0 1;1 1;2 2"],
            ["compute", "--arcs", "3;0 1", "--frobnicate"],
            ["hamps", "--arcs", "3;0 1;1 2;2 0", "--format", "json"],
            ["compute", "--arcs", "3;0 1;1 1;2 2", "--format", "json"],
        ]

        def outcome(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exit:
                code = exit.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        build_parser = cli.build_parser
        built = []

        def counting_build():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        separate = []
        for argv in calls:
            cli._parser.cache_clear()
            separate.append(outcome(argv))
        cli._parser.cache_clear()
        built.clear()
        together = [outcome(argv) for argv in calls]
        assert together == separate
        assert [code for code, _, _ in together] == [0, 2, 0, 0]
        assert "unrecognized arguments: --frobnicate" in together[1][2]
        assert len(built) == 1

    @staticmethod
    def fresh_import_loads(module: str) -> bool:
        """Whether a fresh process that imports the front end has
        ``module`` in ``sys.modules``."""
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = f"import sys, redei_berge.cli; print({module!r} in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        return {"True\n": True, "False\n": False}[result.stdout]

    def test_import_leaves_multiprocessing_to_the_sweeps(self):
        # only a sweep at --jobs above 1 starts a pool
        assert not self.fresh_import_loads("multiprocessing")

    def test_import_leaves_the_oracles_to_verify_lemmas(self):
        # only the lemma checks call an oracle
        assert not self.fresh_import_loads("redei_berge.oracles")
        assert self.fresh_import_loads("redei_berge.polynomials")
