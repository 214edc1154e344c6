import io
import json

import pytest

from conftest import THREE_LOOP
from redei_berge import PowerSumPolynomial, format_digraph, parse_digraph
from redei_berge import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        parsed = PowerSumPolynomial.from_json(out)
        assert parsed == PowerSumPolynomial({(1, 1, 1): 1, (2, 1): 2, (3,): 1})

    def test_text_and_json_render_same_polynomial(self, capsys):
        _, text_out, _ = run(capsys, "compute", "--arcs", "4;0 1;1 0;1 2;1 3;2 3")
        _, json_out, _ = run(
            capsys, "compute", "--arcs", "4;0 1;1 0;1 2;1 3;2 3", "--format", "json"
        )
        assert PowerSumPolynomial.from_json(json_out).to_text() == text_out.strip()

    def test_check_flag(self, capsys):
        code, out, err = run(
            capsys, "compute", "--arcs", "3;0 1;1 1;2 2", "--check", "--vars", "4"
        )
        assert code == 0
        assert "agrees in 4 variables" in err

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

    def test_cap_violation_is_exit_2(self, capsys):
        code, _, err = run(capsys, "compute", "--arcs", "12")
        assert code == 2
        assert "cap" in err


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
        assert "mod4: skipped" in out


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

    def test_jobs_clamped_to_available_cpus(self, capsys, monkeypatch):
        # a stand-in pool that records its size and runs chunks inline, so
        # no process is started whatever --jobs says
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                result = fn(*args)
                return type("Done", (), {"result": lambda self: result})()

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        args = ["verify", "zeta", "--exhaustive", "2"]
        for jobs in (["--jobs", "1000"], []):
            code, out, _ = run(capsys, *args, *jobs)
            assert code == 0 and "16/16 pass" in out
        assert sizes == [2, 2]

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

    def test_failure_echoes_counterexample(self, capsys, monkeypatch):
        # fault injection: a check that rejects any digraph with an arc
        def broken(d, num_vars):
            return d.arc_count == 0, {"note": "injected"}

        monkeypatch.setitem(cli._CHECKS, "thm1", ("digraph", broken))
        code, out, _ = run(capsys, "verify", "thm1", "--exhaustive", "2", "--jobs", "1")
        assert code == 1
        assert "FAIL at instance #1" in out
        assert "1/2 pass" in out  # stops at the first failure
        replay = out[out.index("2\n") :].splitlines()
        assert parse_digraph("\n".join(replay[:2])).arc_count == 1

    def test_keep_going_reports_all(self, capsys, monkeypatch):
        def broken(d, num_vars):
            return d.arc_count == 0, {}

        monkeypatch.setitem(cli._CHECKS, "thm1", ("digraph", broken))
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

    def test_unknown_subcommand_is_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2
