"""End-to-end tests of the command-line interface and its exit codes."""

import csv
import hashlib
import json

import pytest

import nflab.cli
from nflab import RegisterShape, scalar_cost
from nflab.cli import main
from nflab.nfl import CostPair, NflReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestHaarCommand:
    def test_reports_both_methods(self, capsys):
        code, out = run_cli(capsys, "haar", "--nq", "2", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert set(report["results"]) == {"qr", "rayleigh"}
        for entry in report["results"].values():
            assert abs(entry["sum"] - 1.0) < 1e-12
            assert len(entry["squared_magnitudes"]) == 4
        assert report["timings"] is None

    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(capsys, "haar", "--nq", "2", "--seed", "3")
        _, second = run_cli(capsys, "haar", "--nq", "2", "--seed", "3")
        assert first == second

    def test_tolerance_reaches_strong_distinctness_checks(self, capsys):
        code, out = run_cli(capsys, "haar", "--nq", "2", "--seed", "0", "--tolerance", "0.2")
        assert code == 0
        for entry in json.loads(out)["results"].values():
            assert entry["distinct"] is False
            assert entry["strongly_distinct_fast"] == "inconclusive"
            assert entry["strongly_distinct_oracle"] is False

    def test_size_guard_exit_code(self, capsys):
        code, out = run_cli(capsys, "haar", "--nq", "13")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ResourceLimitError"


class TestClassesCommand:
    def test_fixture_is_generic(self, capsys):
        code, out = run_cli(capsys, "classes")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["M"] == 9
        assert report["results"]["M_star"] == 9
        assert report["verdicts"]["classes"] == "generic (M = M*)"

    def test_uniform_collapses(self, capsys):
        code, out = run_cli(capsys, "classes", "--state", "uniform")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["M"] < report["results"]["M_star"]
        assert report["verdicts"]["classes"] == "collapse (M < M*)"

    def test_collision_state(self, capsys):
        code, out = run_cli(
            capsys,
            "classes", "--state", "collision",
            "--n0", "0", "--nplus", "0", "--nq", "3", "--ny", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["M"] < 70
        assert report["results"]["M_star"] == 70

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "classes.csv"
        code, _ = run_cli(capsys, "classes", "--csv", str(path))
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class_index", "distribution", "member_count"]
        assert len(rows) == 10  # header + 9 classes
        assert sum(int(r[2]) for r in rows[1:]) == 40320

    @pytest.mark.parametrize("argv, digest", [
        ((), "ce5b139271d242e9dfdc8f86c27c6f7fe02d572c6cde432ed9f5e0737d054d29"),
        (
            ("--state", "collision", "--n0", "0", "--nplus", "0", "--nq", "3", "--ny", "1"),
            "2b311cb796f1dfad246874d2deffcdd8602d8c6ff69d7432a50f6999a3f3f82a",
        ),
        (
            ("--state", "haar", "--seed", "7", "--nq", "2", "--mode", "sampled",
             "--samples", "4000"),
            "7ee8a0eb7c936e704f88ed7f404bc780939fe128a224f768ac19c68f786ff336",
        ),
    ])
    def test_reports_are_pinned(self, capsys, argv, digest):
        code, out = run_cli(capsys, "classes", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_csv_export_is_pinned(self, tmp_path, capsys):
        path = tmp_path / "classes.csv"
        code, _ = run_cli(capsys, "classes", "--csv", str(path))
        assert code == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "3cb53b03118de14d485b6fe2eb90410cc87c75f5805985892592ea973d1c8508"

    def test_invalid_shape_exit_code(self, capsys):
        code, out = run_cli(capsys, "classes", "--ny", "0")
        assert code == 2
        assert "error" in json.loads(out)

    def test_non_transitive_tolerance_is_a_guard(self, capsys):
        # At 1e-3 this Haar state's distributions chain: some are within the
        # tolerance of a common neighbour but not of each other.
        code, out = run_cli(
            capsys,
            "classes", "--n0", "0", "--nplus", "0", "--nq", "3", "--ny", "1",
            "--state", "haar", "--seed", "4", "--tolerance", "0.001",
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValidationError"


class TestNflCommand:
    def test_two_haar_states_agree(self, capsys):
        code, out = run_cli(capsys, "nfl", "--cost", "transpositions")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["partitions_identical"] is True
        assert report["verdicts"]["equal_costs"] is True
        assert report["results"]["costs"]["transpositions/average"]["a"] == [2.0]

    def test_uniform_b_violates_precondition(self, capsys):
        code, out = run_cli(capsys, "nfl", "--uniform-b", "--cost", "transpositions")
        assert code == 2
        report = json.loads(out)
        assert report["verdicts"]["precondition"] == "violated"
        assert report["verdicts"]["violations"]

    def test_budget_aggregator(self, capsys):
        code, out = run_cli(
            capsys,
            "nfl", "--cost", "transpositions", "--aggregator", "budget",
            "--budget", "1.0",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["costs"]["transpositions/budget"]["a"] == [-3]

    def test_secondary_costs_with_nx(self, capsys):
        code, out = run_cli(
            capsys,
            "nfl", "--nx", "1", "--cost", "transpositions", "--aggregator", "average",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["secondary_classes"] == [81, 81]
        assert report["results"]["secondary_costs"]["transpositions/average"]["a"] == [4.0]

    def test_nx3_folds_every_secondary_class(self, capsys):
        # 9 classes and 2^3 blocks give 9^8 secondary classes, all folded in
        # closed form; tests/test_cost.py checks the fold against every tuple.
        code, out = run_cli(
            capsys, "nfl", "--nx", "3", "--cost", "transpositions", "--aggregator", "average"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["secondary_classes"] == [9 ** 8, 9 ** 8]
        assert results["secondary_costs"]["transpositions/average"]["a"] == [16.0]

    def test_unprintable_secondary_class_count_is_a_guard(self, capsys):
        code, out = run_cli(capsys, "nfl", "--nx", "13", "--cost", "transpositions")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ResourceLimitError"

    @pytest.mark.parametrize("argv, digest", [
        ((), "d242faf8dd37fc96de5ab8962e48439586ef177a792fe69c1386330487fe596f"),
        (("--nx", "1"), "e99ddae4dd606e5a0d359d3ab66ecd26f81476bac2bee8b5a233139bb2d6b72d"),
        (("--n0", "0", "--nplus", "0", "--nq", "3", "--ny", "1"),
         "3ad657b201b152d3ff98a728c1063263a5a10045d11cdccb79d1503537648944"),
        (("--n0", "0", "--nplus", "0", "--nq", "3", "--ny", "1", "--nx", "1", "--cost", "gates"),
         "2333667e51326b1cb83025872ae1191855231c455b856173647e0e3c47fc4093"),
        (("--n0", "0", "--nplus", "1", "--nq", "2", "--ny", "1", "--seed", "3", "--seed2", "4"),
         "59c87dda15e05b455cf6cb986dc2164565e4f57c3cee8a5b9945b04ccd87c656"),
    ])
    def test_default_shape_reports_are_pinned(self, capsys, argv, digest):
        code, out = run_cli(capsys, "nfl", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_precondition_report_is_pinned(self, capsys):
        code, out = run_cli(capsys, "nfl", "--uniform-b")
        assert code == 2
        digest = "d703037bbb1d859cb8460bb46eb0065d3f6787e23cd92912f126747f762d27e0"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_secondary_mismatch_fails_the_check(self, capsys, monkeypatch):
        # Primary costs and class counts agree; only one secondary pair differs.
        same = CostPair(scalar_cost("transpositions", 2.0), scalar_cost("transpositions", 2.0))
        differ = CostPair(scalar_cost("transpositions", 4.0), scalar_cost("transpositions", 5.0))
        report = NflReport(
            shape=RegisterShape(1, 1, 1, 1, nx=1),
            precondition_ok=True,
            violations=(),
            m_star=9,
            m_a=9,
            m_b=9,
            partitions_identical=True,
            cost_pairs={("transpositions", "average"): same},
            secondary_class_counts=(81, 81),
            secondary_cost_pairs={("transpositions", "average"): differ},
        )
        monkeypatch.setattr(nflab.cli, "nfl_compare", lambda *args, **kwargs: report)
        code, out = run_cli(capsys, "nfl", "--nx", "1")
        assert code == 3
        result = json.loads(out)
        assert result["verdicts"]["equal_costs"] is False
        assert result["results"]["secondary_costs"]["transpositions/average"]["equal"] is False


class TestCollapseCommand:
    def test_default_witness(self, capsys):
        code, out = run_cli(capsys, "collapse")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"] == {
            "degenerate_equal": True,
            "distinct_different": True,
            "classes_differ": True,
        }
        assert report["results"]["degenerate_distributions"][0] == ["7/10", "3/10"]

    def test_failed_check_exit_code(self, capsys):
        # Passing the degenerate state as the "distinct" one makes the
        # witness distributions coincide, so the check fails.
        code, out = run_cli(capsys, "collapse", "--distinct", "3/10,3/10,3/20,1/4")
        assert code == 3
        assert json.loads(out)["verdicts"]["distinct_different"] is False

    def test_bad_state_exit_code(self, capsys):
        code, out = run_cli(capsys, "collapse", "--degenerate", "1/2,1/2")
        assert code == 2
        assert "error" in json.loads(out)

    def test_out_of_range_position_is_a_guard(self, capsys):
        code, out = run_cli(capsys, "collapse", "--istar", "0")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValidationError"

    def test_internal_index_error_propagates(self, monkeypatch):
        def broken(*args):
            raise IndexError("internal fault")

        monkeypatch.setattr(nflab.cli, "collapse_witness", broken)
        with pytest.raises(IndexError):
            main(["collapse"])


class TestScalingCommand:
    def test_csv_table(self, tmp_path, capsys):
        path = tmp_path / "scaling.csv"
        code, _ = run_cli(
            capsys, "scaling", "--max-ntilde", "3", "--samples", "5", "--out", str(path)
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "n_tilde", "N_tilde", "mean_gates", "bound_upper", "bound_lower_formula"
        ]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        assert rows[1][4] == ""  # no lower-bound formula value at n_tilde = 1

    def test_range_guard(self, capsys):
        code, out = run_cli(capsys, "scaling", "--max-ntilde", "9")
        assert code == 2
        assert "error" in json.loads(out)


NFL_STAGE_KEYS = {"partition_seconds", "oracle_seconds", "cost_seconds", "fold_seconds"}


class TestTimings:
    @pytest.mark.parametrize("argv, key", [
        (("haar", "--nq", "2", "--seed", "7"), "check_seconds"),
        (("nfl", "--n0", "0", "--nplus", "0", "--nq", "2", "--ny", "1"), "compare_seconds"),
        (("collapse",), "witness_seconds"),
    ])
    def test_timings_fill_one_elapsed_entry(self, capsys, argv, key):
        code, plain = run_cli(capsys, *argv)
        timed_code, timed = run_cli(capsys, *argv, "--timings")
        assert code == timed_code == 0
        plain, timed = json.loads(plain), json.loads(timed)
        assert plain["timings"] is None
        stages = NFL_STAGE_KEYS if argv[0] == "nfl" else set()
        assert set(timed["timings"]) == {key} | stages
        for value in timed["timings"].values():
            assert isinstance(value, float) and value >= 0.0
        for part in ("config", "results", "verdicts"):
            assert timed[part] == plain[part]

    @pytest.mark.parametrize("argv", [("--nx", "1"), ("--uniform-b",)])
    def test_nfl_stages_fit_inside_compare(self, capsys, argv):
        _, out = run_cli(capsys, "nfl", *argv, "--timings")
        timings = json.loads(out)["timings"]
        stages = [timings[key] for key in sorted(NFL_STAGE_KEYS)]
        assert sum(stages) <= timings["compare_seconds"]
        ran = {key for key in NFL_STAGE_KEYS if timings[key] > 0.0}
        if "--uniform-b" in argv:
            assert ran == {"partition_seconds", "oracle_seconds"}
        else:
            assert ran == NFL_STAGE_KEYS


class TestParser:
    def test_back_to_back_calls_share_no_state(self, capsys, tmp_path):
        assert nflab.cli.build_parser() is nflab.cli.build_parser()
        run_cli(capsys, "nfl", "--nx", "1")
        _, out = run_cli(capsys, "nfl")
        assert "secondary_classes" not in json.loads(out)["results"]
        path = tmp_path / "classes.csv"
        run_cli(capsys, "classes", "--csv", str(path))
        path.unlink()
        code, _ = run_cli(capsys, "classes")
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
