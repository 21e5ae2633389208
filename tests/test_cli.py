import csv
import io
import json
import tracemalloc
from datetime import datetime
from math import exp, log

import pytest

from bootgrid import (
    GridSpec,
    RuleFamily,
    ScalingModel,
    Stream,
    closure_fast,
    closure_naive,
    derive_seed,
    fill_probability,
    from_text,
    invert_numeric,
    make_rule,
    pc_expansion,
    random_configuration,
    to_text,
)
from bootgrid.cli import build_parser, main
from reference import ref_to_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(output: str) -> list[str]:
    return [ln for ln in output.splitlines() if not ln.startswith("#")]


class TestClose:
    def test_round_trip_through_files(self, tmp_path, capsys):
        grid = GridSpec((9, 7))
        cfg = random_configuration(grid, 0.35, Stream(4))
        src = tmp_path / "in.txt"
        src.write_text(to_text(cfg))
        code, out, _ = run_cli(capsys, "close", "--rule", "12", "--in", str(src))
        assert code == 0
        got = from_text(out)
        assert got == closure_fast(cfg, make_rule(RuleFamily.parse("12")))

    def test_output_file(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("dims: 3 2\nboundary: open\n111\n111\n")
        dst = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, "close", "--rule", "standard2", "--in", str(src),
                               "--out", str(dst))
        assert code == 0 and out == ""
        assert from_text(dst.read_text()).is_full()

    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("dims: 4 1\nboundary: open\n0110\n"))
        code, out, _ = run_cli(capsys, "close", "--rule", "12", "--in", "-")
        assert code == 0
        assert from_text(out).count_occupied() == 2


class TestSubprocess:
    def test_real_process_round_trip(self, tmp_path):
        import subprocess
        import sys

        src = tmp_path / "cfg.txt"
        src.write_text("dims: 5 3\nboundary: open\n01110\n01110\n01110\n")
        result = subprocess.run(
            [sys.executable, "-m", "bootgrid.cli", "close", "--rule", "12", "--in", str(src)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert from_text(result.stdout).count_occupied() == 9


class TestDeterminism:
    PC_ARGS = ["pc", "--rule", "standard2", "--L", "8", "--trials", "400",
               "--seed", "7", "--tol", "0.01"]

    def test_identical_data_lines_across_runs(self, capsys):
        _, out1, _ = run_cli(capsys, *self.PC_ARGS)
        _, out2, _ = run_cli(capsys, *self.PC_ARGS)
        assert data_lines(out1) == data_lines(out2)

    def test_identical_data_lines_across_threads(self, capsys):
        outs = []
        for t in ("1", "4", "8"):
            _, out, _ = run_cli(capsys, *self.PC_ARGS, "--threads", t)
            outs.append(data_lines(out))
        assert outs[0] == outs[1] == outs[2]

    def test_growth_identical_data_lines_across_threads(self, monkeypatch, capsys):
        # 1000 trials are one block at every --threads, drawn once for both
        # p values; the draws and the rows must not depend on the threads.
        import bootgrid.montecarlo as mc

        args = ["growth", "--event", "north_rows", "--size", "4", "--p", "0.1,0.3",
                "--trials", "1000", "--seed", "3"]
        draw, draws = mc.draw_occupancy, []

        def counted(*a):
            draws.append(a[1:3])
            return draw(*a)

        monkeypatch.setattr(mc, "draw_occupancy", counted)
        outs = {}
        for t in (1, 2, 3):
            draws.clear()
            code, out, _ = run_cli(capsys, *args, "--threads", str(t))
            assert code == 0 and draws == [(0, 1000)]
            outs[t] = data_lines(out)
        assert outs[1] == outs[2] == outs[3]

    def test_threaded_blocks_run_on_the_pool(self, monkeypatch, capsys):
        # 1000 trials of a 64^2 grid are 16 lane words, two blocks of 8 a
        # probe, so at --threads 2 every probe maps its two blocks on a pool.
        from concurrent.futures import ThreadPoolExecutor

        import bootgrid.montecarlo as mc

        mapped = []

        class Pool(ThreadPoolExecutor):
            def map(self, fn, starts):
                mapped.append((self._max_workers, list(starts)))
                return super().map(fn, starts)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", Pool)
        args = ["pc", "--rule", "standard2", "--L", "64", "--trials", "1000",
                "--seed", "7", "--tol", "0.01"]
        _, one, _ = run_cli(capsys, *args, "--threads", "1")
        assert mapped == []
        _, two, _ = run_cli(capsys, *args, "--threads", "2")
        assert mapped == [(2, [0, 512])] * 7
        assert data_lines(two) == data_lines(one)

    def test_manifest_present(self, capsys):
        _, out, _ = run_cli(capsys, *self.PC_ARGS)
        comments = [ln for ln in out.splitlines() if ln.startswith("#")]
        joined = "\n".join(comments)
        assert "subcommand: pc" in joined
        assert "seed: 7" in joined
        assert "timestamp:" in joined

    def test_sweep_csv_repeatable(self, capsys):
        args = ["sweep", "--rule", "standard2", "--L", "4,6", "--p", "0.3,0.5",
                "--trials", "300", "--seed", "9"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert data_lines(out1) == data_lines(out2)

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0 and "bootgrid" in out


class TestTables:
    def test_invert_row_has_seven_numeric_columns(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--family", "12", "--lnv", "1e6")
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "lnv,p_numeric,term1,term2,term3,total,residual"
        values = [float(tok) for tok in lines[1].split(",")]
        assert len(values) == 7

    def test_invert_custom_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--C", "1.0", "--Cprime", "0.0",
                               "--lnv", "1e6,1e8")
        assert code == 0
        assert len(data_lines(out)) == 3

    def test_fill_rows_per_p(self, capsys):
        code, out, _ = run_cli(capsys, "fill", "--rule", "standard2", "--L", "4",
                               "--p", "0.2,0.5,0.8", "--trials", "300", "--seed", "3")
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "family,dims,p,mean,stderr,trials,seed"
        assert len(lines) == 4
        assert lines[1].startswith("standard2,4x4,0.2,")

    def test_sweep_json_mirror(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--rule", "standard2", "--L", "4,6",
                               "--p", "0.3,0.4", "--trials", "200", "--seed", "5",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest"]["subcommand"] == "sweep"
        assert doc["manifest"]["seed"] == 5
        assert len(doc["rows"]) == 4
        assert set(doc["rows"][0]) == {"family", "dims", "p", "mean", "stderr", "trials", "seed"}

    def test_growth_table(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "--event", "east_column", "--size", "4",
                               "--p", "0.2", "--trials", "2000", "--seed", "9")
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "event,param,p,exact,mc_mean,mc_stderr,trials"
        cols = lines[1].split(",")
        assert cols[0] == "east_column"
        assert float(cols[3]) == pytest.approx(1 - 0.8**4, rel=1e-12)

    def test_nucleation_terms(self, capsys):
        code, out, _ = run_cli(capsys, "nucleation", "--p", "1e-4,1e-6")
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "p,log_sum,leading,second,closed_total"
        assert len(lines) == 3

    def test_scaling_table(self, capsys):
        code, out, _ = run_cli(capsys, "scaling", "--family", "12", "--lnv", "1e6")
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "family,lnv,pc_leading,window"

    @pytest.mark.parametrize(
        "argv, row",
        [
            (("--family", "1b:3"), "1b:3,1000000.0,9.543416598861116e-05,"),
            (("--family", "standard3", "--C", "1"), "standard3,1000000.0,0.07238241365054197,"),
        ],
        ids=["1b:3", "standard3"],
    )
    def test_scaling_leaves_the_window_empty_without_a_window_law(self, capsys, argv, row):
        code, out, _ = run_cli(capsys, "scaling", *argv, "--lnv", "1e6")
        assert code == 0
        assert data_lines(out)[1:] == [row]

    def test_dims_flag(self, capsys):
        code, out, _ = run_cli(capsys, "fill", "--rule", "standard2", "--dims", "6,3",
                               "--p", "0.4", "--trials", "100", "--seed", "0")
        assert code == 0
        assert "6x3" in data_lines(out)[1]


def recomputed_residual(ln_v, model):
    """The residual with the root and the terms evaluated again: the three
    calls an invert row once made, the oracle of its bytes."""
    exact = invert_numeric(ln_v, model)
    terms = pc_expansion(ln_v, model)
    lll = log(log(ln_v))
    return (exact - terms.total) * ln_v / (lll * lll)


class TestInvertEvaluatesEachRowOnce:
    LNV = (16.0, 30.0, 1e3, 1e6, 1e8, 1e12, 1e16)

    @pytest.mark.parametrize(
        "flags, model",
        [
            (("--family", "12"), ScalingModel.of("12")),
            (("--family", "1b:3"), ScalingModel.of("1b:3")),
            (("--C", "0.2", "--Cprime", "-0.1"), ScalingModel(0.2, -0.1)),
        ],
        ids=["12", "1b:3", "custom"],
    )
    def test_one_root_a_row_and_unchanged_rows(self, monkeypatch, capsys, flags, model):
        calls = []

        def counted(ln_v, used):
            calls.append(ln_v)
            return invert_numeric(ln_v, used)

        # Both names, so a root found inside the scaling module counts too.
        monkeypatch.setattr("bootgrid.cli.invert_numeric", counted)
        monkeypatch.setattr("bootgrid.asymptotics.invert_numeric", counted)
        lnv = ",".join(repr(v) for v in self.LNV)
        code, out, _ = run_cli(capsys, "invert", *flags, "--lnv", lnv)
        assert code == 0
        assert calls == list(self.LNV)
        want = []
        for ln_v in self.LNV:
            terms = pc_expansion(ln_v, model)
            row = (ln_v, invert_numeric(ln_v, model), terms.term1, terms.term2, terms.term3,
                   terms.total, recomputed_residual(ln_v, model))
            want.append(",".join(repr(v) for v in row))
        assert data_lines(out)[1:] == want


class TestExitCodes:
    def test_invert_without_family_or_coefficients_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "invert", "--lnv", "1e6")
        assert code == 1
        assert "supply --family or --C/--Cprime" in err
        assert out == ""

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "pc", "--rule", "standard2", "--L", "8", "--frobnicate")
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "warp")
        assert code == 2

    def test_unknown_rule_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "pc", "--rule", "hexagon", "--L", "8")
        assert code == 1
        assert "error" in err.lower()

    @pytest.mark.parametrize("rule", ["1b: 3", "1b:03", "abc:1, 1, 2", "123"])
    def test_non_canonical_rule_is_refused_with_no_out_file(self, tmp_path, capsys, rule):
        dst = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "fill", "--rule", rule, "--L", "8", "--p", "0.1",
                                 "--trials", "10", "--out", str(dst))
        assert code == 1 and out == ""
        assert f"bootgrid: error: unknown rule family {rule!r}" in err
        assert not dst.exists()

    @pytest.mark.parametrize("flag, value", [("--C", "0.5"), ("--Cprime", "0.3"),
                                             ("--Cprime", "0.0")])
    def test_invert_refuses_coefficients_with_family(self, monkeypatch, capsys, flag, value):
        # The family fixes both coefficients, so an override would be ignored.
        def fail(*args):
            raise AssertionError("invert computed before refusing its flags")

        monkeypatch.setattr("bootgrid.cli.invert_numeric", fail)
        code, out, err = run_cli(capsys, "invert", "--family", "12", flag, value,
                                 "--lnv", "1e6")
        assert code == 1 and out == ""
        assert "--C and --Cprime cannot be combined with --family" in err

    def test_invert_family_records_cprime_as_not_given(self, capsys):
        # The flag was not given, and the family's C' is (1/3) ln(3e/8), not 0.0.
        code, out, _ = run_cli(capsys, "invert", "--family", "12", "--lnv", "1e6",
                               "--format", "json")
        assert code == 0
        params = json.loads(out)["manifest"]["params"]
        assert params == {"lnv": "1e6", "family": "12", "C": None, "Cprime": None}

    def test_invert_refuses_ln_v_where_ln_v_c_is_not_monotone(self, capsys):
        # 8C + 3C' = -1 < 0: ln V_c dips below its value -14.78 at exp(-2), so
        # -15 has two roots (ln V_c(exp(-2.2)) = -15.88).
        code, out, err = run_cli(capsys, "invert", "--C", "1", "--Cprime", "-3", "--lnv=-15")
        assert code == 1 and out == ""
        assert ("bootgrid: error: ln V = -15 is at or below ln V_c(exp(-2)) = -14.7781, where "
                "ln V_c is not monotone in p (8C + 3C' = -1 < 0): such an ln V has no root "
                "in (0, exp(-2)] or more than one") in err

    @pytest.mark.parametrize("tol", ["1", "0", "1.5"])
    def test_tolerance_outside_unit_interval_is_runtime_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "pc", "--rule", "standard2", "--L", "4",
                                 "--trials", "10", "--tol", tol)
        assert code == 1
        assert "p_tolerance must lie strictly between 0 and 1" in err
        assert out == ""

    def test_close_refuses_json_format(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("dims: 3 1\nboundary: open\n010\n")
        code, out, err = run_cli(capsys, "close", "--rule", "12", "--in", str(src),
                                 "--format", "json")
        assert code == 2
        assert "--format" in err and out == ""

    def test_close_refuses_rows_of_2_to_the_31_cells(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("dims: 2147483648\nboundary: open\n0\n")
        code, out, err = run_cli(capsys, "close", "--rule", "standard1", "--in", str(src))
        assert code == 1 and out == ""
        assert "bootgrid: error: rows of 2147483648 cells are too long to parse" in err

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_close_refuses_thread_count_not_positive(self, tmp_path, capsys, threads):
        src = tmp_path / "in.txt"
        src.write_text("dims: 3 1\nboundary: open\n010\n")
        code, out, err = run_cli(capsys, "close", "--rule", "12", "--in", str(src),
                                 "--threads", threads)
        assert code == 2
        assert "--threads" in err and out == ""

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_fill_refuses_thread_count_not_positive(self, capsys, threads):
        code, out, err = run_cli(capsys, "fill", "--rule", "standard2", "--L", "4",
                                 "--p", "0.5", "--trials", "10", "--threads", threads)
        assert code == 2
        assert "--threads" in err and out == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--p", "1.5"], "p must lie in [0, 1]"),
            (["--p", "-0.1"], "p must lie in [0, 1]"),
            (["--p", "0.1,nan"], "p must lie in [0, 1]"),
            (["--p", "0.1", "--trials", "0"], "trials must be >= 1"),
        ],
    )
    def test_growth_refuses_bad_input_before_enumerating(self, monkeypatch, capsys, args, message):
        def enumerate_anyway(spec):
            raise AssertionError("growth_polynomial ran before the input was checked")

        monkeypatch.setattr("bootgrid.cli.growth_polynomial", enumerate_anyway)
        code, out, err = run_cli(capsys, "growth", "--event", "north_rows", "--size", "12",
                                 *args)
        assert code == 1
        assert message in err and out == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--p", "0.05,0.06,1.5"], "p must lie in [0, 1]"),
            (["--p", "0.5,-0.1"], "p must lie in [0, 1]"),
            (["--p", "0.1,nan"], "p must lie in [0, 1]"),
            (["--p", "0.1", "--trials", "0"], "trials must be >= 1"),
            (["--p", "0.1,0.2", "--trials", "-5"], "trials must be >= 1"),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["fill", "--rule", "12", "--L", "8"],
            ["sweep", "--rule", "12", "--L", "8,16"],
        ],
        ids=["fill", "sweep"],
    )
    def test_monte_carlo_refuses_bad_input_before_estimating(
        self, monkeypatch, capsys, argv, args, message
    ):
        def estimate_anyway(*_args, **_kwargs):
            raise AssertionError("fill_probability ran before the input was checked")

        # fill and sweep call it through the CLI module; the library's name
        # is patched too, so that no path to an estimate is left open
        monkeypatch.setattr("bootgrid.cli.fill_probability", estimate_anyway)
        monkeypatch.setattr("bootgrid.montecarlo.fill_probability", estimate_anyway)
        code, out, err = run_cli(capsys, *argv, *args)
        assert code == 1
        assert message in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fill", "--rule", "standard2", "--L", "4", "--trials", "10"],
            ["growth", "--event", "east_column", "--size", "3", "--trials", "10"],
            ["sweep", "--rule", "standard2", "--L", "4", "--trials", "10"],
        ],
        ids=["fill", "growth", "sweep"],
    )
    @pytest.mark.parametrize("p", [",", "", " , "])
    def test_empty_p_list_is_runtime_error(self, capsys, argv, p):
        code, out, err = run_cli(capsys, *argv, "--p", p)
        assert code == 1
        assert "expected a comma-separated list of numbers" in err and out == ""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["scaling", "--family", "12", "--lnv", "inf"], 1),
            (["scaling", "--family", "12", "--lnv", "1e6,nan"], 1),
            (["nucleation", "--p", "1e-4,-inf"], 1),
            (["invert", "--C", "1", "--lnv", "inf"], 1),
            (["scaling", "--family", "12", "--lnv", "1e6", "--C", "nan"], 2),
            (["scaling", "--family", "12", "--lnv", "1e6", "--C", "inf"], 2),
            (["invert", "--C", "1", "--Cprime", "nan", "--lnv", "100"], 2),
            (["invert", "--C=-inf", "--lnv", "100"], 2),
            (["invert", "--C", "one", "--lnv", "100"], 2),
        ],
    )
    def test_non_finite_number_is_refused(self, capsys, argv, code):
        # Most of these printed a row of nan with exit 0.  A list value is
        # refused at run time (exit 1), a single-number flag by the parser
        # (exit 2).
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert "expected a finite number" in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fill", "--rule", "standard2", "--L", "64", "--dims", "8,8", "--p", "0.3"],
            ["pc", "--rule", "standard2", "--L", "64", "--dims", "8,8"],
            ["sweep", "--rule", "standard2", "--L", "64", "--dims", "8,8;4,4", "--p", "0.3"],
        ],
        ids=["fill", "pc", "sweep"],
    )
    def test_grid_from_both_L_and_dims_is_refused_before_estimating(
        self, monkeypatch, tmp_path, capsys, argv
    ):
        # Before, --dims won and --L was dropped without a word.
        def estimate_anyway(*_args, **_kwargs):
            raise AssertionError("estimated before the grid flags were checked")

        monkeypatch.setattr("bootgrid.cli.fill_probability", estimate_anyway)
        monkeypatch.setattr("bootgrid.cli.estimate_pc", estimate_anyway)
        monkeypatch.setattr("bootgrid.montecarlo.fill_probability", estimate_anyway)
        dst = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, *argv, "--trials", "10", "--out", str(dst))
        assert code == 1 and out == ""
        assert "supply exactly one of --L and --dims" in err
        assert not dst.exists()

    def test_scaling_has_no_prefactor(self, capsys):
        # The window is the law at order constant 1; no flag scales it.
        code, out, err = run_cli(capsys, "scaling", "--family", "12", "--lnv", "1e6",
                                 "--prefactor", "2")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --prefactor 2" in err

    @pytest.mark.parametrize("family", ["12", "standard2"])
    @pytest.mark.parametrize("c", ["0", "-1"])
    def test_scaling_refuses_a_leading_constant_not_positive(self, capsys, family, c):
        code, out, err = run_cli(capsys, "scaling", "--family", family, "--lnv", "1e6",
                                 f"--C={c}")
        assert code == 1 and out == ""
        assert "leading coefficient C must be positive" in err

    @pytest.mark.parametrize("event, size, cap", [("east_column", 21, 20), ("north_rows", 13, 12)])
    def test_growth_refuses_a_size_above_the_cap_before_enumerating(
        self, monkeypatch, capsys, event, size, cap
    ):
        def count_anyway(*args, **kwargs):
            raise AssertionError("counted above the cap")

        monkeypatch.setattr("bootgrid.growth.growth_success_counts", count_anyway)
        code, out, err = run_cli(capsys, "growth", "--event", event, "--size", str(size),
                                 "--p", "0.1", "--trials", "10")
        assert code == 1 and out == ""
        assert f"{event} exact probabilities support size <= {cap}, got {size}" in err

    def test_missing_grid_is_runtime_error(self, capsys):
        code, _, _ = run_cli(capsys, "fill", "--rule", "standard2", "--p", "0.5")
        assert code == 1

    def test_dimension_mismatch_is_runtime_error(self, capsys):
        code, _, _ = run_cli(capsys, "fill", "--rule", "standard3", "--dims", "4,4",
                             "--p", "0.5")
        assert code == 1

    @pytest.mark.parametrize("dims", ["4;4,4", "4,4;4", "4,4;4,4,4"])
    def test_sweep_refuses_dims_group_of_wrong_dimension_before_estimating(
        self, monkeypatch, capsys, dims
    ):
        def estimate_anyway(*_args, **_kwargs):
            raise AssertionError("fill_probability ran before every dims group was checked")

        monkeypatch.setattr("bootgrid.cli.fill_probability", estimate_anyway)
        argv = ["sweep", "--rule", "standard2", "--p", "0.5", "--trials", "10"]
        code, out, err = run_cli(capsys, *argv, "--dims", dims)
        assert code == 1
        assert "family standard2 is 2-dimensional" in err and out == ""
        # the patched name is the one a valid sweep estimates through
        code, out, err = run_cli(capsys, *argv, "--dims", "4,4")
        assert code == 1
        assert "fill_probability ran before" in err and out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--L", ",", "--p", "0.5"], "--L names no grid, got ','"),
            (["sweep", "--dims", ";", "--p", "0.5"], "--dims names no grid, got ';'"),
            (["sweep", "--dims", " ; ", "--p", "0.5"], "--dims names no grid, got ' ; '"),
            (["sweep", "--L", "4", "--p", ","], "expected a comma-separated list of numbers"),
            (["fill", "--dims", "4,4;5,5", "--p", "0.5"], "fill and pc take one grid, got 2"),
            (["pc", "--dims", "4,4;5,5"], "fill and pc take one grid, got 2 in --dims"),
            (["fill", "--L", "4,5", "--p", "0.5"], "fill and pc take one grid, got 2 in --L"),
            (["pc", "--L", "4,5"], "fill and pc take one grid, got 2 in --L"),
            (["fill", "--L", "4;5", "--p", "0.5"], "invalid literal for int() with base 10"),
            (["pc", "--L", "4;5"], "invalid literal for int() with base 10: '4;5'"),
            (["sweep", "--L", "4;5", "--p", "0.5"], "invalid literal for int() with base 10"),
        ],
        ids=["sweep_L", "sweep_dims", "sweep_dims_blank", "sweep_p", "fill", "pc", "fill_L",
             "pc_L", "fill_L_malformed", "pc_L_malformed", "sweep_L_malformed"],
    )
    def test_grid_lists_are_refused_by_flag_before_estimating(
        self, monkeypatch, capsys, argv, message
    ):
        # Before, the two sweeps exited with the library's "dims_list and
        # p_list must be nonempty", and fill and pc took --L as one int, so
        # that a list or a malformed --L exited 2 with argparse's message.
        def estimate_anyway(*_args, **_kwargs):
            raise AssertionError("estimated before the grids were checked")

        monkeypatch.setattr("bootgrid.cli.fill_probability", estimate_anyway)
        monkeypatch.setattr("bootgrid.cli.estimate_pc", estimate_anyway)
        code, out, err = run_cli(capsys, argv[0], "--rule", "standard2", *argv[1:],
                                 "--trials", "10")
        assert code == 1 and out == ""
        assert f"bootgrid: error: {message}" in err


    @pytest.mark.parametrize("seed", ["-1", str(1 << 64), str((1 << 64) + 5)])
    @pytest.mark.parametrize(
        "argv",
        [
            ["fill", "--rule", "12", "--L", "8", "--p", "0.2"],
            ["pc", "--rule", "12", "--L", "8"],
            ["sweep", "--rule", "12", "--L", "8,12", "--p", "0.2"],
            ["growth", "--event", "north_rows", "--size", "12", "--p", "0.1"],
        ],
        ids=["fill", "pc", "sweep", "growth"],
    )
    def test_seed_outside_64_bits_is_usage_error(self, monkeypatch, capsys, argv, seed):
        # Before, a seed was reduced mod 2^64, so --seed -1 printed the rows
        # of --seed 18446744073709551615, and growth enumerated first.
        def run_anyway(*_args, **_kwargs):
            raise AssertionError("ran before the seed was checked")

        for name in ("fill_probability", "estimate_pc", "growth_polynomial"):
            monkeypatch.setattr(f"bootgrid.cli.{name}", run_anyway)
        code, out, err = run_cli(capsys, *argv, "--trials", "10", f"--seed={seed}")
        assert code == 2 and out == ""
        assert f"expected an integer in [0, 2^64), got '{seed}'" in err

    def test_largest_seed_is_its_own_stream(self, capsys):
        top = str((1 << 64) - 1)
        rows = {}
        for seed in ("0", top):
            code, out, err = run_cli(capsys, "fill", "--rule", "12", "--L", "8",
                                     "--p", "0.2,0.3", "--trials", "200", "--seed", seed)
            assert code == 0, err
            rows[seed] = data_lines(out)[1:]
        assert rows[top][0].endswith(f",200,{top}")
        assert [r.split(",")[3] for r in rows[top]] != [r.split(",")[3] for r in rows["0"]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fill", "--L", "8", "--p", "0.2"],
            ["pc", "--L", "8"],
            ["sweep", "--L", "8,12", "--p", "0.2"],
            ["close", "--in", "-"],
        ],
        ids=["fill", "pc", "sweep", "close"],
    )
    def test_stencil_above_the_limit_is_refused(self, capsys, argv):
        # Before, make_rule built any stencil; 1b:1000000000 ended in an
        # out-of-memory kill.
        code, out, err = run_cli(capsys, argv[0], "--rule", "1b:65536", *argv[1:])
        assert code == 1 and out == ""
        assert "rule 1b:65536 has 131074 stencil offsets, more than the 131072" in err

    def test_sweep_family_alias_is_gone(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--family", "12", "--L", "8", "--p", "0.2")
        assert code == 2 and out == ""


def table_rows(output: str, fmt: str) -> list:
    """The data rows of a table run, below the CSV header or in JSON."""
    return json.loads(output)["rows"] if fmt == "json" else data_lines(output)[1:]


class TestFloatRange:
    """A row whose value overflows a float is refused (exit 1, nothing on
    stdout) with a message naming the input; the rows just inside the range
    keep their bytes."""

    @pytest.mark.parametrize(
        "argv, at",
        [
            (["nucleation", "--p", "1e-304"], "p = 1e-304"),
            (["nucleation", "--p", "1e-306"], "p = 1e-306"),
            (["nucleation", "--p", "1e-302,1e-304"], "p = 1e-304"),
            (["scaling", "--family", "12", "--lnv", "1.4e154"], "ln V = 1.4e+154"),
            (["scaling", "--family", "standard2", "--C", "1", "--lnv", "1.4e154"],
             "ln V = 1.4e+154"),
            (["scaling", "--family", "12", "--lnv", "1e6", "--C", "1e308"], "C = 1e+308"),
            (["invert", "--C", "1e308", "--lnv", "1e6"], "C = 1e+308"),
            (["invert", "--C", "1e306", "--lnv", "1e308"], "ln V = 1e+308, C = 1e+306"),
        ],
        ids=["nucleation_nan", "nucleation_floor", "nucleation_list", "scaling_12",
             "scaling_standard2", "scaling_C", "invert_minimum", "invert_expansion"],
    )
    def test_refused_naming_the_input(self, capsys, argv, at):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert at in err and "is outside the float range" in err

    @pytest.mark.parametrize(
        "argv, row",
        [
            (["nucleation", "--p", "1e-302"],
             "1e-302,-8.059682953381979e+306,-8.059238587801197e+306,"
             "-4.443655807833816e+302,-8.05968295338198e+306"),
            (["scaling", "--family", "12", "--lnv", "1.3e154"],
             "12,1.3e+154,1.6144352841635446e-150,2.6441504374122547e-301"),
            (["scaling", "--family", "standard2", "--C", "1", "--lnv", "1.3e154"],
             "standard2,1.3e+154,7.692307692307693e-155,2.099766086305033e-306"),
            # the bisection probes p at which ln V_c overflows a float
            (["invert", "--C", "1e4", "--lnv", "1e308"],
             "1e+308,4.718610488459186e-299,5.029592623524228e-299,-1.8621030757122253e-300,"
             "-1.3063876944218774e-300,4.712743546510818e-299,136162.3847930041"),
            # a root below 1e-300, still a normal float
            (["invert", "--family", "12", "--lnv", "1e306"],
             "1e+306,8.011520319163746e-302,8.274142191212588e-302,-3.080292371586893e-303,"
             "4.253217338718447e-304,8.008645127441083e-302,0.6686127300909072"),
        ],
        ids=["nucleation", "scaling_12", "scaling_standard2", "invert", "invert_tiny_root"],
    )
    def test_edge_rows_keep_their_bytes(self, capsys, argv, row):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert data_lines(out)[1:] == [row]


class TestLeadingPcAboveOne:
    """A leading-order p_c above 1 is no density: scaling exits 1 and
    prints nothing, even when the row comes late in the list."""

    @pytest.mark.parametrize(
        "argv, at",
        [
            (["--family", "1b:40", "--lnv", "10"], "ln V = 10.0, C = 18.548780487804876"),
            (["--family", "standard2", "--C", "5", "--lnv", "3"], "ln V = 3.0, C = 5.0"),
            (["--family", "standard3", "--C", "1e308", "--lnv", "1e6"],
             "ln V = 1000000.0, C = 1e+308"),
            (["--family", "1b:40", "--lnv", "1e6,10"], "ln V = 10.0, C = 18.548780487804876"),
        ],
        ids=["1b40", "standard2", "standard3", "late_in_list"],
    )
    def test_refused_naming_the_input(self, capsys, argv, at):
        code, out, err = run_cli(capsys, "scaling", *argv)
        assert code == 1 and out == ""
        assert f"p_c at {at} is " in err and ", above 1" in err


class TestInvertTotalIsTheSeries:
    """``p_numeric`` is the density; ``total`` is the value of the
    three-term series, which leaves [0, 1] where ln ln V is small.  Such a
    row is printed, not refused."""

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["--family", "1b:40", "--lnv", "1e3,1e6"],
             ["1000.0,0.0991093944533551,0.8850936979797411,-0.9905224521357957,"
              "-0.7483852891095849,-0.8538140432656395,255.1255496588843",
              "1000000.0,0.0009095541272625931,0.0035403747919189646,-0.002691550909778414,"
              "-0.00149677057821917,-0.0006479466960786196,225.89554785161218"]),
            (["--C", "0.01", "--Cprime", "-1", "--lnv", "100"],
             ["100.0,3.7200759760214704e-44,0.0021207592441913597,-0.0028131688325675986,"
              "-0.0418101833714982,-0.04250259295987444,1.822364232588093"]),
        ],
        ids=["1b40", "custom"],
    )
    def test_negative_total_keeps_its_bytes(self, capsys, argv, rows):
        code, out, _ = run_cli(capsys, "invert", *argv)
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "lnv,p_numeric,term1,term2,term3,total,residual"
        assert lines[1:] == rows
        for row in lines[1:]:
            p_numeric, total = float(row.split(",")[1]), float(row.split(",")[5])
            assert 0.0 < p_numeric <= exp(-2.0) and total < 0.0


class TestSweep:
    """sweep through the CLI: grid i of a sweep is estimated at seed
    derive_seed(seed, i), one row per p, grid by grid."""

    def sweep_rows(self, capsys, *argv):
        code, out, err = run_cli(capsys, "sweep", "--rule", "standard2", *argv)
        assert code == 0, err
        header, *rows = data_lines(out)
        return [dict(zip(header.split(","), row.split(","))) for row in rows]

    def test_deterministic_and_ordered(self, capsys):
        argv = ["--L", "4,6", "--p", "0.2,0.3,0.4", "--trials", "800", "--seed", "31"]
        a = self.sweep_rows(capsys, *argv)
        b = self.sweep_rows(capsys, *argv)
        assert a == b
        assert [(r["dims"], r["p"]) for r in a] == [
            (d, p) for d in ("4x4", "6x6") for p in ("0.2", "0.3", "0.4")
        ]

    def test_rows_monotone_in_p_at_fixed_dims(self, capsys):
        rows = self.sweep_rows(capsys, "--L", "8", "--p", "0.1,0.2,0.3,0.4,0.5",
                               "--trials", "1500", "--seed", "7")
        means = [float(r["mean"]) for r in rows]
        assert len(means) == 5
        assert means == sorted(means)  # exact: p-coupled trials

    def test_single_row_matches_fill_probability(self, capsys):
        (row,) = self.sweep_rows(capsys, "--L", "5", "--p", "0.33", "--trials", "900",
                                 "--seed", "42")
        row_seed = derive_seed(42, 0)
        (direct,) = fill_probability(make_rule(RuleFamily.parse("standard2")), GridSpec((5, 5)),
                                     [0.33], 900, row_seed)
        assert float(row["mean"]) == direct.mean and int(row["seed"]) == row_seed

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_rows_are_fill_rows_at_the_derived_seeds(self, capsys, boundary, fmt):
        common = ["--rule", "12", "--p", "0.1,0.3", "--trials", "300",
                  "--boundary", boundary, "--format", fmt]
        groups = ["8,6", "5,5"]
        code, out, _ = run_cli(capsys, "sweep", "--dims", ";".join(groups), "--seed", "11",
                               *common)
        assert code == 0
        want = []
        for i, dims in enumerate(groups):
            code, fill_out, _ = run_cli(capsys, "fill", "--dims", dims,
                                        "--seed", str(derive_seed(11, i)), *common)
            assert code == 0
            want += table_rows(fill_out, fmt)
        assert len(want) == 4
        assert table_rows(out, fmt) == want


class TestStencilLongerThanTheGrid:
    def test_fill_row_matches_per_trial_naive_reconstruction(self, capsys):
        # 40002 offsets, of which 16 land on an open 8 x 8 grid: fewer than
        # theta = 20001, so a trial fills only when it starts full.
        from bootgrid.montecarlo import _STREAM_DOMAIN

        code, out, _ = run_cli(capsys, "fill", "--rule", "1b:20000", "--L", "8",
                               "--p", "0.1,1", "--trials", "24", "--seed", "3")
        assert code == 0
        rule, grid = make_rule(RuleFamily.parse("1b:20000")), GridSpec((8, 8))
        root = Stream((3, _STREAM_DOMAIN))
        want = []
        for p in (0.1, 1.0):
            filled = sum(
                closure_naive(random_configuration(grid, p, root.child(i)), rule).is_full()
                for i in range(24)
            )
            want.append(filled / 24)
        rows = [line.split(",") for line in data_lines(out)[1:]]
        assert [float(r[3]) for r in rows] == want == [0.0, 1.0]


# Each pair names one rule twice: the two build the same stencil.
SAME_RULE_PAIRS = [("12", "1b:2"), ("standard2", "1b:1")]


@pytest.mark.parametrize("a, b", SAME_RULE_PAIRS)
class TestOneRuleOneSetOfLaws:
    def run_rows(self, capsys, family, *argv):
        code, out, err = run_cli(capsys, *argv, "--family", family)
        return code, data_lines(out), err

    @pytest.mark.parametrize("extra", [[], ["--C", "0.3"], ["--C", "0.55"]])
    def test_scaling_rows_match_apart_from_the_family_column(self, capsys, a, b, extra):
        argv = ["scaling", "--lnv", "50,1e6,1e8", *extra]
        code_a, rows_a, _ = self.run_rows(capsys, a, *argv)
        code_b, rows_b, err_b = self.run_rows(capsys, b, *argv)
        assert code_a == code_b
        if code_a != 0:
            assert rows_b == [] and f"family {b!r}" in err_b
            return
        assert [r.split(",")[0] for r in rows_b[1:]] == [b] * 3
        assert [r.split(",")[1:] for r in rows_a] == [r.split(",")[1:] for r in rows_b]

    def test_invert_rows_match(self, capsys, a, b):
        argv = ["invert", "--lnv", "1e6,1e8"]
        code_a, rows_a, _ = self.run_rows(capsys, a, *argv)
        code_b, rows_b, err_b = self.run_rows(capsys, b, *argv)
        assert (code_a, rows_a) == (code_b, rows_b)
        if code_b != 0:
            assert f"for family {b!r}" in err_b

    def test_manifest_keeps_the_family_as_spelled(self, capsys, a, b):
        code, out, _ = run_cli(capsys, "scaling", "--family", b, "--lnv", "1e6", "--C", "0.3",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest"]["params"]["family"] == b
        assert [row["family"] for row in doc["rows"]] == [b]


class TestThreadsEnv:
    def test_env_default(self, monkeypatch, capsys):
        monkeypatch.setenv("BOOTGRID_THREADS", "3")
        _, out, _ = run_cli(capsys, "fill", "--rule", "standard2", "--L", "4",
                            "--p", "0.5", "--trials", "100", "--seed", "1")
        assert "# threads: 3" in out

    def test_explicit_flag_wins(self, monkeypatch, capsys):
        monkeypatch.setenv("BOOTGRID_THREADS", "3")
        _, out, _ = run_cli(capsys, "fill", "--rule", "standard2", "--L", "4",
                            "--p", "0.5", "--trials", "100", "--seed", "1",
                            "--threads", "2")
        assert "# threads: 2" in out

    @pytest.mark.parametrize("value", ["0", "-1", "two", ""])
    def test_bad_env_value_is_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("BOOTGRID_THREADS", value)
        code, out, err = run_cli(capsys, "fill", "--rule", "standard2", "--L", "4",
                                 "--p", "0.5", "--trials", "10")
        assert code == 2
        assert "--threads" in err and out == ""

    def test_explicit_flag_wins_over_bad_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("BOOTGRID_THREADS", "two")
        code, out, _ = run_cli(capsys, "fill", "--rule", "standard2", "--L", "4",
                               "--p", "0.5", "--trials", "10", "--threads", "2")
        assert code == 0
        assert "# threads: 2" in out


class _FrozenClock(datetime):
    @classmethod
    def now(cls, tz=None):
        return datetime(2001, 2, 3, 4, 5, 6, tzinfo=tz)


# A small run of every table subcommand, and the same run made to fail at
# run time (after parsing).
TABLE_RUNS = {
    "fill": (["fill", "--rule", "12", "--L", "5", "--p", "0.2,0.6", "--trials", "70",
              "--seed", "3"], ["--p", "0.2,1.5"]),
    "pc": (["pc", "--rule", "standard2", "--L", "4", "--trials", "20", "--tol", "0.05",
            "--seed", "2"], ["--tol", "0"]),
    "sweep": (["sweep", "--rule", "standard2", "--dims", "4,4;5,3", "--p", "0.3,0.5",
               "--trials", "40", "--seed", "9"], ["--trials", "0"]),
    "growth": (["growth", "--event", "north_rows", "--size", "3", "--p", "0.1,0.4",
                "--trials", "100", "--seed", "5"], ["--p", "nan"]),
    "nucleation": (["nucleation", "--p", "1e-4,1e-6"], ["--p", ","]),
    "scaling": (["scaling", "--family", "12", "--lnv", "1e6,50"], ["--lnv", ","]),
    "invert": (["invert", "--family", "12", "--lnv", "1e6,1e8"], ["--lnv", ","]),
}
MANIFEST_KEYS = ["subcommand", "params", "seed", "threads", "version", "timestamp"]


@pytest.fixture
def frozen_clock(monkeypatch):
    monkeypatch.setattr("bootgrid.cli.datetime", _FrozenClock)


def _csv_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


@pytest.mark.usefixtures("frozen_clock")
@pytest.mark.parametrize("name", list(TABLE_RUNS))
class TestWriterContract:
    """Every table subcommand goes through the one manifest and writer."""

    def test_json_mirrors_csv(self, capsys, name):
        argv = TABLE_RUNS[name][0]
        code, csv_out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(json_out)
        manifest = doc["manifest"]
        assert list(manifest) == MANIFEST_KEYS
        assert manifest["subcommand"] == name
        assert manifest["seed"] == (int(argv[-1]) if "--seed" in argv else None)
        assert manifest["timestamp"] == "2001-02-03T04:05:06+00:00"
        comments = [ln for ln in csv_out.splitlines() if ln.startswith("#")]
        assert comments == [
            f"# bootgrid {manifest['version']}",
            f"# subcommand: {name}",
            f"# params: {json.dumps(manifest['params'], sort_keys=True)}",
            f"# seed: {manifest['seed']}",
            f"# threads: {manifest['threads']}",
            f"# timestamp: {manifest['timestamp']}",
        ]
        header, *rows = data_lines(csv_out)
        assert rows and len(rows) == len(doc["rows"])
        for line, row in zip(rows, doc["rows"]):
            assert list(row) == header.split(",")
            assert ",".join(_csv_value(v) for v in row.values()) == line

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_gets_the_stdout_bytes(self, tmp_path, capsys, name, fmt):
        argv = [*TABLE_RUNS[name][0], "--format", fmt]
        _, stdout, _ = run_cli(capsys, *argv)
        dst = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, *argv, "--out", str(dst))
        assert code == 0 and out == ""
        assert dst.read_bytes() == stdout.encode()

    def test_failed_run_leaves_no_out_file(self, tmp_path, capsys, name):
        argv, bad = TABLE_RUNS[name]
        dst = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, *argv, *bad, "--out", str(dst))
        assert code == 1
        assert "bootgrid: error:" in err and out == ""
        assert not dst.exists()


# Flags the manifest records in fields of its own, or that say only where the
# output goes; params holds every other flag as parsed.
_RUN_KEYS = {"subcommand", "func", "seed", "threads", "format", "out"}


@pytest.mark.parametrize("name", [*TABLE_RUNS, "close"])
def test_manifest_params_are_the_parsed_flags(tmp_path, capsys, name):
    if name == "close":
        src = tmp_path / "in.txt"
        src.write_text("dims: 3 1\nboundary: open\n010\n")
        argv = ["close", "--rule", "12", "--in", str(src)]
    else:
        argv = TABLE_RUNS[name][0]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    (line,) = [ln for ln in out.splitlines() if ln.startswith("# params: ")]
    parsed = vars(build_parser().parse_args(argv))
    want = {k: v for k, v in parsed.items() if k not in _RUN_KEYS}
    assert json.loads(line.removeprefix("# params: ")) == want


class TestCommaInFamilyName:
    """``abc:<a>,<b>,<c>`` is the one family name holding commas: its CSV
    field is quoted, so every row reads back as the header's 7 fields."""

    @pytest.mark.parametrize("argv", [
        ["fill", "--L", "3", "--p", "0.5,0.9", "--trials", "50"],
        ["pc", "--L", "3", "--trials", "20", "--tol", "0.05"],
        ["sweep", "--dims", "3,3,3;3,3,4", "--p", "0.5,0.9", "--trials", "20"],
    ], ids=["fill", "pc", "sweep"])
    def test_csv_rows_read_back_as_the_json_rows(self, capsys, argv):
        argv = [*argv, "--rule", "abc:1,1,2"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        header, *rows = csv.reader(data_lines(out))
        assert header == ["family", "dims", "p", "mean", "stderr", "trials", "seed"]
        assert rows and all(len(row) == 7 for row in rows)
        assert [row[0] for row in rows] == ["abc:1,1,2"] * len(rows)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        table = json.loads(out)["rows"]
        assert [list(row) for row in table] == [header] * len(rows)
        assert [[str(v) for v in row.values()] for row in table] == rows


@pytest.mark.usefixtures("frozen_clock")
class TestCloseWriter:
    def test_out_file_gets_the_stdout_bytes(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("dims: 4 3\nboundary: open\n0100\n0010\n0001\n")
        _, stdout, _ = run_cli(capsys, "close", "--rule", "12", "--in", str(src))
        assert stdout.startswith("# bootgrid ") and "# timestamp: 2001-02-03" in stdout
        dst = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, "close", "--rule", "12", "--in", str(src),
                               "--out", str(dst))
        assert code == 0 and out == ""
        assert dst.read_bytes() == stdout.encode()

    def test_failed_run_leaves_no_out_file(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("dims: 4 1\nboundary: open\n0120\n")
        dst = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, "close", "--rule", "12", "--in", str(src),
                               "--out", str(dst))
        assert code == 1 and out == ""
        assert not dst.exists()


def _after_manifest(output: str) -> str:
    """Everything after the leading ``#`` manifest lines, byte for byte."""
    lines = output.splitlines(keepends=True)
    return "".join(lines[next(i for i, ln in enumerate(lines) if not ln.startswith("#")) :])


_CLOSE_GRIDS = [
    ("standard1", (23,), "open"),
    ("standard1", (23,), "periodic"),
    ("12", (9, 7), "open"),
    ("12", (9, 7), "periodic"),
    ("standard3", (4, 3, 5), "open"),
    ("standard3", (4, 3, 5), "periodic"),
]


class TestCloseBytes:
    """``close`` writes exactly the reference rendering of the naive closure,
    byte for byte, on stdout and in ``--out``, whatever the input line ends."""

    @pytest.mark.parametrize("rule,dims,boundary", _CLOSE_GRIDS)
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_output_is_the_reference_rendering(
        self, tmp_path, capsys, monkeypatch, rule, dims, boundary, newline, source
    ):
        cfg = random_configuration(GridSpec(dims, boundary), 0.3, Stream((*dims, 31)))
        want = ref_to_text(closure_naive(cfg, make_rule(RuleFamily.parse(rule))))
        text = ref_to_text(cfg).replace("\n", newline)
        if source == "stdin":
            infile = "-"
        else:
            infile = str(tmp_path / "in.txt")
            with open(infile, "w", newline="") as fp:
                fp.write(text)
        dst = tmp_path / "out.txt"
        for out in ([], ["--out", str(dst)]):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, stdout, err = run_cli(capsys, "close", "--rule", rule, "--in", infile, *out)
            assert (code, err) == (0, "")
            written = dst.read_bytes().decode("ascii") if out else stdout
            assert _after_manifest(written) == want

    def test_real_process_crlf_stdin(self):
        import subprocess
        import sys

        cfg = random_configuration(GridSpec((9, 7)), 0.3, Stream(31))
        want = ref_to_text(closure_naive(cfg, make_rule(RuleFamily.parse("12"))))
        result = subprocess.run(
            [sys.executable, "-m", "bootgrid.cli", "close", "--rule", "12", "--in", "-"],
            input=ref_to_text(cfg).replace("\n", "\r\n").encode("ascii"),
            capture_output=True,
            timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert _after_manifest(result.stdout.decode("ascii")) == want


def _traced_peak(fn) -> int:
    """Peak traced bytes while ``fn()`` runs, above those traced when it
    starts; tracemalloc also traces numpy's data buffers."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestCloseMemory:
    """Traced peaks on a 2048^2 lattice, per byte of its text, above the live
    input: the parse holds the text's rows and one byte array of them, the
    render one byte buffer and the text decoded from it, and ``close`` at most
    three text-sized buffers at a time."""

    @pytest.fixture(scope="class")
    def lattice(self):
        cfg = random_configuration(GridSpec((2048, 2048)), 0.05, Stream(2048))
        return cfg, to_text(cfg)

    def test_parse(self, lattice):
        _, text = lattice
        assert _traced_peak(lambda: from_text(text)) <= 2.5 * len(text)

    def test_render(self, lattice):
        cfg, text = lattice
        assert _traced_peak(lambda: to_text(cfg)) <= 2.5 * len(text)

    def test_close(self, lattice, tmp_path):
        cfg, text = lattice
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text(text)
        argv = ["close", "--rule", "12", "--in", str(src), "--out", str(dst)]
        assert _traced_peak(lambda: main(argv)) <= 4 * len(text)
        assert from_text(dst.read_text()) == closure_fast(cfg, make_rule(RuleFamily.parse("12")))
