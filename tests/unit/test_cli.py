"""Unit tests for the python -m repro command line interface."""

import pytest

from repro.__main__ import build_parser, main, parse_arith
from repro.arith.bigfloat import AdaptiveBigFloatArithmetic, BigFloatArithmetic
from repro.arith.posit import PositArithmetic
from repro.arith.vanilla import VanillaArithmetic


@pytest.fixture
def program(tmp_path):
    p = tmp_path / "prog.fpc"
    p.write_text("""
    long main() {
        double x = 1.0;
        for (long i = 0; i < 5; i = i + 1) { x = x / 3.0 + 1.0; }
        printf("x=%.12g\\n", x);
        return 0;
    }
    """)
    return str(p)


class TestParseArith:
    def test_specs(self):
        assert isinstance(parse_arith("vanilla"), VanillaArithmetic)
        a = parse_arith("mpfr:128")
        assert isinstance(a, BigFloatArithmetic) and a.precision == 128
        assert isinstance(parse_arith("mpfr"), BigFloatArithmetic)
        p = parse_arith("posit:16:1")
        assert isinstance(p, PositArithmetic)
        assert p.env.nbits == 16 and p.env.es == 1
        ad = parse_arith("adaptive:32:256")
        assert isinstance(ad, AdaptiveBigFloatArithmetic)
        assert ad.precision == 32 and ad.max_precision == 256

    def test_bad_spec(self):
        with pytest.raises(SystemExit):
            parse_arith("ternary")


class TestCommands:
    def test_run_native(self, program, capsys):
        assert main(["run", program, "--native"]) == 0
        assert "x=1.49" in capsys.readouterr().out

    def test_run_fpvm_matches_native(self, program, capsys):
        main(["run", program, "--native"])
        native_out = capsys.readouterr().out
        assert main(["run", program, "--arith", "vanilla"]) == 0
        assert capsys.readouterr().out == native_out

    def test_run_stats_flag(self, program, capsys):
        main(["run", program, "--arith", "mpfr:64", "--stats"])
        err = capsys.readouterr().err
        assert "FP traps" in err and "mpfr64" in err

    def test_run_scenarios(self, program):
        for scenario in ("kernel", "hrt", "pipeline"):
            assert main(["run", program, "--scenario", scenario]) == 0

    def test_run_patch_mode(self, program):
        assert main(["run", program, "--mode", "trap-and-patch"]) == 0

    def test_run_static_and_instrumented(self, program, capsys):
        main(["run", program, "--native"])
        native_out = capsys.readouterr().out
        assert main(["run", program, "--mode", "static"]) == 0
        assert capsys.readouterr().out == native_out
        assert main(["run", program, "--mode", "static",
                     "--instrument"]) == 0
        assert capsys.readouterr().out == native_out

    def test_run_workload(self, capsys):
        assert main(["run", "--workload", "nas_is", "--size", "test"]) == 0
        assert "sorted=1" in capsys.readouterr().out

    def test_spy(self, program, capsys):
        assert main(["spy", program]) == 0
        out = capsys.readouterr().out
        assert "would trap under FPVM" in out
        assert "divsd" in out

    def test_analyze(self, program, capsys):
        assert main(["analyze", program]) == 0
        assert "patches total" in capsys.readouterr().out

    def test_analyze_validate_names_the_program_file(self, program, capsys):
        assert main(["analyze", program, "--validate"]) == 0
        out = capsys.readouterr().out
        assert "prog.fpc [mpfr:64]: OK" in out
        assert "<builder>" not in out

    @pytest.mark.parametrize("command", ["run", "sanitize"])
    def test_missing_program_file_is_a_usage_error(self, command, tmp_path,
                                                   capsys):
        missing = str(tmp_path / "missing.fpc")
        with pytest.raises(SystemExit) as exc:
            main([command, missing])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and missing in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["run", "--workload", "lorenz", "--arith", "bogus:3"],
        ["chaos", "--workloads", "lorenz", "--ariths", "bogus:3"],
    ])
    def test_bad_arith_spec_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'bogus:3'" in err
        assert err.startswith("repro: error: ")

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("lorenz", "nas_cg", "enzo"):
            assert name in out

    def test_parser_rejects_missing_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    @pytest.mark.parametrize("argv", [
        ["sanitize", "--workload", "numbugs_cancel", "--exempt-aggressive"],
        ["run", "--workload", "lorenz", "--patch-mode"],
        ["workload", "lorenz"],
    ])
    def test_removed_spellings_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestBatchFlags:
    def test_run_batch_n(self, program, capsys):
        assert main(["run", program, "--native", "--batch", "2",
                     "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("x=1.49") == 2
        assert "lane0" in captured.out and "lane1" in captured.out
        assert "vector dispatches" in captured.err

    def test_run_lanes_file(self, program, tmp_path, capsys):
        lanes = tmp_path / "lanes.json"
        lanes.write_text('[{"label": "a"}, {"label": "b"}]')
        assert main(["run", program, "--native",
                     "--lanes", str(lanes)]) == 0
        out = capsys.readouterr().out
        assert "--- a ---" in out and "--- b ---" in out

    def test_lanes_file_validated(self, program, tmp_path):
        lanes = tmp_path / "lanes.json"
        lanes.write_text('[{"bogus_field": 1}]')
        with pytest.raises(SystemExit, match="unknown fields"):
            main(["run", program, "--native", "--lanes", str(lanes)])

    def test_batch_and_lanes_exclusive(self, program):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", program, "--batch", "2", "--lanes", "x.json"])

    def test_shared_parent_on_chaos_and_run(self, program):
        parser = build_parser()
        args = parser.parse_args(["chaos", "--batch", "3"])
        assert args.batch == 3
        args = parser.parse_args(["run", program, "--batch", "8"])
        assert args.batch == 8
