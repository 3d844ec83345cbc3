"""Tests for the command-line driver."""

import os

import pytest

from repro.cli import build_arg_parser, load_module, main


C_SOURCE = """
int table[8];
void fill(void) {
  table[0] = 5; table[1] = 10; table[2] = 15; table[3] = 20;
  table[4] = 25; table[5] = 30; table[6] = 35; table[7] = 40;
}
int add2(int a, int b) { return a + b; }
"""

LL_SOURCE = """
define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 1, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 1, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 1, i32* %p3
  %p4 = getelementptr i32, i32* %p, i64 4
  store i32 1, i32* %p4
  ret void
}
"""

LOOP_SOURCE = """
int a[24];
void init(void) {
  for (int i = 0; i < 24; i++) a[i] = i * 3;
}
"""


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(C_SOURCE)
    return str(path)


@pytest.fixture
def ll_file(tmp_path):
    path = tmp_path / "prog.ll"
    path.write_text(LL_SOURCE)
    return str(path)


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.c"
    path.write_text(LOOP_SOURCE)
    return str(path)


class TestLoading:
    def test_load_c(self, c_file):
        module = load_module(c_file, optimize=True)
        assert module.get_function("fill") is not None

    def test_load_ll(self, ll_file):
        module = load_module(ll_file, optimize=True)
        assert module.get_function("f") is not None

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/x.c", "--size"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unparsable_ll_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.ll"
        path.write_text("define i32 @f( this is not IR")
        assert main([str(path), "--size"]) == 1
        err = capsys.readouterr().err
        assert "error" in err
        assert "Traceback" not in err

    def test_unverifiable_ll_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.ll"
        path.write_text(
            "define void @f() {\nentry:\n  %x = add i32 1, 2\n}\n"
        )
        assert main([str(path), "--size"]) == 1
        err = capsys.readouterr().err
        assert "terminator" in err
        assert "Traceback" not in err


class TestActions:
    def test_roll_and_size(self, c_file, capsys):
        assert main([c_file, "--roll", "--size"]) == 0
        out = capsys.readouterr().out
        assert "RoLAG rolled 1 loop(s)" in out
        assert "fill" in out
        assert "text:" in out

    def test_roll_stats(self, c_file, capsys):
        assert main([c_file, "--roll", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "node" in out

    def test_roll_ll_input(self, ll_file, capsys):
        assert main([ll_file, "--roll", "--emit-ir"]) == 0
        out = capsys.readouterr().out
        assert "rolag.loop" in out

    def test_unroll_then_reroll(self, loop_file, capsys):
        assert main([loop_file, "--unroll", "8", "--reroll", "--size"]) == 0
        out = capsys.readouterr().out
        assert "unrolled 1 loop(s)" in out
        assert "rerolled 1 loop(s)" in out

    def test_unroll_then_roll_loop_aware(self, loop_file, capsys):
        assert main(
            [loop_file, "--unroll", "8", "--roll", "--loop-aware", "--size"]
        ) == 0
        out = capsys.readouterr().out
        assert "RoLAG rolled 1 loop(s)" in out

    def test_run_function(self, c_file, capsys):
        assert main([c_file, "--run", "add2", "40", "2"]) == 0
        out = capsys.readouterr().out
        assert "returned 42" in out
        assert "instructions executed" in out

    def test_run_after_roll_same_result(self, c_file, capsys):
        main([c_file, "--run", "add2", "1", "2"])
        plain = capsys.readouterr().out
        main([c_file, "--roll", "--run", "add2", "1", "2"])
        rolled = capsys.readouterr().out
        assert "returned 3" in plain
        assert "returned 3" in rolled

    def test_run_unknown_function(self, c_file, capsys):
        assert main([c_file, "--run", "nope"]) == 1

    def test_no_special_nodes_flag(self, c_file, capsys):
        assert main([c_file, "--roll", "--no-special-nodes"]) == 0

    def test_emit_ir_parses_back(self, c_file, capsys):
        assert main([c_file, "--roll", "--emit-ir"]) == 0
        out = capsys.readouterr().out
        ir_text = out[out.index("@table") :]
        from repro.ir import parse_module, verify_module

        verify_module(parse_module(ir_text))


class TestArgParser:
    def test_help_mentions_all_actions(self):
        parser = build_arg_parser()
        text = parser.format_help()
        for flag in ("--roll", "--reroll", "--unroll", "--size", "--run",
                     "--loop-aware", "--emit-ir", "--validate",
                     "--guard-dir"):
            assert flag in text

    def test_validate_flag_parses(self):
        parser = build_arg_parser()
        args = parser.parse_args(
            ["x.c", "--validate", "safe", "--guard-dir", "guards"]
        )
        assert args.validate == "safe"
        assert args.guard_dir == "guards"
        assert parser.parse_args(["x.c"]).validate == "off"

    def test_unknown_validate_level_rejected(self, capsys):
        parser = build_arg_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["x.c", "--validate", "paranoid"])

    def test_chaos_corpus_size_is_count_not_jobs(self, capsys):
        # ``--jobs`` means worker processes in batch; chaos spells its
        # corpus size ``--count``, as ``difftest`` and ``bench`` do.
        from repro.cli import build_chaos_parser

        parser = build_chaos_parser()
        assert parser.parse_args(["--count", "6"]).count == 6
        assert parser.parse_args([]).count == 12
        with pytest.raises(SystemExit):
            parser.parse_args(["--jobs", "6"])


class TestValidatedSingleModule:
    @pytest.mark.guard
    def test_roll_under_validation_succeeds(self, c_file, capsys):
        assert main([c_file, "--roll", "--validate", "safe", "--size"]) == 0
        out = capsys.readouterr().out
        assert "RoLAG rolled 1 loop(s)" in out


class TestSingleInputRefusesDriverOptions:
    """A single input runs in-process: the driver's options would be
    silently ignored, so the run exits 1 and names each one given."""

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--cache-dir", "CACHE"], "--cache-dir"),
            (["--no-dedupe"], "--no-dedupe"),
            (["--deadline", "1e-6"], "--deadline"),
            (["--quarantine-file", "Q.json"], "--quarantine-file"),
            (["--fault-plan", "rolag.roll:raise"], "--fault-plan"),
            (["--jobs", "2"], "--jobs"),
            (["--serial-fallback"], "--serial-fallback"),
            (["--retries", "3"], "--retries"),
            (["--retry-backoff", "0.5"], "--retry-backoff"),
        ],
    )
    def test_each_flag_is_refused(self, c_file, capsys, extra, flag):
        assert main([c_file, "--roll"] + extra) == 1
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "RoLAG rolled" not in captured.out

    def test_every_given_flag_is_named_and_nothing_runs(
        self, c_file, tmp_path, capsys
    ):
        cache_dir = tmp_path / "D"
        code = main([
            c_file, "--roll", "--fault-plan", "rolag.roll:raise",
            "--deadline", "1e-6", "--cache-dir", str(cache_dir),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "--cache-dir, --deadline, --fault-plan" in captured.err
        assert captured.out == ""
        assert not cache_dir.exists()

    def test_parser_defaults_are_not_flags(self, c_file, capsys):
        defaults = build_arg_parser()
        retries = str(defaults.get_default("retries"))
        backoff = str(defaults.get_default("retry_backoff"))
        assert main([
            c_file, "--roll", "--retries", retries,
            "--retry-backoff", backoff, "--no-cache",
        ]) == 0
        assert "RoLAG rolled 1 loop(s)" in capsys.readouterr().out
