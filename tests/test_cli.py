"""Tests for the command-line entry points (in-process, via main(argv))."""

import os
import time

import pytest

from repro.bcc.__main__ import main as bcc_main

PROGRAM = """
int main() {
    int n = read_int();
    print_int(n * 2);
    print_char('\\n');
    return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.blc"
    path.write_text(PROGRAM)
    return str(path)


class TestBccCli:
    def test_compile_only(self, source_file, capsys):
        assert bcc_main([source_file]) == 0
        err = capsys.readouterr().err
        assert "procedures" in err

    def test_run_with_inputs(self, source_file, capsys):
        assert bcc_main([source_file, "--run", "--inputs", "21"]) == 0
        out = capsys.readouterr().out
        assert out == "42\n"

    def test_emit_asm(self, source_file, capsys):
        assert bcc_main([source_file, "--emit-asm"]) == 0
        out = capsys.readouterr().out
        assert ".ent main" in out
        assert "jal read_int" in out

    def test_dump_ir(self, source_file, capsys):
        assert bcc_main([source_file, "--dump-ir"]) == 0
        out = capsys.readouterr().out
        assert "func main" in out

    def test_predict_report(self, source_file, capsys):
        assert bcc_main([source_file, "--predict", "--inputs", "5"]) == 0
        captured = capsys.readouterr()
        assert "ball-larus" in captured.out
        assert "perfect" in captured.out

    def test_no_opt_still_correct(self, source_file, capsys):
        assert bcc_main([source_file, "--run", "--no-opt",
                         "--inputs", "21"]) == 0
        assert capsys.readouterr().out == "42\n"

    def test_no_rotate_loops(self, tmp_path, capsys):
        path = tmp_path / "loop.blc"
        path.write_text("int main() { int i; int s = 0; "
                        "for (i = 0; i < 5; i++) { s += i; } "
                        "print_int(s); return 0; }")
        assert bcc_main([str(path), "--run", "--no-rotate-loops"]) == 0
        assert capsys.readouterr().out == "10"

    def test_missing_file(self, capsys):
        assert bcc_main(["/nonexistent/x.blc"]) == 2
        assert "error" in capsys.readouterr().err

    def test_compile_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.blc"
        path.write_text("int main() { return undeclared_thing; }")
        assert bcc_main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "undeclared" in err

    @pytest.mark.parametrize("literal", ["0x", "1e", "1.5e+", "\u00b2"])
    @pytest.mark.parametrize("lint", [False, True])
    def test_malformed_number_is_one_error_line(self, tmp_path, capsys,
                                                literal, lint):
        path = tmp_path / "bad.blc"
        path.write_text(f"int main() {{ return {literal}; }}")
        argv = [str(path)] + (["--lint"] if lint else [])
        assert bcc_main(argv) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path}:1:21: malformed number literal "
                       f"{literal!r}\n")

    def test_float_inputs(self, tmp_path, capsys):
        path = tmp_path / "d.blc"
        path.write_text("int main() { print_double(read_double() + 0.5); "
                        "return 0; }")
        assert bcc_main([str(path), "--run", "--inputs", "1.25"]) == 0
        assert capsys.readouterr().out == "1.75"

    def test_run_fault_is_one_structured_line(self, source_file, capsys):
        # no inputs: the read_int starves; the CLI must exit 1 with a
        # single structured error line, never a traceback
        assert bcc_main([source_file, "--run"]) == 1
        err = capsys.readouterr().err
        assert "error[input-exhausted]" in err
        assert "Traceback" not in err

    def test_verbose_crash_prints_report(self, source_file, capsys):
        assert bcc_main([source_file, "--run", "--verbose-crash"]) == 1
        err = capsys.readouterr().err
        assert "crash at pc=" in err
        assert "call stack" in err

    def test_deadline_watchdog(self, tmp_path, capsys):
        path = tmp_path / "spin.blc"
        path.write_text("int main() { while (1) { } return 0; }")
        assert bcc_main([str(path), "--run", "--deadline", "0.1",
                         "--max-instructions", "1000000000"]) == 1
        err = capsys.readouterr().err
        assert "error[simulation-timeout]" in err
        assert "watchdog" in err


class TestHarnessCli:
    def test_model_only(self, capsys):
        from repro.harness.__main__ import main as harness_main
        assert harness_main(["--tables", "", "--graphs", "12"]) == 0
        out = capsys.readouterr().out
        assert "Graph 12" in out

    def test_benchmark_subset_table(self, capsys):
        from repro.harness.__main__ import main as harness_main
        assert harness_main(["--benchmarks", "queens,fields",
                             "--tables", "2", "--graphs", ""]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "queens" in out and "fields" in out

    def test_degraded_deadline_renders_failed_cells(self, capsys):
        from repro.harness.__main__ import main as harness_main
        # an impossible watchdog deadline fails every run, but in degraded
        # mode the report still comes out with FAILED cells and exit 0
        assert harness_main(["--benchmarks", "queens", "--tables", "2",
                             "--graphs", "", "--degraded",
                             "--deadline", "1e-9"]) == 0
        captured = capsys.readouterr()
        assert "FAILED:timeout" in captured.out
        assert "FAILED:timeout" in captured.err  # footer summary

    def test_strict_deadline_exits_with_structured_error(self, capsys):
        from repro.harness.__main__ import main as harness_main
        assert harness_main(["--benchmarks", "queens", "--tables", "2",
                             "--graphs", "", "--deadline", "1e-9"]) == 1
        err = capsys.readouterr().err
        assert "error[simulation-timeout]" in err
        assert "benchmark=queens" in err
        assert "Traceback" not in err

    def test_startup_sweep_reaches_the_telemetry_bundle(self, tmp_path):
        from repro.harness.__main__ import main as harness_main
        orphan = tmp_path / "store" / "objects" / "ab" / "orphan.tmp"
        orphan.parent.mkdir(parents=True)
        orphan.write_bytes(b"half-written entry")
        stale = time.time() - 3600
        os.utime(orphan, (stale, stale))
        bundle = tmp_path / "bundle"
        assert harness_main(["--benchmarks", "queens", "--tables", "1",
                             "--graphs", "", "--cache",
                             str(tmp_path / "store"),
                             "--telemetry", str(bundle)]) == 0
        assert not orphan.exists()
        prom = (bundle / "metrics.prom").read_text().splitlines()
        swept = [line.split()[-1] for line in prom if line.startswith(
            "repro_harness_artifact_cache_tmp_swept_total ")]
        assert [float(value) for value in swept] == [1.0]

    @pytest.mark.parametrize("option, argv", [
        ("--tables", ["--tables", "9"]),
        ("--tables", ["--tables", "x"]),
        ("--graphs", ["--graphs", "14"]),
        ("--benchmarks", ["--tables", "1", "--benchmarks", "nosuch"]),
        ("--benchmarks", ["--tables", "2", "--benchmarks", "queens,nosuch"]),
        ("--benchmarks", ["--tables", "2", "--benchmarks", "nosuch",
                          "--jobs", "2"]),
        ("--deadline", ["--deadline", "0"]),
        ("--deadline", ["--deadline", "-1"]),
    ])
    def test_bad_selection_exits_2_before_running(self, option, argv,
                                                  capsys):
        from repro.harness.__main__ import main as harness_main
        # the leading options keep a regression cheap; later ones win
        assert harness_main(["--benchmarks", "queens", "--tables", "",
                             "--graphs", "", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines()
                  if "ERROR" in line]
        assert len(errors) == 1 and option in errors[0]
