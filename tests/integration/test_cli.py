"""Integration tests for the command-line front end."""

import io
import os
import pathlib
import signal
import socket
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).parent.parent.parent

GOOD = """
class Cell<Owner o> { int v; Cell<o> next; }
(RHandle<r> h) {
    Cell<r> a = new Cell<r>;
    Cell b = new Cell;
    a.next = b;
    b.v = 42;
    print(b.v);
}
"""

BAD = """
class Cell<Owner o> { Cell<o> next; }
(RHandle<r1> h1) { (RHandle<r2> h2) {
    Cell<r1> outer = new Cell<r1>;
    Cell<r2> inner = new Cell<r2>;
    outer.next = inner;
} }
"""


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.rtj"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.rtj"
    path.write_text(BAD)
    return str(path)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestCheck:
    def test_well_typed(self, good_file):
        code, out, _err = run_cli("check", good_file)
        assert code == 0
        assert "well-typed" in out

    def test_ill_typed(self, bad_file):
        code, _out, err = run_cli("check", bad_file)
        assert code == 1
        assert "SUBTYPE" in err


class TestRun:
    def test_static_mode(self, good_file):
        code, out, _err = run_cli("run", good_file)
        assert code == 0
        assert out.strip() == "42"

    def test_dynamic_mode_with_stats(self, good_file):
        code, out, err = run_cli("run", "--dynamic-checks", "--stats",
                                 good_file)
        assert code == 0
        assert out.strip() == "42"
        assert "assignment checks" in err

    def test_ill_typed_refuses_to_run(self, bad_file):
        code, _out, err = run_cli("run", bad_file)
        assert code == 1

    def test_runtime_failure_exit_code(self, tmp_path):
        path = tmp_path / "crash.rtj"
        path.write_text("{ int z = 0; print(1 / z); }")
        code, _out, err = run_cli("run", str(path))
        assert code == 2
        assert "runtime error" in err


class TestTranslate:
    def test_emits_java(self, good_file):
        code, out, _err = run_cli("translate", good_file)
        assert code == 0
        assert "class Cell" in out
        assert "MemoryArea" in out or "Memory" in out

    def test_strategies_flag(self, good_file):
        code, _out, err = run_cli("translate", "--strategies", good_file)
        assert code == 0
        assert "CURRENT_REGION" in err


class TestInferAndGraph:
    def test_infer_prints_annotated_program(self, good_file):
        code, out, _err = run_cli("infer", good_file)
        assert code == 0
        assert "Cell<r> b = new Cell<r>;" in out

    def test_graph_emits_dot(self, good_file):
        code, out, _err = run_cli("graph", good_file)
        assert code == 0
        assert out.startswith("digraph")
        assert "heap" in out


class TestLint:
    def test_lint_flags_redundant_heap(self, tmp_path):
        path = tmp_path / "sloppy.rtj"
        path.write_text(
            "class Cell<Owner o> { int v; Cell<o> next; }\n"
            "class M<Owner o> {\n"
            "  void go(Cell<o> c) accesses o, heap { c.next = null; }\n"
            "}\n")
        code, out, _err = run_cli("lint", str(path))
        assert code == 0
        assert "M.go" in out and "redundant" in out

    def test_lint_all_shows_clean_methods(self, good_file):
        code, out, _err = run_cli("lint", "--all", good_file)
        assert code == 0


class TestCompile:
    def test_compile_prints_erased_python(self, good_file):
        # the fused module --backend py runs: owner types erased, and
        # check code only in the --dynamic-checks build
        code, out, _err = run_cli("compile", good_file)
        assert code == 0
        assert out.startswith("def make(ctx):")
        for token in ("Owner", "outlives", "initialRegion", "CK."):
            assert token not in out, token
        code, checked, _err = run_cli("compile", "--dynamic-checks",
                                      good_file)
        assert code == 0
        assert "CK.assignment_cost(" in checked

    def test_compile_threaded_program_fails_cleanly(self, tmp_path):
        path = tmp_path / "threaded.rtj"
        path.write_text(
            "regionKind S extends SharedRegion { }\n"
            "class W<S r> { void go(RHandle<r> h) accesses r { } }\n"
            "(RHandle<S r> h) { fork (new W<r>).go(h); }")
        code, out, err = run_cli("compile", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("compile error: hazards: ")
        assert "fork" in err

    def test_compile_ill_typed_program_exits_1(self, bad_file):
        code, out, err = run_cli("compile", bad_file)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


class TestUnreadableInput:
    def test_missing_file_is_one_line(self, tmp_path):
        missing = str(tmp_path / "absent.rtj")
        for command in ("check", "run", "compile", "translate"):
            code, out, err = run_cli(command, missing)
            assert code == 1, command
            assert out == ""
            assert err == (f"error: cannot read {missing}: "
                           f"No such file or directory\n")


class TestMalformedProgram:
    @pytest.mark.parametrize("body, where", [
        ("int x = 3 @ 4;", "2:28: unexpected character '@'"),
        ("Cell<r> c = new Cell<r;", "2:40: expected RANGLE, found ';'"),
    ])
    def test_lex_and_parse_errors_are_one_line(self, tmp_path, body,
                                               where):
        path = tmp_path / "malformed.rtj"
        path.write_text("class Cell<Owner o> { int v; }\n"
                        f"(RHandle<r> h) {{ {body} }}\n")
        for command in ("check", "run"):
            code, out, err = run_cli(command, str(path))
            assert code == 1, command
            assert out == ""
            assert err == f"error: {path}:{where}\n"


class TestExportFiles:
    def test_each_unwritable_export_is_one_line(self, good_file,
                                                tmp_path):
        absent = tmp_path / "absent"
        trace, record = str(absent / "t.jsonl"), str(absent / "r.jsonl")
        metrics = tmp_path / "m.prom"
        code, out, err = run_cli("run", good_file, "--trace-out", trace,
                                 "--metrics-out", str(metrics),
                                 "--record-out", record)
        assert code == 1
        assert out.strip() == "42"
        assert err.splitlines() == [
            f"error: cannot write {trace}: No such file or directory",
            f"error: cannot write {record}: No such file or directory"]
        # every export is attempted: the writable one still lands
        assert "repro_run_cycles" in metrics.read_text()

    @pytest.mark.parametrize("flag", ["--record-capacity",
                                      "--record-sample"])
    @pytest.mark.parametrize("value", ["0", "-4", "many"])
    def test_recorder_sizes_are_positive_integers(self, good_file, flag,
                                                  value):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", good_file, flag, value)
        assert exc.value.code == 2


class TestCommandFiles:
    """A file any command cannot write or read is one ``error:`` line
    and exit 1, never a traceback."""

    @staticmethod
    def _cannot_write(path):
        return f"error: cannot write {path}: No such file or directory"

    def test_inspect_html(self, good_file, tmp_path):
        dump = str(tmp_path / "dump.jsonl")
        assert run_cli("run", good_file, "--record-out", dump)[0] == 0
        html = str(tmp_path / "absent" / "report.html")
        code, out, err = run_cli("inspect", dump, "--html", html)
        assert code == 1 and out == ""
        assert err == self._cannot_write(html) + "\n"

    def test_trace_url_html(self, tmp_path):
        from repro.serve.server import HTTPEdge
        html = str(tmp_path / "absent" / "traces.html")
        routes = {"/traces": lambda *_: (200, {"stats": {},
                                              "traces": []})}
        with HTTPEdge("127.0.0.1", 0, routes).serve_background() as edge:
            code, out, err = run_cli(
                "trace", "--url", f"http://{edge.host}:{edge.port}",
                "--html", html)
        assert code == 1 and out == ""
        assert err == self._cannot_write(html) + "\n"

    def test_report_out(self, tmp_path):
        from repro.bench.compare import make_payload, row, save_payload
        payload = tmp_path / "interp.json"
        save_payload(make_payload("interp", {}, [
            row("array", "static", "interp", "cycles", 500, "exact")]),
            str(payload))
        out_path = str(tmp_path / "absent" / "report.txt")
        code, out, err = run_cli(
            "report", "--store", str(tmp_path / "store"),
            "--baseline", str(payload), "--current", str(payload),
            "--out", out_path)
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == self._cannot_write(out_path)

    def test_bench_out(self, tmp_path):
        out_path = str(tmp_path / "absent" / "bench.json")
        code, out, err = run_cli("bench", "--only", "Array",
                                 "--repeats", "1", "--out", out_path)
        assert code == 1
        assert "Array" in out  # measured and shown before the write
        assert err == self._cannot_write(out_path) + "\n"

    def test_chaos_corpus_file(self, tmp_path):
        script = tmp_path / "no_program.py"
        script.write_text("print('no embedded program here')\n")
        missing = str(tmp_path / "absent.rtj")
        code, out, err = run_cli("chaos", str(script), missing)
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"chaos: skipping {script} (no embedded PROGRAM)",
            f"error: cannot read {missing}: No such file or directory"]


class TestFileFlags:
    """Cache and serve file flags fail loudly: a path that cannot be
    written is one ``error:`` line and exit 1, never a traceback, and a
    file that would never be written is a usage error."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "blocker"
        path.write_text("")
        return path

    def test_run_analysis_cache_over_a_file(self, good_file, blocker):
        code, out, err = run_cli("run", "--analysis-cache", str(blocker),
                                 good_file)
        assert code == 1 and out == ""
        assert err == (f"error: cannot write {blocker}/analysis-cache.json:"
                       f" File exists\n")

    @staticmethod
    def _serve(*argv):
        # a subprocess with a deadline: a service that started anyway
        # fails the test instead of serving forever
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             *argv], capture_output=True, text=True, env=env, timeout=60)

    def test_serve_access_log_fails_before_any_fork(self, blocker,
                                                   tmp_path):
        log = str(blocker / "access.jsonl")
        proc = self._serve("--access-log", log,
                           "--cache-dir", str(tmp_path / "cache"))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: cannot write {log}: Not a directory\n"

    def test_serve_trace_out_without_tracing_is_a_usage_error(
            self, tmp_path):
        proc = self._serve("--no-trace",
                           "--trace-out", str(tmp_path / "traces.jsonl"))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "not allowed with argument --no-trace" in proc.stderr

    def test_serve_on_a_busy_port_is_one_line(self, tmp_path):
        held = socket.socket()
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        # its own process group, so a worker that outlived the frontend
        # is still findable (and killable) after the frontend exits
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host",
             "127.0.0.1", "--port", str(port), "--workers", "2",
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            held.close()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
                leftover = True
            except ProcessLookupError:
                leftover = False
        assert proc.returncode == 1 and out == ""
        assert "Traceback" not in err
        assert err.startswith(f"error: cannot bind 127.0.0.1:{port}: ")
        assert len(err.splitlines()) == 1
        assert not leftover, "a serve worker outlived the frontend"

    @pytest.mark.parametrize("argv", [
        ("metricsd", "--port", "{port}", "--store", "store"),
        ("run", str(REPO_ROOT / "examples" / "producer_consumer.py"),
         "--serve-metrics", "{port}"),
    ], ids=["metricsd", "run-serve-metrics"])
    def test_telemetry_endpoint_on_a_busy_port_is_one_line(self, argv,
                                                           tmp_path):
        held = socket.socket()
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro",
                 *(arg.format(port=port) for arg in argv)],
                capture_output=True, text=True, env=env, cwd=tmp_path,
                timeout=60)
        finally:
            held.close()
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(
            f"error: cannot bind 127.0.0.1:{port}: ")
        assert len(proc.stderr.splitlines()) == 1


class TestCountFlags:
    """A worker, client, seed, request or repeat count below one, or a
    negative ``--top``, is a usage error (exit 2), not a traceback, a
    vacuous run or a silently shortened table."""

    @pytest.mark.parametrize("argv", [
        ("serve", "--workers", "0"),
        ("serve", "--workers", "-1"),
        ("chaos", "--target", "serve", "--serve-workers", "0"),
        ("bench", "--suite", "serve", "--serve-workers", "0"),
        ("bench", "--suite", "serve", "--serve-clients", "0"),
        ("bench", "--repeats", "-1"),
        ("bench", "--repeats", "0"),
        ("chaos", "--seeds", "0"),
        ("chaos", "--target", "serve", "--requests", "0"),
        ("profile", "--top", "-2", "FILE"),
        ("profile", "--top", "many", "FILE"),
    ], ids=lambda argv: "-".join(a for a in argv if a != "FILE"))
    def test_bad_count_is_a_usage_error(self, good_file, argv):
        argv = [good_file if arg == "FILE" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2

    def test_top_zero_lists_no_sites(self, good_file):
        code, out, _ = run_cli("profile", "--top", "0", good_file)
        assert code == 0
        assert "hottest call sites (top 0)" in out


class TestAnalysisCache:
    def test_run_with_cache_matches_plain_run(self, good_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code_a, out_a, _ = run_cli("run", "--analysis-cache", cache_dir,
                                   good_file)
        # second run replays from the saved disk cache
        code_b, out_b, _ = run_cli("run", "--analysis-cache", cache_dir,
                                   good_file)
        code_c, out_c, _ = run_cli("run", good_file)
        assert code_a == code_b == code_c == 0
        assert out_a == out_b == out_c
        assert (tmp_path / "cache" / "analysis-cache.json").exists()

    def test_ill_typed_diagnostics_unchanged_by_cache(self, bad_file,
                                                      tmp_path):
        cache_dir = str(tmp_path / "cache")
        code_a, _, err_a = run_cli("check", bad_file)
        code_b, _, err_b = run_cli("run", "--analysis-cache", cache_dir,
                                   bad_file)
        code_c, _, err_c = run_cli("run", "--analysis-cache", cache_dir,
                                   bad_file)
        assert code_a == 1 and code_b == 1 and code_c == 1
        # same error lines regardless of cache tier
        errors_a = [l for l in err_a.splitlines()
                    if l.startswith("error:")]
        errors_b = [l for l in err_b.splitlines()
                    if l.startswith("error:")]
        errors_c = [l for l in err_c.splitlines()
                    if l.startswith("error:")]
        assert errors_a == errors_b == errors_c

    def test_profile_accepts_cache_flag(self, good_file, tmp_path):
        code, out, _ = run_cli("profile", "--analysis-cache",
                               str(tmp_path / "c"), good_file)
        assert code == 0


class TestBenchFrontend:
    def test_frontend_suite_smoke(self, tmp_path):
        out_file = str(tmp_path / "bench.json")
        code, out, err = run_cli("bench", "--suite", "frontend",
                                 "--repeats", "1", "--out", out_file)
        assert code == 0
        assert "cold_s" in out and "warm_s" in out
        import json
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["schema"] == "repro-bench/2"
        assert payload["suite"] == "frontend"
        assert {r["program"] for r in payload["rows"]} == \
            {"size 5", "size 20", "size 40"}

    def test_frontend_suite_compare_detects_cold_regression(self,
                                                            tmp_path):
        from repro.bench import frontend
        from repro.bench.compare import save_payload
        payload = frontend.measure(sizes=[5], repeats=1)
        # baseline claims we used to be 10x faster -> regression
        for r in payload["rows"]:
            if r["metric"] == "cold_s":
                r["value"] /= 10.0
        baseline = str(tmp_path / "base.json")
        save_payload(payload, baseline)
        code, _out, err = run_cli("bench", "--suite", "frontend",
                                  "--repeats", "1", "--compare", baseline)
        assert code == 3
        assert "regression" in err

    def test_only_flag_rejected_for_frontend(self):
        code, _out, err = run_cli("bench", "--suite", "frontend",
                                  "--only", "Array")
        assert code == 1
        assert "--only applies to the interp, codegen and serve " \
            "suites" in err


class TestBenchAndReportNumbers:
    """A bad numeric bench/report flag is a usage error (exit 2), not a
    gate that silently passes."""

    @pytest.mark.parametrize("command", ["bench", "report"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "lots"])
    def test_threshold_is_a_finite_fraction(self, command, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--threshold", value)
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-3"])
    def test_min_speedup_is_finite_and_positive(self, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--suite", "codegen", "--min-speedup", value)
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["-3", "2.5", "nan"])
    def test_history_is_a_count(self, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("report", "--history", value)
        assert exc.value.code == 2


class TestBackendFlag:
    """--backend is shared by run/profile/bench/chaos (one parent
    parser); an explicit compiled backend implies the uninstrumented
    fast path unless an observability export needs live sinks."""

    def test_run_backend_py(self, good_file):
        code, out, err = run_cli("run", "--backend", "py", "--stats",
                                 good_file)
        assert code == 0
        assert out.strip() == "42"
        assert "(py-fused)" in err

    def test_run_backend_c_chains_and_says_why(self, good_file):
        # default runs validate checks, which the C backend erases
        code, out, err = run_cli("run", "--backend", "c", "--stats",
                                 good_file)
        assert code == 0
        assert out.strip() == "42"
        assert "c unavailable" in err

    def test_run_backend_keeps_obs_exports_live(self, good_file,
                                                tmp_path):
        trace = str(tmp_path / "trace.json")
        code, _out, err = run_cli("run", "--backend", "py",
                                  "--trace-out", trace, "--stats",
                                  good_file)
        assert code == 0
        assert "(interp [instrumented run])" in err

    def test_run_output_identical_across_backends(self, good_file):
        outputs = set()
        for backend in ("interp", "py", "py-fused", "py-faithful"):
            code, out, _err = run_cli("run", "--backend", backend,
                                      good_file)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_profile_accepts_backend(self, good_file):
        code, _out, _err = run_cli("profile", "--backend", "py",
                                   good_file)
        assert code == 0

    def test_bench_codegen_suite_and_gate(self, tmp_path):
        out_file = str(tmp_path / "bench.json")
        code, out, _err = run_cli("bench", "--suite", "codegen",
                                  "--only", "Array", "--backend", "py",
                                  "--repeats", "1",
                                  "--min-speedup", "0.01",
                                  "--out", out_file)
        assert code == 0
        assert "aggregate" in out and ">= 0.01" in out
        import json
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["schema"] == "repro-bench/2"
        assert payload["suite"] == "codegen"
        assert payload["divergences"] == []

    def test_bench_codegen_min_speedup_gate_fails_loud(self):
        code, _out, err = run_cli("bench", "--suite", "codegen",
                                  "--only", "Array", "--backend", "py",
                                  "--repeats", "1",
                                  "--min-speedup", "1000000")
        assert code == 3
        assert "codegen gate" in err

    def test_bench_codegen_rejects_interp_backend(self):
        code, _out, err = run_cli("bench", "--suite", "codegen",
                                  "--backend", "interp")
        assert code == 1
        assert "pick py or c" in err
