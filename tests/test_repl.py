"""Tests for the interactive shell (python -m repro), driven via stdin."""

import subprocess
import sys



def run_repl(script: str, timeout: int = 60) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "repro"],
        input=script,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestRepl:
    def test_create_insert_select(self):
        out = run_repl(
            "CREATE TABLE t (a INT, b TEXT);\n"
            "INSERT INTO t VALUES (1, 'x'), (2, 'y');\n"
            "SELECT * FROM t WHERE a = 2;\n"
            "\\q\n"
        )
        assert "y" in out
        assert "(1 rows)" in out

    def test_describe(self):
        out = run_repl(
            "CREATE TABLE t (a INT PRIMARY KEY);\n"
            "INSERT INTO t VALUES (1);\n"
            "\\d\n"
            "\\q\n"
        )
        assert "t: 1 rows" in out
        assert "pk_t_a" in out

    def test_timing_toggle(self):
        out = run_repl(
            "\\timing\n"
            "CREATE TABLE t (a INT);\n"
            "INSERT INTO t VALUES (1);\n"
            "SELECT a FROM t;\n"
            "\\q\n"
        )
        assert "timing on" in out
        assert "exec" in out

    def test_strategy_switch(self):
        out = run_repl("\\strategy greedy\n\\q\n")
        assert "strategy = greedy" in out
        out = run_repl("\\strategy bogus\n\\q\n")
        assert "usage:" in out

    def test_multiline_statement(self):
        out = run_repl(
            "CREATE TABLE t (a INT);\n"
            "INSERT INTO t\n"
            "VALUES (41),\n"
            "(42);\n"
            "SELECT COUNT(*) AS n FROM t;\n"
            "\\q\n"
        )
        assert "2" in out

    def test_error_does_not_kill_shell(self):
        out = run_repl(
            "SELECT * FROM missing;\n"
            "CREATE TABLE t (a INT);\n"
            "INSERT INTO t VALUES (7);\n"
            "SELECT a FROM t;\n"
            "\\q\n"
        )
        assert "error:" in out
        assert "7" in out

    def test_unknown_meta(self):
        out = run_repl("\\bogus\n\\q\n")
        assert "unknown meta-command" in out

    def test_explain_in_repl(self):
        out = run_repl(
            "CREATE TABLE t (a INT PRIMARY KEY);\n"
            "INSERT INTO t VALUES (1);\n"
            "ANALYZE t;\n"
            "EXPLAIN SELECT a FROM t WHERE a = 1;\n"
            "\\q\n"
        )
        assert "IndexScan" in out or "SeqScan" in out

    def test_search_meta_command(self):
        out = run_repl(
            "\\search\n"
            "CREATE TABLE t (a INT, b INT);\n"
            "CREATE TABLE u (a INT, c INT);\n"
            "INSERT INTO t VALUES (1, 2), (2, 3);\n"
            "INSERT INTO u VALUES (1, 7), (2, 8);\n"
            "ANALYZE;\n"
            "EXPLAIN (SEARCH) SELECT t.b, u.c FROM t, u WHERE t.a = u.a;\n"
            "\\search\n"
            "\\q\n"
        )
        assert "no search trace yet" in out
        assert "ranked alternatives" in out
        assert "chosen:" in out

    def test_qlog_meta_command(self):
        out = run_repl(
            "\\qlog\n"
            "CREATE TABLE t (a INT);\n"
            "INSERT INTO t VALUES (1), (2), (3);\n"
            "SELECT a FROM t WHERE a > 1;\n"
            "\\qlog 5\n"
            "\\q\n"
        )
        assert "query log is empty" in out
        assert "q-err=" in out
        assert "SELECT a FROM t WHERE a > 1" in out

    def test_metrics_prom(self):
        out = run_repl(
            "CREATE TABLE t (a INT);\n"
            "INSERT INTO t VALUES (1);\n"
            "SELECT a FROM t;\n"
            "\\metrics prom\n"
            "\\q\n"
        )
        assert "# TYPE repro_queries_total counter" in out
        assert "repro_buffer_pool_hit_rate" in out

    def test_cache_view_shows_shapes_variants_and_replans(self):
        out = run_repl(
            "CREATE TABLE t (a INT, b INT);\n"
            "INSERT INTO t VALUES (1, 2), (3, 4);\n"
            "SELECT b FROM t WHERE a = 1;\n"
            "SELECT b FROM t WHERE a = 3;\n"  # binds the first one's plan
            "SELECT b FROM t WHERE a = 1 + 2;\n"
            "SELECT b FROM t WHERE a = 1 + 3;\n"  # folded: pinned, replans
            "\\cache\n"
            "\\cache off\n"
            "SELECT b FROM t WHERE a = 3;\n"
            "\\cache\n"
            "\\q\n"
        )
        assert "plan   [on ] 3/128 variants of 2 shapes  replans=1  hits=1 misses=3" in out
        assert "plan   [off] 0/0 variants of 0 shapes" in out
