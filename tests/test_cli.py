import csv
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from sprec import (
    Graph,
    LayeringInvariantError,
    LayeringTree,
    graphs_equal,
    read_edge_list,
    write_edge_list,
)
import sprec.cli as cli
from sprec.cli import main
from sprec.oracle import OracleStats


def write_graph(path, g):
    path.write_text(write_edge_list(g))


def path_graph(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def strip_wall_time(csv_text):
    rows = [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]
    return "\n".join(rows)


class TestGenerate:
    def test_writes_parseable_file(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        rc = main(
            [
                "generate", "--family", "random-tree", "--n", "30",
                "--delta", "4", "--seed", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        g = read_edge_list(out.read_text())
        assert g.n == 30 and g.m == 29
        assert "tl_bound=1" in capsys.readouterr().out

    def test_infeasible_spec_fails(self, tmp_path, capsys):
        rc = main(
            [
                "generate", "--family", "cycle", "--n", "2",
                "--delta", "2", "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestReconstruct:
    def test_p10_exits_zero_and_writes_reconstruction(self, tmp_path, capsys):
        src = tmp_path / "p10.edges"
        out = tmp_path / "rec.edges"
        write_graph(src, path_graph(10))
        rc = main(["reconstruct", str(src), "--tau", "1", "--out", str(out)])
        assert rc == 0
        assert graphs_equal(read_edge_list(out.read_text()), path_graph(10))
        stdout = capsys.readouterr().out
        assert "correct=true" in stdout
        assert "q_rootbfs=9" in stdout

    def test_strict_budget_passes_on_valid_bound(self, tmp_path):
        src = tmp_path / "p10.edges"
        write_graph(src, path_graph(10))
        assert main(["reconstruct", str(src), "--tau", "1", "--strict-budget"]) == 0

    def test_ell_from_truth_on_cycle(self, tmp_path, capsys):
        src = tmp_path / "c12.edges"
        write_graph(src, cycle(12))
        rc = main(["reconstruct", str(src), "--ell-from-truth"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "ell=6" in stdout
        assert "tau=" in stdout  # blank tau column when the bound is measured

    def test_underestimated_bound_exits_nonzero(self, tmp_path, capsys):
        src = tmp_path / "c16.edges"
        write_graph(src, cycle(16))
        rc = main(["reconstruct", str(src), "--tau", "1"])
        assert rc == 1
        assert "tau_violation_suspected=True" in capsys.readouterr().out

    def test_layering_breach_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        def breach(self, *args, **kwargs):
            raise LayeringInvariantError("injected layering breach")

        monkeypatch.setattr(LayeringTree, "append_layer", breach)
        src = tmp_path / "p10.edges"
        write_graph(src, path_graph(10))
        rc = main(["reconstruct", str(src), "--tau", "1"])
        assert rc == 1
        stdout = capsys.readouterr().out
        assert "correct=false" in stdout
        assert "tau_violation_suspected=True" in stdout

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_tau_is_a_usage_error(self, tmp_path, capsys, value):
        src = tmp_path / "c6.edges"
        write_graph(src, cycle(6))
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", str(src), "--tau", value])
        assert exc.value.code == 2
        assert "argument --tau: expected a positive integer" in capsys.readouterr().err

    def test_direct_bound_is_not_an_option(self, tmp_path, capsys):
        # --ell-from-truth alone sets the bound from the input
        src = tmp_path / "c6.edges"
        write_graph(src, cycle(6))
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", str(src), "--ell", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ell 3" in capsys.readouterr().err

    def test_abbreviated_flag_is_not_taken_for_a_longer_one(self, tmp_path, capsys):
        # --ell alone is a prefix of --ell-from-truth, not that flag
        src = tmp_path / "c6.edges"
        write_graph(src, cycle(6))
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", str(src), "--ell"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ell" in capsys.readouterr().err

    def test_query_log_dump(self, tmp_path):
        src = tmp_path / "p5.edges"
        log = tmp_path / "queries.csv"
        write_graph(src, path_graph(5))
        assert main(["reconstruct", str(src), "--log-queries", str(log)]) == 0
        lines = log.read_text().splitlines()
        assert lines[0] == "0,1,1,root-bfs"
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_unreadable_file(self, tmp_path, capsys):
        rc = main(["reconstruct", str(tmp_path / "missing.edges")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_one_vertex_graph_needs_no_queries(self, tmp_path, capsys):
        # its true maximum degree is 0, which is a valid bound
        src = tmp_path / "k1.edges"
        write_graph(src, Graph(1))
        assert main(["reconstruct", str(src), "--strict-budget"]) == 0
        stdout = capsys.readouterr().out
        assert "correct=true" in stdout and "q_total=0" in stdout

    @pytest.mark.parametrize(
        "text, reason",
        [("4 2\n0 1\n2 3\n", "connected"), ("0 0\n", "at least one vertex")],
        ids=["disconnected", "empty"],
    )
    def test_ell_from_truth_on_a_graph_with_no_layering(self, tmp_path, capsys, text, reason):
        src = tmp_path / "bad.edges"
        src.write_text(text)
        assert main(["reconstruct", str(src), "--ell-from-truth"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("2 1\n0 0\n")
        rc = main(["reconstruct", str(bad)])
        assert rc == 1
        assert "self-loop" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--family", "cycle", "--n", "6", "--delta", "2", "--out", "{missing}"],
        ["reconstruct", "{src}", "--out", "{missing}"],
        ["reconstruct", "{src}", "--log-queries", "{missing}"],
        ["bench", "--family", "cycle", "--sizes", "6", "--delta", "2",
         "--ell-from-truth", "--out", "{missing}"],
        ["bench", "--family", "cycle", "--sizes", "6", "--delta", "2",
         "--ell-from-truth", "--out", "{ok}", "--json", "{missing}"],
    ],
    ids=["generate-out", "reconstruct-out", "log-queries", "bench-out", "bench-json"],
)
def test_output_in_a_missing_directory_is_an_error(tmp_path, capsys, monkeypatch, args):
    src = tmp_path / "c6.edges"
    write_graph(src, cycle(6))
    paths = {"src": src, "missing": tmp_path / "no-such-dir" / "out", "ok": tmp_path / "b.csv"}
    runs = []
    real_run_one = cli.run_one
    monkeypatch.setattr(cli, "run_one", lambda *a, **kw: runs.append(a) or real_run_one(*a, **kw))
    assert main([a.format(**paths) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no-such-dir" in err
    if args[0] == "bench":  # a sweep fails on its outputs before its first run
        assert runs == []


@pytest.mark.parametrize("flag", ["--out", "--log-queries"])
def test_reconstruct_fails_on_its_outputs_before_the_run(tmp_path, capsys, monkeypatch, flag):
    def run_one(*args, **kwargs):
        raise AssertionError("the run started before its outputs were opened")

    monkeypatch.setattr(cli, "run_one", run_one)
    src = tmp_path / "c6.edges"
    write_graph(src, cycle(6))
    assert main(["reconstruct", str(src), flag, str(tmp_path / "no-such-dir" / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no-such-dir" in err


def test_reconstruct_without_a_graph_keeps_an_existing_out(tmp_path, monkeypatch):
    def breach(self, *args, **kwargs):
        raise LayeringInvariantError("injected layering breach")

    monkeypatch.setattr(LayeringTree, "append_layer", breach)
    src, out, log = tmp_path / "p10.edges", tmp_path / "keep.edges", tmp_path / "q.csv"
    write_graph(src, path_graph(10))
    out.write_text("precious\n")
    log.write_text("stale\n")
    assert main(["reconstruct", str(src), "--out", str(out), "--log-queries", str(log)]) == 1
    assert out.read_text() == "precious\n"
    # the queries charged before the breach replace the old log
    assert log.read_text().splitlines()[0] == "0,1,1,root-bfs"
    # an output the failed run created is not left behind, empty
    fresh = tmp_path / "fresh.edges"
    assert main(["reconstruct", str(src), "--out", str(fresh)]) == 1
    assert not fresh.exists()


@pytest.mark.parametrize(
    "args, outputs, module, name",
    [
        (["generate", "--family", "cycle", "--n", "6", "--delta", "2", "--out", "{a}"],
         "a", cli, "write_edge_list"),
        # the query log is written before the graph that fails
        (["reconstruct", "{src}", "--log-queries", "{a}", "--out", "{b}"],
         "ab", cli, "write_edge_list"),
        # the CSV is written before the JSON mirror that fails
        (["bench", "--family", "cycle", "--sizes", "6", "--delta", "2",
          "--ell-from-truth", "--out", "{a}", "--json", "{b}"], "ab", json, "dump"),
    ],
    ids=["generate", "reconstruct", "bench"],
)
def test_output_that_fails_mid_write_keeps_existing_files(
    tmp_path, capsys, monkeypatch, args, outputs, module, name
):
    def disk_full(*_, **__):
        raise OSError("disk full")

    monkeypatch.setattr(module, name, disk_full)
    src = tmp_path / "c6.edges"
    write_graph(src, cycle(6))
    paths = {"src": src, "a": tmp_path / "a.out", "b": tmp_path / "b.out"}
    for key in outputs:
        paths[key].write_text(f"precious {key}\n")
    before = sorted(os.listdir(tmp_path))
    assert main([a.format(**paths) for a in args]) == 1
    assert "disk full" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before
    for key in outputs:
        assert paths[key].read_text() == f"precious {key}\n"


def test_one_vertex_query_log_is_written_empty(tmp_path):
    src, log = tmp_path / "k1.edges", tmp_path / "q.csv"
    write_graph(src, Graph(1))
    assert main(["reconstruct", str(src), "--log-queries", str(log)]) == 0
    assert log.read_text() == ""


def test_outputs_get_the_mode_of_a_new_file(tmp_path):
    out, mirror = tmp_path / "b.csv", tmp_path / "b.json"
    old = os.umask(0o027)
    try:
        assert main(["bench", "--family", "cycle", "--sizes", "6", "--delta", "2",
                     "--ell-from-truth", "--out", str(out), "--json", str(mirror)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(mirror.stat().st_mode) == 0o640


def test_output_through_a_link_replaces_its_target(tmp_path):
    target, link = tmp_path / "target.edges", tmp_path / "link.edges"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main(["generate", "--family", "cycle", "--n", "6", "--delta", "2",
                 "--out", str(link)]) == 0
    assert link.is_symlink() and graphs_equal(read_edge_list(target.read_text()), cycle(6))
    assert sorted(os.listdir(tmp_path)) == ["link.edges", "target.edges"]


def test_one_path_for_two_outputs_is_an_error(tmp_path, capsys):
    src, out = tmp_path / "p5.edges", tmp_path / "both"
    write_graph(src, path_graph(5))
    assert main(["reconstruct", str(src), "--out", str(out), "--log-queries", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(os.listdir(tmp_path)) == ["p5.edges"]


@pytest.mark.parametrize(
    "args",
    [
        ["reconstruct", "{src}", "--out", "{x}", "--log-queries", "{x}"],
        # the second output reaches the first through a link
        ["bench", "--family", "cycle", "--sizes", "6", "--delta", "2",
         "--ell-from-truth", "--out", "{x}", "--json", "{link}"],
    ],
    ids=["reconstruct", "bench"],
)
def test_two_outputs_naming_one_file_keep_it(tmp_path, capsys, monkeypatch, args):
    def run_one(*_, **__):
        raise AssertionError("the run started before its outputs were checked")

    monkeypatch.setattr(cli, "run_one", run_one)
    paths = {"src": tmp_path / "c6.edges", "x": tmp_path / "x", "link": tmp_path / "link"}
    write_graph(paths["src"], cycle(6))
    paths["x"].write_text("precious\n")
    paths["link"].symlink_to(paths["x"])
    before = sorted(os.listdir(tmp_path))
    assert main([a.format(**paths) for a in args]) == 1
    name = paths["link" if args[0] == "bench" else "x"]
    assert capsys.readouterr().err == f"error: two outputs name the same file: {name}\n"
    assert paths["x"].read_text() == "precious\n"
    assert sorted(os.listdir(tmp_path)) == before  # no .tmp stage is left


class TestVerify:
    def test_identical_files_exit_zero(self, tmp_path):
        a = tmp_path / "a.edges"
        write_graph(a, cycle(8))
        assert main(["verify", str(a), str(a)]) == 0

    def test_differing_files_exit_one(self, tmp_path, capsys):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        write_graph(a, cycle(8))
        write_graph(b, path_graph(8))
        assert main(["verify", str(a), str(b)]) == 1
        assert "differ" in capsys.readouterr().err


class TestBench:
    def test_csv_schema_and_success(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "bench", "--family", "random-tree", "--sizes", "16,32",
                "--delta", "4", "--tau", "1", "--repeats", "2",
                "--seed", "5", "--out", str(out), "--strict-budget",
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 4
        assert rows[0]["family"] == "random-tree"
        assert [int(r["n"]) for r in rows] == [16, 16, 32, 32]
        assert all(r["correct"] == "true" for r in rows)
        assert all(int(r["q_rootbfs"]) == int(r["n"]) - 1 for r in rows)
        assert "q/(n*log2(n))" in capsys.readouterr().out

    def test_failed_sweep_keeps_existing_outputs(self, tmp_path, capsys):
        out, mirror = tmp_path / "keep.csv", tmp_path / "keep.json"
        out.write_text("precious\n" * 100)
        mirror.write_text("precious\n" * 100)
        args = ["bench", "--family", "ring-of-cliques", "--clique-size", "3",
                "--delta", "4", "--out", str(out), "--json", str(mirror)]
        # n=12 runs, then n=13 admits no ring of 3-cliques
        assert main(args + ["--sizes", "12,13"]) == 1
        assert "not a multiple" in capsys.readouterr().err
        assert out.read_text() == mirror.read_text() == "precious\n" * 100
        # a sweep that finishes replaces them whole
        assert main(args + ["--sizes", "12"]) == 0
        assert len(list(csv.DictReader(out.read_text().splitlines()))) == 1
        assert [r["n"] for r in json.loads(mirror.read_text())] == [12]

    def test_failed_sweep_leaves_no_new_outputs(self, tmp_path, capsys):
        out, mirror = tmp_path / "new.csv", tmp_path / "new.json"
        args = ["bench", "--family", "ring-of-cliques", "--clique-size", "3", "--delta", "4",
                "--sizes", "12,13", "--out", str(out), "--json", str(mirror)]
        assert main(args) == 1
        assert "not a multiple" in capsys.readouterr().err
        assert not out.exists() and not mirror.exists()

    def test_repeat_runs_are_identical_modulo_wall_time(self, tmp_path):
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            rc = main(
                [
                    "bench", "--family", "ktree", "--sizes", "12,24",
                    "--delta", "8", "--k", "2", "--tau", "1",
                    "--repeats", "2", "--seed", "1", "--out", str(out),
                ]
            )
            assert rc == 0
            outs.append(out.read_text())
        assert strip_wall_time(outs[0]) == strip_wall_time(outs[1])
        assert outs[0].splitlines()[0].endswith("wall_time")

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "bench.csv"
        mirror = tmp_path / "bench.json"
        rc = main(
            [
                "bench", "--family", "cycle", "--sizes", "8",
                "--delta", "2", "--ell-from-truth",
                "--out", str(out), "--json", str(mirror),
            ]
        )
        assert rc == 0
        payload = json.loads(mirror.read_text())
        assert len(payload) == 1
        row = payload[0]
        assert row["correct"] == "true"
        assert row["tau_violation_suspected"] is False
        assert row["raw_calls"] >= row["q_total"]

    def test_json_reports_oracle_stats(self, tmp_path):
        mirror = tmp_path / "bench.json"
        rc = main(
            [
                "bench", "--family", "caterpillar", "--sizes", "64",
                "--delta", "4", "--tau", "1", "--out", str(tmp_path / "bench.csv"),
                "--json", str(mirror),
            ]
        )
        assert rc == 0
        (row,) = json.loads(mirror.read_text())
        stats = OracleStats(**row["oracle_stats"])
        # the root scan alone is one throwaway batch ball over all 64 vertices
        assert stats.balls_transient >= 1 and stats.visited >= 64
        # ancestor queries read labels, built once; a caterpillar's fit the budget
        assert row["q_anc"] > 0
        assert 64 <= stats.label_entries <= stats.label_visits
        assert stats.label_entries <= 4 * 64 * 6 and stats.label_seconds > 0
        assert stats.fallback_rows == 0

    def test_failing_sweep_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "bench", "--family", "cycle", "--sizes", "16",
                "--delta", "2", "--tau", "1", "--out", str(out),
            ]
        )
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--repeats", "0"), ("--sizes", "32,abc"), ("--sizes", ","),
         ("--tau", "0"), ("--tau", "-1")],
    )
    def test_bad_count_is_a_usage_error(self, tmp_path, capsys, flag, value):
        args = [
            "bench", "--family", "random-tree", "--sizes", "16",
            "--delta", "4", "--out", str(tmp_path / "bench.csv"),
        ]
        with pytest.raises(SystemExit) as exc:
            main(args + [flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a positive integer" in capsys.readouterr().err

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        # python -m sprec.cli must parse its arguments like the sprec script
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "sprec.cli", "bench", "--family",
                "random-tree", "--sizes", "16", "--delta", "4",
                "--out", str(tmp_path / "bench.csv"), "--repeats", "0",
            ],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "argument --repeats: expected a positive integer" in proc.stderr

    def test_single_vertex_size(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "bench", "--family", "random-tree", "--sizes", "1",
                "--delta", "4", "--strict-budget", "--out", str(out),
            ]
        )
        assert rc == 0
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert row["correct"] == "true" and row["q_total"] == "0"
