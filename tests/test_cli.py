import csv
import hashlib
import os
import subprocess
import sys

import pytest

from qgraphlab import verify
from qgraphlab.cli import main
from qgraphlab.datastore import read_dataset, read_qaoa_results
from qgraphlab.graphs import cycle_graph, encode_graph6, enumerate_connected, path_graph
from qgraphlab.pipeline import dataset_rows, qaoa_result_rows, resolve_workers
from qgraphlab.qaoa import DEFAULT_STARTS


@pytest.fixture()
def n4_run(tmp_path):
    """A tiny but complete pipeline run at four vertices."""
    g6 = str(tmp_path / "n4.g6")
    props = str(tmp_path / "props.csv")
    qaoa = str(tmp_path / "qaoa.csv")
    assert main(["graphs", "gen", "--n", "4", "--out", g6]) == 0
    assert main(["props", "--in", g6, "--out", props]) == 0
    assert main(["qaoa", "--in", g6, "--p", "2", "--starts", "8", "--seed", "3",
                 "--out", qaoa, "--workers", "1"]) == 0
    return tmp_path, g6, props, qaoa


class TestGraphsCommands:
    def test_count(self, capsys):
        assert main(["graphs", "count", "--n", "5"]) == 0
        assert capsys.readouterr().out.strip() == "21"

    def test_count_seven(self, capsys):
        assert main(["graphs", "count", "--n", "7"]) == 0
        assert capsys.readouterr().out.strip() == "853"

    def test_gen_lines(self, tmp_path):
        out = tmp_path / "n5.g6"
        assert main(["graphs", "gen", "--n", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 21
        assert all(lines[i] <= lines[i + 1] for i in range(20))

    def test_bad_n(self, capsys):
        assert main(["graphs", "count", "--n", "12"]) == 2
        assert "error" in capsys.readouterr().err


class TestPipeline:
    def test_props_contents(self, n4_run):
        _, _, props, _ = n4_run
        rows = read_dataset(props)
        assert len(rows) == 6
        assert {r.graph_id for r in rows} == set(range(1, 7))

    def test_qaoa_contents(self, n4_run):
        _, _, _, qaoa = n4_run
        rows = read_qaoa_results(qaoa)
        assert len(rows) == 18  # six graphs, depths 0..2
        best = max(rows, key=lambda r: (r.p, r.exp_c))
        assert best.starts == 8 and best.seed == 3

    def test_c4_depth2_row(self, n4_run):
        _, _, props, qaoa = n4_run
        eulerian_id = next(r.graph_id for r in read_dataset(props) if r.eulerian)
        row = next(r for r in read_qaoa_results(qaoa)
                   if r.graph_id == eulerian_id and r.p == 2)
        assert row.exp_c == pytest.approx(4.0, abs=1e-3)
        assert row.prob_cmax == pytest.approx(1.0, abs=1e-3)

    def test_rerun_is_byte_identical(self, n4_run, tmp_path):
        _, g6, _, qaoa = n4_run
        again = str(tmp_path / "qaoa2.csv")
        assert main(["qaoa", "--in", g6, "--p", "2", "--starts", "8", "--seed", "3",
                     "--out", again, "--workers", "2"]) == 0
        assert open(qaoa, "rb").read() == open(again, "rb").read()

    def test_analyze_corr(self, n4_run):
        tmp, _, props, qaoa = n4_run
        out = str(tmp / "corr.csv")
        assert main(["analyze", "corr", "--props", props, "--qaoa", qaoa, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "n,p,property,metric,r,sample_size"
        assert len(lines) == 1 + 10 * 4 * 3  # properties x metrics x depths

    def test_analyze_avg(self, n4_run):
        tmp, _, props, qaoa = n4_run
        out = str(tmp / "avg.csv")
        assert main(["analyze", "avg", "--props", props, "--qaoa", qaoa,
                     "--flag", "bipartite", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 1 + 2 * 3

    def test_analyze_avg_empty_subgroup_is_undefined(self, tmp_path):
        # P4 is bipartite, so the non-member subgroup is empty and has no means
        (tmp_path / "p4.g6").write_text("Ch\n")
        g6, props, qaoa, out = (str(tmp_path / f) for f in ("p4.g6", "p.csv", "q.csv", "a.csv"))
        assert main(["props", "--in", g6, "--out", props]) == 0
        assert main(["qaoa", "--in", g6, "--p", "0", "--out", qaoa]) == 0
        assert main(["analyze", "avg", "--props", props, "--qaoa", qaoa, "--flag", "bipartite",
                     "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "n,p,flag,polarity,mean_prob,mean_exp_c,mean_ratio,mean_delta"
        assert lines[1].startswith("4,0,bipartite,member,0.")
        assert lines[2] == "4,0,bipartite,non-member,,,,"

    def test_analyze_avg_requires_flag(self, n4_run, capsys):
        tmp, _, props, qaoa = n4_run
        code = main(["analyze", "avg", "--props", props, "--qaoa", qaoa,
                     "--out", str(tmp / "avg.csv")])
        assert code == 2
        assert "--flag" in capsys.readouterr().err

    def test_analyze_hist(self, n4_run):
        tmp, _, props, qaoa = n4_run
        out = str(tmp / "hist.csv")
        assert main(["analyze", "hist", "--props", props, "--qaoa", qaoa,
                     "--flag", "eulerian", "--bins", "10", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "bin_lo,bin_hi,subgroup,fraction"
        assert len(lines) == 1 + 2 * 10

    def test_analyze_hist_rejects_unbounded_metric(self, n4_run):
        # exp_c lies in [0, |E|], outside the [0, 1] bins
        tmp, _, props, qaoa = n4_run
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "hist", "--props", props, "--qaoa", qaoa, "--flag", "bipartite",
                  "--metric", "exp_c", "--out", str(tmp / "hist.csv")])
        assert exc.value.code == 2

    def test_analyze_hist_empty_subgroup_is_undefined(self, n4_run):
        tmp, _, props, qaoa = n4_run
        out = str(tmp / "hist.csv")
        assert main(["analyze", "hist", "--props", props, "--qaoa", qaoa, "--flag", "bipartite",
                     "--metric", "delta_ratio", "--p", "0", "--bins", "4", "--out", out]) == 0
        records = [line.split(",") for line in open(out).read().splitlines()[1:]]
        assert len(records) == 2 * 4
        assert all(cells[3] == "" for cells in records)

    def test_analyze_rejects_results_for_missing_sizes(self, n4_run, capsys):
        # results containing a vertex count absent from the props file must
        # fail loudly instead of pairing graph ids across sizes
        from qgraphlab.datastore import write_qaoa_results

        tmp, _, props, qaoa = n4_run
        g6_3 = str(tmp / "n3.g6")
        qaoa3 = str(tmp / "qaoa3.csv")
        assert main(["graphs", "gen", "--n", "3", "--out", g6_3]) == 0
        assert main(["qaoa", "--in", g6_3, "--p", "1", "--starts", "2",
                     "--out", qaoa3, "--workers", "1"]) == 0
        merged = str(tmp / "merged.csv")
        write_qaoa_results(read_qaoa_results(qaoa) + read_qaoa_results(qaoa3), merged)
        code = main(["analyze", "corr", "--props", props, "--qaoa", merged,
                     "--out", str(tmp / "c.csv")])
        assert code == 2

    def test_analyze_rejects_props_of_a_split_graph6_file(self, n4_run, capsys):
        # each piece's ids restart at 1, so the merged rows repeat ids 1..3 and
        # would pair the second piece's graphs with the first piece's results
        tmp, g6, _, _ = n4_run
        lines = open(g6).read().splitlines(keepends=True)
        merged = []
        for i, piece in enumerate((lines[:3], lines[3:])):
            (tmp / f"piece{i}.g6").write_text("".join(piece))
            out = tmp / f"props{i}.csv"
            assert main(["props", "--in", str(tmp / f"piece{i}.g6"), "--out", str(out)]) == 0
            merged += out.read_text().splitlines(keepends=True)[i > 0:]
        (tmp / "merged.csv").write_text("".join(merged))
        qaoa = str(tmp / "q0.csv")
        assert main(["qaoa", "--in", str(tmp / "piece0.g6"), "--p", "0", "--out", qaoa]) == 0
        code = main(["analyze", "corr", "--props", str(tmp / "merged.csv"), "--qaoa", qaoa,
                     "--out", str(tmp / "c.csv")])
        assert code == 2
        assert "graph ids repeated among the n=4 rows" in capsys.readouterr().err
        assert not (tmp / "c.csv").exists()

    def test_analyze_signs_needs_depth3(self, n4_run, capsys):
        tmp, _, props, qaoa = n4_run
        code = main(["analyze", "signs", "--props", props, "--qaoa", qaoa,
                     "--out", str(tmp / "signs.csv")])
        assert code == 2
        assert "1..3" in capsys.readouterr().err
        # a histogram depth absent from the results is named, with the depths present
        code = main(["analyze", "hist", "--props", props, "--qaoa", qaoa, "--flag", "bipartite",
                     "--p", "7", "--out", str(tmp / "hist.csv")])
        assert code == 2
        assert "--p 7: the results only have depths [0, 1, 2]" in capsys.readouterr().err


    def test_props_beyond_eight_vertices(self, tmp_path):
        g6, out = tmp_path / "n9.g6", tmp_path / "props9.csv"
        g6.write_text(f"{encode_graph6(path_graph(9))}\n{encode_graph6(cycle_graph(9))}\n")
        assert main(["props", "--in", str(g6), "--out", str(out), "--workers", "1"]) == 0
        assert [(r.group_size, r.orbit_count, r.cycle_count_by_len) for r in read_dataset(out)] \
            == [(2, 5, (0,) * 7), (18, 1, (0,) * 6 + (1,))]


class TestExitCodes:
    def test_missing_input_is_3(self, tmp_path, capsys):
        code = main(["props", "--in", str(tmp_path / "nope.g6"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "missing input" in capsys.readouterr().err

    def test_missing_analysis_input_is_3(self, n4_run, capsys):
        tmp, _, props, _ = n4_run
        code = main(["analyze", "corr", "--props", props, "--qaoa", str(tmp / "nope.csv"),
                     "--out", str(tmp / "c.csv")])
        assert code == 3
        assert f"missing input: [Errno 2] No such file or directory: '{tmp / 'nope.csv'}'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["props", "--in", "{dir}", "--out", "{dir}/x.csv"],
        ["graphs", "gen", "--n", "4", "--out", "{dir}"],
    ], ids=["props-input", "gen-output"])
    def test_directory_path_is_2(self, tmp_path, capsys, argv):
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
        assert f"error: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err

    def test_output_in_missing_directory_is_2(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.g6"
        assert main(["graphs", "gen", "--n", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    @pytest.mark.parametrize("out", ["{dir}", "{dir}/nodir/x.csv"],
                             ids=["directory", "missing-dir"])
    def test_unusable_output_fails_before_any_work(self, tmp_path, capsys, out):
        # the input is missing too, but the output is checked first
        out = out.format(dir=tmp_path)
        assert main(["props", "--in", str(tmp_path / "nope.g6"), "--out", out]) == 2
        assert capsys.readouterr().err.endswith(f": '{out}'\n")
        assert os.listdir(tmp_path) == []

    def test_failed_command_leaves_output_untouched(self, n4_run, monkeypatch):
        tmp, g6, _, _ = n4_run
        out = tmp / "props.csv"
        before, names = out.read_bytes(), sorted(os.listdir(tmp))

        def partial_write(rows, path):
            open(path, "w").write("graph_id\n")
            raise ValueError("write failed")

        monkeypatch.setattr("qgraphlab.datastore.write_dataset_file", partial_write)
        assert main(["props", "--in", g6, "--out", str(out)]) == 2
        assert out.read_bytes() == before and sorted(os.listdir(tmp)) == names

    def test_symlinked_output_writes_its_target(self, tmp_path):
        link, target = tmp_path / "link.g6", tmp_path / "target.g6"
        target.write_text("")
        link.symlink_to(target)
        assert main(["graphs", "gen", "--n", "3", "--out", str(link)]) == 0
        assert link.is_symlink() and target.read_text().splitlines() == ["BW", "Bw"]

    def test_device_output_is_written_in_place(self, monkeypatch):
        monkeypatch.setattr(os, "replace", None)  # a rename onto the device would fail here
        assert main(["graphs", "gen", "--n", "4", "--out", os.devnull]) == 0

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_2_without_traceback(self, unbuffered):
        # the reader end is closed before the command writes anything; buffered,
        # the write fails only when stdout is flushed
        read, write = os.pipe()
        os.close(read)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            proc = subprocess.run([sys.executable, "-m", "qgraphlab.cli", "graphs", "gen", "--n", "7"],
                                  stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (2, b"")

    def test_bad_record_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.g6"
        bad.write_text("A_\nC\x1b~\n")
        code = main(["props", "--in", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("data, message", [
        (b"C~\nCr\nC~~\n", "3: oversized graph6 record: 2 data bytes, expected 1"),
        (b"C~\nCr\xc3\xa9\n", "2: byte 195 outside printable graph6 range"),
        (b"C~\n\nCr\xa0\n", "3: byte 160 outside printable graph6 range"),
    ], ids=["oversized", "utf8-letter", "trailing-nbsp"])
    def test_graph6_error_names_file_and_line(self, tmp_path, capsys, data, message):
        # the line number counts blank lines; a non-ASCII byte is never whitespace
        bad = tmp_path / "bad.g6"
        bad.write_bytes(data)
        assert main(["props", "--in", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"{bad}:{message}" in capsys.readouterr().err

    def test_disconnected_record_is_2(self, tmp_path, capsys):
        # record 2 has one edge and an isolated vertex
        g6 = tmp_path / "split.g6"
        g6.write_text("Bw\nB_\n")
        out = tmp_path / "x.csv"
        assert main(["props", "--in", str(g6), "--out", str(out), "--workers", "1"]) == 2
        assert "graph 2 is not connected" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("record", ["@", "A?"], ids=["n1", "n2"])
    def test_edgeless_qaoa_is_2(self, tmp_path, capsys, record, workers):
        # C_max = 0 leaves the approximation ratio undefined
        g6 = tmp_path / "edgeless.g6"
        g6.write_text(record + "\n")
        out = tmp_path / "q.csv"
        assert main(["qaoa", "--in", str(g6), "--p", "1", "--starts", "2",
                     "--workers", workers, "--out", str(out)]) == 2
        assert "graph 1 has no edges" in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_sizes_is_2(self, tmp_path, capsys):
        mixed = tmp_path / "mixed.g6"
        mixed.write_text("A_\nC~\n")
        code = main(["props", "--in", mixed.as_posix(), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "one vertex count" in capsys.readouterr().err

    def test_bad_depth_is_2(self, tmp_path):
        g6 = tmp_path / "n4.g6"
        assert main(["graphs", "gen", "--n", "4", "--out", str(g6)]) == 0
        assert main(["qaoa", "--in", str(g6), "--p", "5", "--starts", "2",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("which, lineno, edit", [
        ("props", 3, lambda line: line.rsplit(",", 8)[0]),
        ("props", 2, lambda line: line + ",0"),
        ("qaoa", 4, lambda line: ",".join(line.split(",")[:4])),
    ], ids=["truncated-props-row", "extra-props-cell", "truncated-results-row"])
    def test_malformed_record_is_2(self, n4_run, capsys, which, lineno, edit):
        tmp, _, props, qaoa = n4_run
        path = props if which == "props" else qaoa
        lines = open(path).read().splitlines()
        lines[lineno - 1] = edit(lines[lineno - 1])
        open(path, "w").write("\n".join(lines) + "\n")
        assert main(["analyze", "corr", "--props", props, "--qaoa", qaoa,
                     "--out", str(tmp / "c.csv")]) == 2
        assert f"{path}:{lineno}:" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint", ["x", "1.5", ""])
    def test_non_integer_cycle_endpoint_is_2(self, n4_run, capsys, endpoint):
        tmp, _, props, qaoa = n4_run
        with open(props, newline="") as fh:
            records = list(csv.reader(fh))
        column = records[0].index("cycle_basis")
        row = next(r for r in records[1:] if r[column])
        row[column] = endpoint + row[column][row[column].index("-"):]
        with open(props, "w", newline="") as fh:
            csv.writer(fh).writerows(records)
        assert main(["analyze", "corr", "--props", props, "--qaoa", qaoa,
                     "--out", str(tmp / "c.csv")]) == 2
        assert "invalid literal for int()" in capsys.readouterr().err

    def test_negative_workers_is_2(self, tmp_path, capsys):
        g6 = tmp_path / "n4.g6"
        assert main(["graphs", "gen", "--n", "4", "--out", str(g6)]) == 0
        code = main(["props", "--in", str(g6), "--out", str(tmp_path / "x.csv"),
                     "--workers", "-3"])
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_config_defaults_applied(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("starts=4\nseed=11\nworkers=1\n")
        g6 = tmp_path / "n4.g6"
        out = tmp_path / "q.csv"
        assert main(["graphs", "gen", "--n", "4", "--out", str(g6)]) == 0
        assert main(["qaoa", "--config", str(cfg), "--in", str(g6), "--p", "1",
                     "--out", str(out)]) == 0
        rows = read_qaoa_results(str(out))
        assert rows[0].starts == 4 and rows[0].seed == 11


class TestSettings:
    """Run settings resolve once: RunConfig defaults, then --config, then flags."""

    @pytest.fixture()
    def suites(self, monkeypatch):
        calls = {}

        def stub(name):
            def suite(*args, **kwargs):
                calls[name] = kwargs
                return []
            return suite

        monkeypatch.setattr(verify, "golden_suite", stub("golden"))
        monkeypatch.setattr(verify, "invariant_suite", stub("invariants"))
        return calls

    def test_verify_reads_config_and_flags(self, tmp_path, suites):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers=1\n")
        for suite in ("golden", "invariants"):
            assert main(["verify", suite, "--config", str(cfg)]) == 0
            assert suites[suite] == {"workers": 1}
            assert main(["verify", suite, "--config", str(cfg), "--workers", "3"]) == 0
            assert suites[suite] == {"workers": 3}

    def test_verify_rejects_bad_flag_before_running(self, suites, capsys):
        assert main(["verify", "golden", "--workers", "-1"]) == 2
        assert "golden" not in suites
        assert "workers" in capsys.readouterr().err

    def test_golden_runs_at_study_settings(self, monkeypatch):
        # the reference values hold for 200 starts and seed 0 only
        calls = []

        class Stop(Exception):
            pass

        def record(graphs, pmax, starts, seed, workers):
            calls.append((starts, seed, workers))
            raise Stop

        monkeypatch.setattr(verify, "enumerate_connected", lambda n: [])
        monkeypatch.setattr(verify, "qaoa_result_rows", record)
        for check in (verify.check_optimized_group_means, verify.check_correlation_grids,
                      verify.check_sign_grid):
            with pytest.raises(Stop):
                check(workers=1)
        assert calls == [(DEFAULT_STARTS, 0, 1)] * 3

    def test_suites_build_every_table_at_their_worker_count(self, monkeypatch):
        calls = []

        class Stop(Exception):
            pass

        def rows(graphs, workers):
            calls.append(workers)
            raise Stop

        def results(graphs, pmax, starts, seed, workers):
            calls.append(workers)
            raise Stop

        monkeypatch.setattr(verify, "dataset_rows", rows)
        monkeypatch.setattr(verify, "qaoa_result_rows", results)
        verify._rows.cache_clear()
        for check in (verify.check_uniform_means, verify.check_uniform_correlations,
                      verify.check_optimized_group_means, verify.check_correlation_grids,
                      verify.check_sign_grid, verify.check_depth_monotonicity,
                      verify.check_cut_vertex_agreement, verify.check_bipartite_odd_cycles,
                      verify.golden_suite, verify.invariant_suite):
            calls.clear()
            with pytest.raises(Stop):
                check(workers=1)
            assert calls == [1], check.__name__

    @pytest.mark.parametrize("flag, value", [("--starts", "0"), ("--seed", "-1")])
    def test_qaoa_rejects_bad_flag(self, tmp_path, capsys, flag, value):
        g6 = tmp_path / "n4.g6"
        out = tmp_path / "q.csv"
        assert main(["graphs", "gen", "--n", "4", "--out", str(g6)]) == 0
        assert main(["qaoa", "--in", str(g6), "--p", "0", flag, value, "--out", str(out)]) == 2
        assert flag[2:] in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_rejects_unread_flag(self, n4_run):
        tmp, _, props, qaoa = n4_run
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "corr", "--props", props, "--qaoa", qaoa, "--bins", "3",
                  "--out", str(tmp / "c.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["verify", "invariants", "--starts", "3"],
                                      ["verify", "golden", "--starts", "3"],
                                      ["verify", "golden", "--seed", "3"],
                                      ["graphs", "count", "--n", "4", "--config", "run.cfg"]],
                             ids=["invariants-starts", "golden-starts", "golden-seed",
                                  "graphs-config"])
    def test_unread_setting_rejected(self, suites, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not suites

    @pytest.mark.parametrize("command", [["props", "--in", "n4.g6", "--out", "p.csv"],
                                         ["verify", "invariants"], ["verify", "golden"]],
                             ids=["props", "invariants", "golden"])
    @pytest.mark.parametrize("key", ["starts=3", "seed=7", "delta_eps=0.5"])
    def test_config_key_not_read_rejected(self, tmp_path, monkeypatch, capsys, suites, command, key):
        # props and the verify suites read only workers, and no command reads delta_eps
        monkeypatch.chdir(tmp_path)
        assert main(["graphs", "gen", "--n", "4", "--out", "n4.g6"]) == 0
        (tmp_path / "run.cfg").write_text(f"workers=1\n{key}\n")
        assert main(command + ["--config", "run.cfg"]) == 2
        assert repr(key.partition("=")[0]) in capsys.readouterr().err
        assert not suites and not (tmp_path / "p.csv").exists()
        (tmp_path / "run.cfg").write_text("workers=1\n")
        assert main(command + ["--config", "run.cfg"]) == 0

    def test_config_repeated_key_is_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["graphs", "gen", "--n", "4", "--out", "n4.g6"]) == 0
        (tmp_path / "run.cfg").write_text("starts=3\nworkers=1\nstarts=5\n")
        assert main(["qaoa", "--config", "run.cfg", "--in", "n4.g6", "--p", "1",
                     "--out", "q.csv"]) == 2
        assert "run.cfg:3: config key 'starts' repeats line 1" in capsys.readouterr().err
        assert not (tmp_path / "q.csv").exists()

    def test_config_all_keys_read_by_qaoa(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["graphs", "gen", "--n", "4", "--out", "n4.g6"]) == 0
        (tmp_path / "run.cfg").write_text("starts=3\nseed=7\nworkers=1\n")
        assert main(["qaoa", "--config", "run.cfg", "--in", "n4.g6", "--p", "1",
                     "--out", "q.csv"]) == 0
        rows = read_qaoa_results("q.csv")
        assert {(r.starts, r.seed) for r in rows} == {(3, 7)}

    def test_workers_ignore_environment(self, monkeypatch):
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        monkeypatch.setenv("QGL_WORKERS", str(cores + 1))
        assert resolve_workers(None) == resolve_workers(0) == cores
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_default_workers_follow_affinity(self, monkeypatch):
        # a process pinned to one core gets one worker, whatever the machine's core count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_workers(0) == 1

    def test_pool_capped_at_job_count(self, monkeypatch):
        # a pool starts all its processes up front, so --workers 64 on two
        # graphs must not fork 64
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        graphs = enumerate_connected(4)[:3]
        assert dataset_rows(graphs[:2], workers=64) == dataset_rows(graphs[:2], workers=1)
        serial = qaoa_result_rows(graphs, 1, 2, 0, workers=1)
        assert qaoa_result_rows(graphs, 1, 2, 0, workers=64) == serial
        assert qaoa_result_rows(graphs, 1, 2, 0, workers=2) == serial
        assert sizes == [2, 3, 2]


class TestFileBytes:
    # sha256 of the n = 5 and n = 7 props and the n = 5 depth-0 results files
    # (the n = 7 digest is also the benchmark's census pin); the p >= 1 angle
    # digits are not pinned, since equivalent optima may still trade places
    PROPS_N5 = "083389a9c614ea5aad5f7d674a81b0e785b823b0e4f8a1bc9d22c6780bf1f132"
    PROPS_N7 = "7fdcb2d47a8c4002ae642ba08048ab777c935b6e7293825b854c7f548ac1b5c9"
    QAOA_P0_N5 = "4be1b3d3b68554aa9345977b10d56a04852b6c61edd6632204f3c77a0d058b88"
    # sha256 of the analyses of the n = 5 depth-0 files, and of the sign
    # summary of an n = 4 depth-3 run
    ANALYZE_N5 = {
        ("corr",): "ddf11dc28add179f631e0817071d599ec600cd6fd5971496841afb5244cca558",
        ("avg", "--flag", "bipartite"):
            "74523adf6f8db809d1e61e454fdf6f88db15eee3db5420e569a9bca9a5df8a39",
        ("hist", "--flag", "bipartite"):
            "c5fc2a5fc5d145c4173889c7ecff5e492794e3ee4e628fab8a218a152957236a",
    }
    SIGNS_N4 = "314cdeab82d04f770fab1136c38eeabd331ee0c6b234a6f7027a3eae4b40e134"

    def test_pinned_bytes_and_padding(self, n4_run):
        tmp, _, _, qaoa2 = n4_run
        g6, props, qaoa0 = (str(tmp / name) for name in ("n5.g6", "props5.csv", "qaoa5.csv"))
        assert main(["graphs", "gen", "--n", "5", "--out", g6]) == 0
        assert main(["props", "--in", g6, "--out", props, "--workers", "1"]) == 0
        assert main(["qaoa", "--in", g6, "--p", "0", "--out", qaoa0, "--workers", "1"]) == 0
        assert hashlib.sha256(open(props, "rb").read()).hexdigest() == self.PROPS_N5
        assert hashlib.sha256(open(qaoa0, "rb").read()).hexdigest() == self.QAOA_P0_N5
        out = str(tmp / "analysis.csv")
        for mode, digest in self.ANALYZE_N5.items():
            assert main(["analyze", *mode, "--props", props, "--qaoa", qaoa0, "--out", out]) == 0
            assert hashlib.sha256(open(out, "rb").read()).hexdigest() == digest, mode
        g6, props = str(tmp / "n7.g6"), str(tmp / "props7.csv")
        assert main(["graphs", "gen", "--n", "7", "--out", g6]) == 0
        assert main(["props", "--in", g6, "--out", props, "--workers", "1"]) == 0
        assert hashlib.sha256(open(props, "rb").read()).hexdigest() == self.PROPS_N7

        header, *records = open(qaoa2).read().splitlines()
        assert header == ("graph_id,n,graph6,p,gamma_1,gamma_2,beta_1,beta_2,exp_c,prob_cmax,"
                          "ratio,delta_ratio,cmax,optimal_count,starts,seed")
        depth0 = [rec.split(",") for rec in records if rec.split(",")[3] == "0"]
        assert len(depth0) == 6
        assert all(cells[4:8] == ["", "", "", ""] for cells in depth0)

    def test_pinned_sign_summary(self, n4_run):
        tmp, g6, props, _ = n4_run
        qaoa, out = str(tmp / "qaoa3.csv"), str(tmp / "signs.csv")
        assert main(["qaoa", "--in", g6, "--p", "3", "--starts", "8", "--seed", "3",
                     "--out", qaoa, "--workers", "1"]) == 0
        assert main(["analyze", "signs", "--props", props, "--qaoa", qaoa, "--out", out]) == 0
        assert hashlib.sha256(open(out, "rb").read()).hexdigest() == self.SIGNS_N4
