from __future__ import annotations

import io
import random

import pytest

from fvskit.cli import InstanceFormatError, format_instance, main, parse_instance
from fvskit.generate import random_gnm
from fvskit.multigraph import MultiGraph, is_forest, minus

from conftest import hubs_over_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRIANGLE = "3 3\n1 2\n2 3\n1 3\n"


def test_parse_simple():
    g = parse_instance(TRIANGLE)
    assert g.n == 3 and g.m == 3
    assert g.multiplicity(0, 1) == 1


def test_parse_comments_loops_multi():
    text = "# hello\n2 3\n1 1\n1 2\n1 2\n"
    g = parse_instance(text)
    assert g.loops_at(0) == 1
    assert g.multiplicity(0, 1) == 2


@pytest.mark.parametrize("text", [
    "", "x y\n", "2 1\n", "2 1\n1 2\n3 1\n" "2 1\n0 1\n", "1 1\n1 2\n", "2 2\n1 2\n",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(InstanceFormatError):
        parse_instance(text)


def test_format_roundtrip():
    rng = random.Random(6)
    for _ in range(20):
        g = random_gnm(rng.randrange(1, 9), rng.randrange(0, 14), rng)
        assert parse_instance(format_instance(g)) == g


def test_solve_command_feasible(tmp_path, capsys):
    inst = tmp_path / "tri.txt"
    inst.write_text(TRIANGLE)
    code, out, err = run_cli(capsys, "solve", str(inst), "-k", "1", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "FVS 1"
    assert lines[1] in {"1", "2", "3"}


def test_solve_command_infeasible(tmp_path, capsys):
    inst = tmp_path / "two.txt"
    inst.write_text("6 6\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n")
    code, out, err = run_cli(capsys, "solve", str(inst), "-k", "1", "--seed", "3")
    assert code == 0
    assert out.strip() == "INFEASIBLE"


def test_solve_command_stats_lines(tmp_path, capsys):
    inst = tmp_path / "tri.txt"
    inst.write_text(TRIANGLE)
    code, out, _ = run_cli(capsys, "solve", str(inst), "-k", "1",
                           "--seed", "3", "--stats")
    assert code == 0
    stat_lines = [ln for ln in out.splitlines() if "=" in ln]
    keys = {ln.split("=")[0] for ln in stat_lines}
    assert {"trials", "budget", "decider_calls"} <= keys


def test_solve_command_k_cap(tmp_path, capsys):
    inst = tmp_path / "tri.txt"
    inst.write_text(TRIANGLE)
    code, out, err = run_cli(capsys, "solve", str(inst), "-k", "30", "--seed", "1")
    assert code == 3
    assert "ceiling" in err


def test_solve_command_mm_kernel_above_62_vertices(tmp_path, capsys):
    inst = tmp_path / "hubs.txt"
    inst.write_text(format_instance(hubs_over_path(62)))
    code, out, err = run_cli(capsys, "solve", str(inst), "-k", "2", "--variant", "mm",
                             "--seed", "1")
    assert code == 3
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


def test_solve_command_bad_instance(tmp_path, capsys):
    inst = tmp_path / "bad.txt"
    inst.write_text("nope\n")
    code, out, err = run_cli(capsys, "solve", str(inst), "-k", "1")
    assert code == 2
    code2, _, _ = run_cli(capsys, "solve", str(tmp_path / "missing.txt"), "-k", "1")
    assert code2 == 2


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "solve")  # missing -k and instance
    assert code == 2
    code2, _, _ = run_cli(capsys, "frobnicate")
    assert code2 == 2


def test_emit_td(tmp_path, capsys):
    inst = tmp_path / "tri.txt"
    inst.write_text(TRIANGLE)
    td_path = tmp_path / "td.out"
    code, out, _ = run_cli(capsys, "solve", str(inst), "-k", "1",
                           "--seed", "3", "--emit-td", str(td_path))
    assert code == 0
    head = td_path.read_text().splitlines()[0].split()
    assert head[:2] == ["s", "td"] and head[4] == "3"


def test_verify_command(tmp_path, capsys):
    inst = tmp_path / "tri.txt"
    inst.write_text(TRIANGLE)
    code, out, _ = run_cli(capsys, "verify", str(inst), "--set", "1")
    assert code == 0 and out.strip() == "VALID 1"
    code, out, _ = run_cli(capsys, "verify", str(inst), "--set", "")
    assert code == 0 and out.strip() == "INVALID"
    code, _, err = run_cli(capsys, "verify", str(inst), "--set", "9")
    assert code == 2


def test_oracle_command(tmp_path, capsys):
    inst = tmp_path / "tri.txt"
    inst.write_text(TRIANGLE)
    code, out, _ = run_cli(capsys, "oracle", str(inst))
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "MINFVS 1"


def test_gen_solve_pipeline(tmp_path, capsys):
    out_path = tmp_path / "inst.txt"
    code, _, _ = run_cli(capsys, "gen", "cycles", "--lengths", "3,4",
                         "--out", str(out_path))
    assert code == 0
    g = parse_instance(out_path.read_text())
    assert g.n == 7 and g.m == 7
    code, out, _ = run_cli(capsys, "solve", str(out_path), "-k", "2", "--seed", "1")
    assert code == 0 and out.splitlines()[0] == "FVS 2"


def test_gen_planted_comment_lists_solution(tmp_path, capsys):
    out_path = tmp_path / "pl.txt"
    code, _, _ = run_cli(capsys, "gen", "planted", "--k", "3", "--forest-size", "12",
                         "--dbar", "3.0", "--seed", "5", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    planted_line = [ln for ln in text.splitlines() if ln.startswith("# planted")]
    assert planted_line
    ids = [int(t) for t in planted_line[0].split()[2:]]
    g = parse_instance(text)
    chosen = {g.vertices()[i - 1] for i in ids}
    assert is_forest(minus(g, chosen))


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "tri.txt"
    inst.write_text(TRIANGLE)
    monkeypatch.setenv("FVSKIT_SEED", "41")
    code1, out1, _ = run_cli(capsys, "solve", str(inst), "-k", "1")
    code2, out2, _ = run_cli(capsys, "solve", str(inst), "-k", "1")
    assert code1 == code2 == 0 and out1 == out2


def test_bench_csv(capsys):
    code, out, _ = run_cli(capsys, "bench", "--seed", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,n,m,k,variant,trials,wall_s,success"
    assert len(lines) >= 5
    for row in lines[1:]:
        assert row.endswith(",1")  # every suite instance solves
