import csv
import io
import json
import math
from pathlib import Path

import pytest

import graphsl
from graphsl.cli import main

FIXTURES = Path(graphsl.__file__).parent / "fixtures"

INTERVAL = str(FIXTURES / "interval.json")
STAR = str(FIXTURES / "star3.json")
HALFLINE = str(FIXTURES / "halfline40.json")
FREE = str(FIXTURES / "free.json")
WELL = str(FIXTURES / "well_first_edge.json")
ZERO_TAIL = str(FIXTURES / "zero_weight_tail.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


# --- shared surface ------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.strip() == f"graphsl {graphsl.__version__}"


def test_missing_graph_is_usage_error(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["spectrum"])
    assert stop.value.code == 2
    assert "--graph is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--graph", INTERVAL, "--h", "0"],
        ["spectrum", "--graph", INTERVAL, "--tol", "-1"],
        ["spectrum", "--graph", INTERVAL, "--levels", "3,2"],
        ["spectrum", "--graph", INTERVAL, "--levels", "1,2,2"],
        ["spectrum", "--graph", INTERVAL, "--levels", "a,b"],
        ["spectrum", "--graph", INTERVAL, "--workers", "1"],   # the option is gone
        ["persson", "--graph", HALFLINE, "--levels", "1,2"],
        ["persson", "--graph", HALFLINE, "--levels", "1,4", "--outer", "2,3"],
        ["sobolev", "--graph", INTERVAL, "--epsilon", "0"],
        ["ap-check", "--graph", STAR, "--level", "1"],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2


def test_unreadable_graph_path(capsys):
    code, out, err = run(capsys, "spectrum", "--graph", "/nonexistent/g.json")
    assert code == 2
    assert "cannot read" in err


def test_invalid_json_reports_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "spectrum", "--graph", str(bad))
    assert code == 2
    assert "not valid JSON" in err


# --- spectrum --------------------------------------------------------------------


def test_spectrum_interval_output_shape(capsys):
    code, out, err = run(capsys, "spectrum", "--graph", INTERVAL, "--h", "0.005")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"# graphsl {graphsl.__version__}"
    assert lines[1] == "# command: spectrum"
    assert lines[2].startswith("# config: graph=")
    assert "h=0.005" in lines[2]
    assert lines[3] == "# hypotheses: pass"
    assert lines[4] == "# seed: 0"
    assert any(line.startswith("# estimate: ") for line in lines)
    assert any(line == "# bc: dirichlet" for line in lines)
    rows = data_rows(out)
    assert rows[0] == "n,lambda"
    level, value = rows[1].split(",")
    assert level == "1"
    assert float(value) == pytest.approx(math.pi**2, rel=1e-3)
    # the single level swallows the interval: the truncation warning fires
    assert "host graph boundary" in err


def test_spectrum_free_bc_lowers_value(capsys):
    code_d, out_d, _ = run(capsys, "spectrum", "--graph", STAR, "--h", "0.02")
    code_f, out_f, _ = run(
        capsys, "spectrum", "--graph", STAR, "--h", "0.02", "--no-boundary-dirichlet"
    )
    assert code_d == code_f == 0
    vd = float(data_rows(out_d)[1].split(",")[1])
    vf = float(data_rows(out_f)[1].split(",")[1])
    assert "# bc: free" in out_f.splitlines()
    assert vf < vd
    assert vf == pytest.approx(0.0, abs=1e-9)


def test_spectrum_output_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        code, out, _ = run(
            capsys,
            "spectrum",
            "--graph", HALFLINE,
            "--coeffs", WELL,
            "--h", "0.05",
            "--levels", "2,4",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""  # everything went to the file
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_stdout_matches_file_output(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "spectrum", "--graph", STAR, "--h", "0.05")
    run(capsys, "spectrum", "--graph", STAR, "--h", "0.05", "--out", str(target))
    assert target.read_text() == out


def test_spectrum_empty_levels_is_solver_failure(capsys):
    code, out, err = run(capsys, "spectrum", "--graph", STAR, "--levels", "0")
    assert code == 3
    assert "solver failure" in err


# --- persson ---------------------------------------------------------------------


def test_persson_halfline_table(capsys):
    code, out, err = run(
        capsys,
        "persson",
        "--graph", HALFLINE,
        "--levels", "1,2",
        "--outer", "5,9",
        "--h", "0.05",
    )
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "n,N,lambda,residual"
    parsed = [row.split(",") for row in rows[1:]]
    assert [(r[0], r[1]) for r in parsed] == [("1", "5"), ("1", "9"), ("2", "5"), ("2", "9")]
    for r in parsed:
        n, N = int(r[0]), int(r[1])
        assert float(r[2]) == pytest.approx((math.pi / (N - n)) ** 2, rel=5e-3)
        assert float(r[3]) < 1e-8
    assert any(line.startswith("# estimate: ") for line in out.splitlines())
    assert any(line.startswith("# bracket: ") for line in out.splitlines())


def test_persson_gate_blocks_without_override(capsys):
    code, out, err = run(
        capsys,
        "persson",
        "--graph", HALFLINE,
        "--coeffs", ZERO_TAIL,
        "--levels", "1",
        "--outer", "3",
    )
    assert code == 2
    assert "clause(s) 2" in err
    assert out == ""


def test_persson_gate_override_proceeds(capsys):
    code, out, err = run(
        capsys,
        "persson",
        "--graph", HALFLINE,
        "--coeffs", ZERO_TAIL,
        "--levels", "1",
        "--outer", "3",
        "--h", "0.1",
        "--override",
    )
    assert code == 0
    assert "proceeding despite failed hypothesis clause(s) 2" in err
    assert "# hypotheses: FAIL clauses 2 (overridden)" in out.splitlines()


def test_spectrum_does_not_gate_on_weight_decay(capsys):
    # clause 2 is a persson/sobolev concern; the truncation sweep runs fine
    code, out, err = run(
        capsys,
        "spectrum",
        "--graph", HALFLINE,
        "--coeffs", ZERO_TAIL,
        "--levels", "2",
        "--h", "0.1",
    )
    assert code == 0
    assert "# hypotheses: pass" in out.splitlines()


# --- ap-check and positive-solution ------------------------------------------------


def test_ap_check_certificate_row(capsys):
    code, out, err = run(
        capsys,
        "ap-check",
        "--graph", STAR,
        "--lambda", "1.0",
        "--level", "1",
        "--h", "0.02",
    )
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "kind,lambda,level,bottom,margin,min_value,max_value"
    kind, lam, level, bottom, margin, mn, mx = rows[1].split(",")
    assert kind == "certificate"
    assert float(lam) == 1.0
    assert level == "1"
    assert float(bottom) == pytest.approx(math.pi**2 / 4, rel=1e-3)
    assert float(margin) < 0
    assert 0 < float(mn) <= 1.0
    assert "certificate:" in err


def test_ap_check_refutation_row(capsys):
    code, out, err = run(
        capsys,
        "ap-check",
        "--graph", STAR,
        "--lambda", "9.0",
        "--level", "1",
        "--h", "0.02",
    )
    assert code == 0
    kind, _, _, _, margin, mn, mx = data_rows(out)[1].split(",")
    assert kind == "refutation"
    assert float(margin) > 0
    assert mn == "" and mx == ""


def test_positive_solution_lists_nodes(capsys):
    code, out, err = run(
        capsys,
        "positive-solution",
        "--graph", INTERVAL,
        "--lambda", "-1.0",
        "--level", "1",
        "--h", "0.25",
    )
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("# dirichlet-bottom: ") for line in lines)
    assert any(line.startswith("# max-kirchhoff-residual: ") for line in lines)
    rows = data_rows(out)
    assert rows[0] == "kind,id,offset,value"
    parsed = [row.split(",") for row in rows[1:]]
    vertex_rows = [r for r in parsed if r[0] == "vertex"]
    edge_rows = [r for r in parsed if r[0] == "edge"]
    assert {r[1] for r in vertex_rows} == {"a", "b"}
    assert all(float(r[3]) == 1.0 for r in vertex_rows)  # boundary data
    assert {r[1] for r in edge_rows} == {"e1"}
    offsets = [float(r[2]) for r in edge_rows]
    assert offsets == sorted(offsets)
    values = [float(r[3]) for r in edge_rows]
    assert min(values) > 0
    assert min(values) == pytest.approx(1 / math.cosh(0.5), rel=1e-2)


def test_positive_solution_kirchhoff_comment_is_a_number(capsys):
    code, out, err = run(
        capsys,
        "positive-solution",
        "--graph", HALFLINE,
        "--lambda", "-1.0",
        "--level", "3",
        "--h", "0.25",
    )
    assert code == 0
    prefix = "# max-kirchhoff-residual: "
    line = next(line for line in out.splitlines() if line.startswith(prefix))
    assert float(line[len(prefix):]) > 0


def test_positive_solution_above_bottom_fails(capsys):
    code, out, err = run(
        capsys,
        "positive-solution",
        "--graph", INTERVAL,
        "--lambda", "50.0",
        "--level", "1",
    )
    assert code == 3
    assert "solver failure" in err


def test_vertex_ids_with_commas_are_quoted(tmp_path, capsys):
    doc = {
        "vertices": ["x,1", "y"],
        "edges": [{"id": "e,1", "from": "x,1", "to": "y", "length": 1.0}],
        "root": "x,1",
    }
    gpath = tmp_path / "comma.json"
    gpath.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "positive-solution",
        "--graph", str(gpath),
        "--lambda", "0.0",
        "--level", "1",
        "--h", "0.5",
    )
    assert code == 0
    assert '"x,1"' in out
    assert '"e,1"' in out


def test_certificate_rows_are_what_csv_writer_writes(tmp_path, capsys):
    doc = {
        "vertices": ["x,1", 'y"2', "z"],
        "edges": [
            {"id": 'e,"1', "from": "x,1", "to": 'y"2', "length": 1.0},
            {"id": "e2", "from": 'y"2', "to": "z", "length": 1.0},
        ],
        "root": "x,1",
    }
    gpath = tmp_path / "quoted.json"
    gpath.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "positive-solution",
        "--graph", str(gpath),
        "--lambda", "-1.0",
        "--level", "2",
        "--h", "0.25",
    )
    assert code == 0
    text = "".join(line + "\n" for line in data_rows(out))
    rows = list(csv.reader(io.StringIO(text)))
    assert {r[1] for r in rows if r[0] == "edge"} == {'e,"1', "e2"}
    assert any(r == ["vertex", 'y"2'] + r[2:] for r in rows)
    for r in rows[1:]:
        assert [repr(float(v)) for v in r[2:] if v] == [v for v in r[2:] if v]
    rewritten = io.StringIO()
    csv.writer(rewritten, lineterminator="\n").writerows(rows)
    assert rewritten.getvalue() == text
    assert '\nedge,"e,""1",' in text


# --- sobolev -----------------------------------------------------------------------


def test_sobolev_epsilon_sweep(capsys):
    code, out, err = run(
        capsys, "sobolev", "--graph", STAR, "--epsilon", "0.25,0.5,1,2"
    )
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "epsilon,delta,c,C"
    constants = [float(row.split(",")[3]) for row in rows[1:]]
    assert constants == pytest.approx([32.0, 16.0, 8.0, 8.0], rel=1e-9)
    deltas = [float(row.split(",")[1]) for row in rows[1:]]
    assert deltas[2] == pytest.approx(0.5, rel=1e-9)


# --- validate ----------------------------------------------------------------------


def test_validate_reports_pass(capsys):
    code, out, err = run(capsys, "validate", "--graph", HALFLINE, "--coeffs", FREE)
    assert code == 0
    lines = out.splitlines()
    for clause in (1, 2, 3, 4):
        assert any(line.startswith(f"clause {clause} (") and "PASS" in line for line in lines)
    assert lines[-1] == "overall: PASS"


def test_validate_flags_decaying_weight(capsys):
    code, out, err = run(capsys, "validate", "--graph", HALFLINE, "--coeffs", ZERO_TAIL)
    assert code == 2
    lines = out.splitlines()
    assert any(line.startswith("clause 2 (") and "FAIL" in line for line in lines)
    assert lines[-1] == "overall: FAIL"
    assert "clause(s) 2" in err


def test_validate_reports_unevaluable_weight(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps({"default": {"w": {"expr": "sqrt(x-0.5)"}}}))
    code, out, err = run(capsys, "validate", "--graph", STAR, "--coeffs", str(coeffs))
    assert code == 2
    assert any(line.startswith("clause 2 (") and "FAIL" in line for line in out.splitlines())
    assert out.splitlines()[-1] == "overall: FAIL"
    assert "evaluation failed" not in err


def test_validate_echoes_declared_eta(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps({"eta": 2, "default": {"p": 4.0}}))
    code, out, err = run(capsys, "validate", "--graph", INTERVAL, "--coeffs", str(coeffs))
    assert code == 0
    clause1 = next(line for line in out.splitlines() if line.startswith("clause 1"))
    assert "eta=2.0" in clause1
    assert "0.0625" in clause1  # (1/4)^2 over a unit edge


@pytest.mark.parametrize("command", ["spectrum", "validate"])
@pytest.mark.parametrize("eta", ["abc", None, True], ids=["string", "null", "bool"])
def test_malformed_eta_is_rejected(tmp_path, capsys, command, eta):
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps({"eta": eta, "default": {"p": 4.0}}))
    code, out, err = run(capsys, command, "--graph", INTERVAL, "--coeffs", str(coeffs))
    assert code == 2
    assert "eta" in err


# --- verify ------------------------------------------------------------------------


def test_verify_all_checks_pass(tmp_path, capsys):
    target = tmp_path / "verify.txt"
    code, out, err = run(capsys, "verify", "--seed", "3", "--out", str(target))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"# graphsl {graphsl.__version__}"
    assert "# seed: 3" in lines
    passes = [line for line in lines if line.startswith("PASS ")]
    assert len(passes) >= 10
    assert not any(line.startswith("FAIL ") for line in lines)
    assert target.read_text() == out
