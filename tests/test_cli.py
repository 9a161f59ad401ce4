import argparse
import csv
import io
import json
import math
from pathlib import Path

import pytest

import graphsl
from graphsl.cli import build_parser, main

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


def comment_lines(text):
    return [line for line in text.splitlines() if line.startswith("#")]


def head(command, config=None, hypotheses="pass", seed=None):
    """The ``#`` lines a command's output starts with; ``None`` leaves a line out."""
    lines = [f"# graphsl {graphsl.__version__}", f"# command: {command}"]
    if config is not None:
        lines.append(f"# config: {config}")
    if hypotheses is not None:
        lines.append(f"# hypotheses: {hypotheses}")
    if seed is not None:
        lines.append(f"# seed: {seed}")
    return lines


def keys(lines):
    return [line.split(":")[0] for line in lines]


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


RANGE_ERRORS = {
    "--levels": "--levels entries must be nonnegative",
    "--outer": "--outer entries must be nonnegative",
    "--epsilon": "--epsilon values must be positive",
}


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
        # a list starting with a minus reaches the range check, joined or not
        ["spectrum", "--graph", INTERVAL, "--levels", "-1,2"],
        ["spectrum", "--graph", INTERVAL, "--levels=-1,2"],
        ["persson", "--graph", HALFLINE, "--levels", "1", "--outer", "-1,5"],
        ["sobolev", "--graph", INTERVAL, "--epsilon", "-1,2"],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    # an unrecognized option and every value error, argparse's or the range
    # checks', name the command
    assert err.startswith(f"usage: graphsl {argv[0]} [-h]")
    if "-1," in argv[-1]:
        flag = argv[-1].partition("=")[0] if argv[-1].startswith("--") else argv[-2]
        assert RANGE_ERRORS[flag] in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # at --tol nan the solve failed on "residual above tolerance nan" (exit 3),
        # and at --tol inf it certified a lower bound of -inf (exit 0)
        (["spectrum", "--graph", INTERVAL, "--tol", "nan"], "--tol must be finite"),
        (["spectrum", "--graph", INTERVAL, "--tol", "inf"], "--tol must be finite"),
        (["spectrum", "--graph", INTERVAL, "--h", "nan"], "--h must be finite"),
        (["ap-check", "--graph", STAR, "--level", "1", "--lambda", "inf"], "--lambda must be finite"),
        (["sobolev", "--graph", INTERVAL, "--epsilon", "0.1,nan"], "--epsilon values must be finite"),
    ],
    ids=["tol-nan", "tol-inf", "h-nan", "lambda-inf", "epsilon-nan"],
)
def test_non_finite_numbers_exit_two(capsys, argv, message):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: graphsl {argv[0]} [-h]")
    assert message in err


# the options each command accepts; every other (command, option) pair is a usage error
ACCEPTED = {
    "spectrum": {"--graph", "--coeffs", "--root", "--h", "--tol", "--levels", "--no-boundary-dirichlet",
                 "--override", "--out"},
    "ap-check": {"--graph", "--coeffs", "--root", "--h", "--tol", "--lambda", "--level", "--override", "--out"},
    "sobolev": {"--graph", "--coeffs", "--root", "--epsilon", "--override", "--out"},
    "validate": {"--graph", "--coeffs", "--root", "--out"},
    "verify": {"--seed", "--out"},
}
ACCEPTED["persson"] = ACCEPTED["spectrum"] | {"--outer"}
ACCEPTED["positive-solution"] = ACCEPTED["ap-check"]

# an option, the tokens that set it and the attribute they set
SETTINGS = {
    "--graph": (["--graph", "g.json"], "graph", "g.json"),
    "--coeffs": (["--coeffs", "c.json"], "coeffs", "c.json"),
    "--root": (["--root", "r"], "root", "r"),
    "--h": (["--h", "0.1"], "h", 0.1),
    "--tol": (["--tol", "1e-08"], "tol", 1e-8),
    "--levels": (["--levels", "1,2"], "levels", [1, 2]),
    "--outer": (["--outer", "7"], "outer", [7]),
    "--no-boundary-dirichlet": (["--no-boundary-dirichlet"], "no_boundary_dirichlet", True),
    "--lambda": (["--lambda", "0.5"], "lam", 0.5),
    "--level": (["--level", "2"], "level", 2),
    "--epsilon": (["--epsilon", "0.5"], "epsilon", [0.5]),
    "--seed": (["--seed", "3"], "seed", 3),
    "--out": (["--out", "o.csv"], "out", "o.csv"),
    "--override": (["--override"], "override", True),
}
# what a command needs to parse at all
REQUIRED = {
    "ap-check": ["--lambda", "1.0", "--level", "1"],
    "positive-solution": ["--lambda", "1.0", "--level", "1"],
    "sobolev": ["--epsilon", "1"],
}


@pytest.mark.parametrize("option", sorted(SETTINGS))
@pytest.mark.parametrize("command", sorted(ACCEPTED))
def test_each_command_accepts_exactly_its_options(capsys, command, option):
    tokens, dest, value = SETTINGS[option]
    argv = [command, *REQUIRED.get(command, []), *tokens]
    if option in ACCEPTED[command]:
        assert getattr(build_parser().parse_args(argv), dest) == value
    else:
        with pytest.raises(SystemExit) as stop:
            build_parser().parse_args(argv)
        assert stop.value.code == 2
        assert f"unrecognized arguments: {tokens[0]}" in capsys.readouterr().err


def test_the_parser_adds_no_option_outside_the_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(ACCEPTED)
    for command, p in sub.choices.items():
        flags = {flag for a in p._actions for flag in a.option_strings} - {"-h", "--help"}
        assert flags == ACCEPTED[command], command


@pytest.mark.parametrize("command", ["ap-check", "positive-solution"])
def test_certificate_commands_reject_free_boundary(capsys, command):
    # the positive-solution test always lifts unit Dirichlet data from the level boundary
    with pytest.raises(SystemExit) as stop:
        main([command, "--graph", STAR, "--lambda", "-1", "--level", "1", "--no-boundary-dirichlet"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --no-boundary-dirichlet" in capsys.readouterr().err


def test_unreadable_graph_path(capsys):
    code, out, err = run(capsys, "spectrum", "--graph", "/nonexistent/g.json")
    assert code == 2
    assert "cannot read" in err


def test_infinite_length_is_named(tmp_path, capsys):
    doc = '{"vertices": ["a", "b"], "edges": [{"id": "e", "from": "a", "to": "b", "length": 1e400}]}'
    gpath = tmp_path / "long.json"
    gpath.write_text(doc)
    code, out, err = run(capsys, "spectrum", "--graph", str(gpath))
    assert code == 2
    assert out == ""
    assert err == "graphsl: edge 'e' has non-finite length inf\n"


def test_invalid_json_reports_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "spectrum", "--graph", str(bad))
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--graph", INTERVAL],   # no --levels: the radius comes from vertex distances
        ["persson", "--graph", HALFLINE, "--levels", "1", "--outer", "3"],
    ],
    ids=["spectrum", "persson"],
)
def test_unknown_root_is_named(capsys, argv):
    code, out, err = run(capsys, *argv, "--root", "zz")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("graphsl: ") and "'zz'" in err


# --- spectrum --------------------------------------------------------------------


def test_spectrum_interval_output_shape(capsys):
    code, out, err = run(capsys, "spectrum", "--graph", INTERVAL, "--h", "0.005")
    assert code == 0
    block = comment_lines(out)
    assert block[:4] == head(
        "spectrum",
        f"graph={INTERVAL} coeffs=None h=0.005 tol=1e-06 root=a boundary-dirichlet=true "
        "override=false",
    )
    assert keys(block[4:]) == ["# estimate", "# error-proxy", "# bc"]
    assert block[-1] == "# bc: dirichlet"
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


def test_persson_free_bc_lowers_value(capsys):
    argv = ("persson", "--graph", STAR, "--h", "0.02", "--levels", "0", "--outer", "1")
    code_d, out_d, _ = run(capsys, *argv)
    code_f, out_f, _ = run(capsys, *argv, "--no-boundary-dirichlet")
    assert code_d == code_f == 0
    assert comment_lines(out_d)[-1] == "# bc: dirichlet"
    assert comment_lines(out_f)[-1] == "# bc: free"
    vd = float(data_rows(out_d)[1].split(",")[2])
    vf = float(data_rows(out_f)[1].split(",")[2])
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
    block = comment_lines(out)
    assert block[:4] == head(
        "persson",
        f"graph={HALFLINE} coeffs=None h=0.05 tol=1e-06 root=v00 levels=1,2 outer=5,9 "
        "boundary-dirichlet=true override=false",
    )
    assert keys(block[4:]) == ["# estimate", "# bracket", "# bc"]
    assert block[-1] == "# bc: dirichlet"


def test_persson_halfline_applies_budget(capsys, monkeypatch):
    import graphsl.eig as eig

    applies = []
    real = eig.solve_pencil

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        applies.append(result.iterations)
        return result

    monkeypatch.setattr(eig, "solve_pencil", counted)
    code, out, _ = run(
        capsys, "persson", "--graph", HALFLINE, "--levels", "1,2,4,8", "--outer", "10,20,30,40", "--h", "0.05"
    )
    assert code == 0
    # 86 applications over 16 annuli; 122 when every loop ran to the 1e-14 floor
    assert len(applies) == 16
    assert sum(applies) <= 95
    assert all(float(row.split(",")[3]) <= 1e-6 for row in data_rows(out)[1:])


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
    assert comment_lines(out)[:4] == head(
        "persson",
        f"graph={HALFLINE} coeffs={ZERO_TAIL} h=0.1 tol=1e-06 root=v00 levels=1 outer=3 "
        "boundary-dirichlet=true override=true",
        hypotheses="FAIL clauses 2 (overridden)",
    )


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
    assert comment_lines(out) == head(
        "ap-check",
        f"graph={STAR} coeffs=None h=0.02 tol=1e-06 root=c lambda=1.0 level=1 override=false",
    )
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
    block = comment_lines(out)
    assert block[:4] == head(
        "positive-solution",
        f"graph={INTERVAL} coeffs=None h=0.25 tol=1e-06 root=a lambda=-1.0 level=1 override=false",
    )
    assert keys(block[4:]) == [
        "# lambda", "# level", "# dirichlet-bottom", "# min", "# max", "# max-kirchhoff-residual", "# root"
    ]
    assert block[4:6] == ["# lambda: -1.0", "# level: 1"]
    assert block[-1] == "# root: a"
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
    assert comment_lines(out) == head(
        "sobolev",
        f"graph={STAR} coeffs=None root=c epsilon=0.25,0.5,1.0,2.0 override=false",
    )
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
    assert comment_lines(out) == head(
        "validate", f"graph={HALFLINE} coeffs={FREE} root=v00", hypotheses=None
    )
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
    lines = out.splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith("clause 2 ("))
    assert "FAIL" in lines[at]
    # the failing clause names the edges that broke it
    assert lines[at + 1 : at + 4] == [f"  {e}: w not evaluable" for e in ("a1", "a2", "a3")]
    assert lines[at + 4].startswith("clause 3 (")
    assert lines[-1] == "overall: FAIL"
    assert "evaluation failed" not in err


def test_validate_names_the_loaded_multigraph_lengths(tmp_path, capsys):
    # d_* is the shortest edge as loaded: a loop of length 2 and a stick of length 1
    graph = tmp_path / "lollipop.json"
    graph.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [
            {"id": "loop", "from": "a", "to": "a", "length": 2.0},
            {"id": "stick", "from": "a", "to": "b", "length": 1.0},
        ],
        "root": "b",
    }))
    code, out, err = run(capsys, "validate", "--graph", str(graph))
    assert code == 0
    assert "d_* = 1.0" in next(line for line in out.splitlines() if line.startswith("clause 3"))
    code, out, err = run(capsys, "sobolev", "--graph", str(graph), "--epsilon", "1")
    assert code == 0
    assert float(data_rows(out)[1].split(",")[3]) == pytest.approx(8.0, rel=1e-9)


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


@pytest.mark.parametrize("key", ["eta", "default"])
def test_reserved_key_that_is_an_edge_id_exits_two(tmp_path, capsys, key):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": ["a", "b"], "edges": [{"id": key, "from": "a", "to": "b", "length": 1.0}]}))
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps({key: {"p": 2.0}}))
    code, out, err = run(capsys, "validate", "--graph", str(graph), "--coeffs", str(coeffs))
    assert code == 2
    assert f"has an edge {key!r}" in err


def test_import_leaves_matrix_market_io_unloaded():
    # no command reads or writes Matrix Market files, so the CLI never loads scipy.io
    import os
    import subprocess
    import sys

    probe = "import sys, graphsl.cli; print('scipy.io' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(graphsl.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_spectrum_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the eigensolve's reductions bypass BLAS, whose sums follow its thread count
    import os
    import subprocess
    import sys

    from graphsl.families import tree

    graph = tmp_path / "tree7.json"
    graph.write_text(json.dumps(tree(7)))
    outputs = []
    for threads in ("1", "2"):
        target = tmp_path / f"threads{threads}.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(graphsl.__file__).parents[1]), OPENBLAS_NUM_THREADS=threads)
        argv = ["spectrum", "--graph", str(graph), "--h", "0.01", "--levels", "1,7", "--tol", "1e-10", "--out", str(target)]
        subprocess.run([sys.executable, "-m", "graphsl.cli", *argv], env=env, capture_output=True, check=True)
        outputs.append(target.read_bytes())
    assert b"# estimate: " in outputs[0]
    assert outputs[0] == outputs[1]


# --- verify ------------------------------------------------------------------------


def test_verify_all_checks_pass(tmp_path, capsys):
    target = tmp_path / "verify.txt"
    code, out, err = run(capsys, "verify", "--seed", "3", "--out", str(target))
    assert code == 0
    lines = out.splitlines()
    assert comment_lines(out) == head("verify", hypotheses=None, seed=3)
    passes = [line for line in lines if line.startswith("PASS ")]
    assert len(passes) >= 10
    assert not any(line.startswith("FAIL ") for line in lines)
    assert target.read_text() == out
