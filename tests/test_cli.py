import codecs
import json

import numpy as np
import pytest

from pathweave.analysis import assortativity_scalar
from pathweave.cli import main
from pathweave.kernels import PathMatrix
from pathweave.tensor import read_triples

from conftest import FIXTURE1_TRIPLES


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fixture1.tsv"
    path.write_text(
        "# fixture\n" + "".join(f"{t}\t{l}\t{h}\n" for t, l, h in FIXTURE1_TRIPLES),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.tsv"
    path.write_text("x\tnext\ty\ny\tnext\tz\nz\tnext\tx\n", encoding="utf-8")
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_coauthorship(graph_file, capsys):
    code, out, _ = run(
        ["eval", "--graph", graph_file, "--expr", "A[authored] . A[authored]' & not(I)"],
        capsys,
    )
    assert code == 0
    assert out == "h1\th2\t1\nh2\th1\t1\n"


def test_eval_deterministic(graph_file, capsys):
    argv = ["eval", "--graph", graph_file, "--expr", "A[authored] . A[cites]", "--format", "json"]
    first = run(argv, capsys)
    second = run(argv, capsys)
    assert first == second
    assert json.loads(first[1]) == {"n": 7, "entries": [["h1", "a3", 1.0]]}


def test_missing_graph_file(capsys):
    code, _, err = run(["eval", "--graph", "/nonexistent/g.tsv", "--expr", "A[x]"], capsys)
    assert code == 2
    assert "/nonexistent/g.tsv" in err


def test_syntax_error_is_exit_2(graph_file, capsys):
    code, _, err = run(["eval", "--graph", graph_file, "--expr", "A[authored"], capsys)
    assert code == 2
    assert "syntax error" in err


def test_unknown_label_is_exit_1(graph_file, capsys):
    code, _, err = run(["eval", "--graph", graph_file, "--expr", "A[knows]"], capsys)
    assert code == 1
    assert "knows" in err


def test_eval_simplify_flag_identical_result(graph_file, capsys):
    expr = (
        "A[authored] . A[cites] . A[authored]' "
        "& not(clip(A[authored] . A[authored]' & not(I))) & not(I)"
    )
    plain_code, plain_out, _ = run(["eval", "--graph", graph_file, "--expr", expr], capsys)
    simp_code, simp_out, simp_err = run(
        ["eval", "--graph", graph_file, "--expr", expr, "--simplify"], capsys
    )
    assert plain_code == simp_code == 0
    assert plain_out == simp_out
    assert "not-masked" in simp_err  # derivation table went to stderr


def test_simplify_prints_derivation(capsys):
    code, out, _ = run(
        [
            "simplify",
            "--expr",
            "0.6 * (A[authored] . A[authored]' & not(I)) + "
            "0.4 * (A[developed] . A[developed]' & not(I))",
        ],
        capsys,
    )
    assert code == 0
    assert "had-factor" in out
    assert out.strip().endswith(
        "(0.6 * (A[authored] . A[authored]') + 0.4 * (A[developed] . A[developed]')) & not(I)"
    )


def test_pagerank_cycle_uniform(cycle_file, capsys):
    code, out, _ = run(
        [
            "pagerank",
            "--graph",
            cycle_file,
            "--delta",
            "0.85",
            "--epsilon",
            "1e-12",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    values = json.loads(out)["values"]
    assert all(abs(v - 1 / 3) < 1e-9 for v in values.values())


def test_geodesic_on_cites(graph_file, capsys):
    code, out, _ = run(
        ["geodesic", "--graph", graph_file, "--expr", "A[cites]", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert ["a1", "a3", 1] in payload["distances"]
    assert len(payload["distances"]) == 1  # unreachable pairs are absent


def test_spread(cycle_file, capsys):
    code, out, _ = run(
        [
            "spread",
            "--graph",
            cycle_file,
            "--steps",
            "0",
            "--seed",
            "x=1.0",
        ],
        capsys,
    )
    assert code == 0
    assert "x\t1\n" in out
    code, _, err = run(["spread", "--graph", cycle_file, "--steps", "2"], capsys)
    assert code == 2 and "--seed" in err
    code, _, err = run(
        ["spread", "--graph", cycle_file, "--steps", "1", "--seed", "ghost=1"], capsys
    )
    assert code == 1 and "ghost" in err


def test_spread_seeds_a_vertex_whose_name_holds_equals(tmp_path, capsys):
    graph = tmp_path / "eq.tsv"
    graph.write_text("a=b\tr\tc\nc\tr\td\n", encoding="utf-8")
    argv = ["spread", "--graph", str(graph), "--steps", "1", "--seed", "a=b=1"]
    assert run(argv, capsys) == (0, "a=b\t1\nc\t1\nd\t0\n", "")
    # a missing value still splits off an empty one
    code, _, err = run([*argv[:-1], "a=b="], capsys)
    assert code == 2 and "must be a number" in err


@pytest.mark.parametrize(
    "argv,err_line",
    [
        (["pagerank", "--epsilon", "nan"], "epsilon must be positive, got nan"),
        (
            ["spread", "--steps", "1", "--seed", "x=1", "--threshold", "nan"],
            "threshold must be nonnegative, got nan",
        ),
    ],
    ids=["pagerank-epsilon", "spread-threshold"],
)
def test_nan_analysis_parameter_is_exit_1(cycle_file, argv, err_line, capsys):
    code, out, err = run([argv[0], "--graph", cycle_file, *argv[1:]], capsys)
    assert (code, out, err) == (1, "", f"pathweave: {err_line}\n")


def test_assort_categorical(tmp_path, capsys):
    graph = tmp_path / "g.tsv"
    graph.write_text("a\tknows\tb\nb\tknows\ta\nc\tknows\td\nd\tknows\tc\n")
    props = tmp_path / "p.tsv"
    props.write_text("a\tred\nb\tred\nc\tblue\nd\tblue\n")
    code, out, _ = run(
        [
            "assort",
            "--graph",
            str(graph),
            "--property",
            str(props),
            "--kind",
            "categorical",
        ],
        capsys,
    )
    assert code == 0
    assert out == "#r\t1\n"


def test_assort_scalar_needs_values_only_on_paths(tmp_path, capsys):
    graph = tmp_path / "g.tsv"
    graph.write_text(
        "h1\tauthored\ta1\nh2\tauthored\ta1\nh3\tauthored\ta1\n"
        "h2\tauthored\ta2\nh3\tauthored\ta2\n"
    )
    argv = ["assort", "--graph", str(graph), "--expr", "A[authored] . A[authored]' & not(I)"]
    props = tmp_path / "p.tsv"
    # a1 and a2 have no value, and start and end no coauthor path
    props.write_text("h1\t0\nh2\t1\nh3\t1\n")
    code, out, err = run(argv + ["--property", str(props), "--kind", "scalar"], capsys)
    coauthors = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    r = assortativity_scalar(PathMatrix.from_dense(coauthors), [0.0, 1.0, 1.0])
    assert (code, err) == (0, "")
    assert out == f"#r\t{format(r, '.12g')}\n" == "#r\t-0.333333333333\n"
    # h3 ends (and starts) paths
    props.write_text("h1\t0\nh2\t1\n")
    code, out, err = run(argv + ["--property", str(props), "--kind", "scalar"], capsys)
    assert (code, out) == (1, "")
    assert "missing" in err and "Traceback" not in err


def test_load_check_reports_signature(tmp_path, graph_file, capsys):
    sigs = tmp_path / "sigs.tsv"
    sigs.write_text("authored\tH\tA\ncites\tA\tA\ncontains\tJ\tA\ncategory\tJ\tS\n")
    code, out, _ = run(
        [
            "load-check",
            "--graph",
            graph_file,
            "--signatures",
            str(sigs),
            "--expr",
            "A[authored] . A[cites] . A[authored]'",
        ],
        capsys,
    )
    assert code == 0
    assert "vertices\t7" in out
    assert "labels\t4" in out
    assert "signature\tH\tH\tok" in out


def test_load_check_flags_violation(tmp_path, graph_file, capsys):
    sigs = tmp_path / "sigs.tsv"
    sigs.write_text("authored\tH\tA\ncites\tA\tA\n")
    code, out, _ = run(
        [
            "load-check",
            "--graph",
            graph_file,
            "--signatures",
            str(sigs),
            "--expr",
            "A[cites] . A[authored]",
        ],
        capsys,
    )
    assert code == 0
    assert "violations" in out
    assert "expected A" in out and "found H" in out


def test_load_check_long_chain(tmp_path, graph_file, capsys):
    sigs = tmp_path / "sigs.tsv"
    sigs.write_text("cites\tA\tA\n")
    chain = " . ".join(["A[cites]"] * 3000)
    code, out, _ = run(
        ["load-check", "--graph", graph_file, "--signatures", str(sigs), "--expr", chain],
        capsys,
    )
    assert code == 0
    assert "\nsignature\tA\tA\tok\n" in out


def test_expr_file_with_let(tmp_path, graph_file, capsys):
    f = tmp_path / "expr.pw"
    f.write_text("# coauthors\nlet co = A[authored] . A[authored]' & not(I)\nlet z = clip(co)\n")
    code, out, _ = run(["eval", "--graph", graph_file, "--expr-file", str(f)], capsys)
    assert code == 0
    assert out == "h1\th2\t1\nh2\th1\t1\n"


def test_multi_label_graph_requires_expr(graph_file, capsys):
    code, _, err = run(["pagerank", "--graph", graph_file], capsys)
    assert code == 2
    assert "--expr" in err


def test_thread_cap_env(monkeypatch, graph_file, capsys):
    monkeypatch.setenv("PATHWEAVE_THREADS", "4")
    code, _, _ = run(["eval", "--graph", graph_file, "--expr", "A[cites]"], capsys)
    assert code == 0


def test_deep_input_evaluates(tmp_path, graph_file, capsys):
    # this was exit 1, "input is nested too deeply to process"
    path = tmp_path / "deep.pw"
    path.write_text("clip(" * 2000 + "A[authored]" + ")" * 2000, encoding="utf-8")
    code, out, err = run(["eval", "--graph", graph_file, "--expr-file", str(path)], capsys)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(["eval", "--graph", graph_file, "--expr", "A[authored]"], capsys)


def test_single_label_default_is_the_label_as_written(tmp_path, capsys):
    # the default was parsed from `A[label]`, which fails for a label that
    # is not an identifier
    path = tmp_path / "typed.tsv"
    path.write_text("h1\trdf:type\tPerson\nh2\trdf:type\tPerson\n", encoding="utf-8")
    code, out, err = run(["eval", "--graph", str(path)], capsys)
    assert (code, err) == (0, "")
    assert out == "h1\tPerson\t1\nh2\tPerson\t1\n"


def test_simplify_prints_a_long_product_chain(capsys):
    # 3000 factors nest 2999 levels deep; this was exit 1, "nested too deeply"
    chain = " . ".join(["A[x]"] * 2999)
    code, out, err = run(["simplify", "--expr", "I . " + chain], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1] == chain
    assert [line[:2] for line in lines[:-1]] == ["  ", "= "]
    assert lines[1].rstrip().endswith("| matmul-identity-left: I . A = A")


def test_out_of_memory_is_exit_1(monkeypatch, graph_file, capsys):
    import pathweave.cli as cli

    def exhausted(args, out):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_eval", exhausted)
    code, out, err = run(["eval", "--graph", graph_file], capsys)
    assert code == 1
    assert out == ""
    assert err == "pathweave: out of memory\n"


def test_geodesic_on_an_order_8000_graph(tmp_path, capsys):
    # 4000 disjoint edges: a dense 8000 x 8000 distance matrix would pass
    # DENSIFY_LIMIT, but only 4000 pairs are reached
    from test_writers import reference_geodesic

    path = tmp_path / "wide.tsv"
    path.write_text("".join(f"v{i}\tr\tv{i + 4000}\n" for i in range(4000)), encoding="utf-8")
    names = read_triples(str(path)).vertices.names
    ids = {name: i for i, name in enumerate(names)}
    reached = [{} for _ in names]
    for i in range(4000):
        reached[ids[f"v{i}"]][ids[f"v{i + 4000}"]] = 1
    want_tsv, want_json = reference_geodesic(reached, names)
    assert run(["geodesic", "--graph", str(path)], capsys) == (0, want_tsv, "")
    assert run(["geodesic", "--graph", str(path), "--format", "json"], capsys) == (0, want_json, "")
    assert want_tsv.count("\nd\t") == 4000


def test_geodesic_refuses_reached_pairs_past_limit(monkeypatch, cycle_file, capsys):
    import pathweave.analysis as analysis_mod

    monkeypatch.setattr(analysis_mod, "DENSIFY_LIMIT", 5)
    code, out, err = run(["geodesic", "--graph", cycle_file], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("pathweave: ") and err.count("\n") == 1
    assert "reach at least 6 pairs" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--graph", "{graph}", "--expr="],
        ["load-check", "--graph", "{graph}", "--expr="],
        ["simplify", "--expr="],
    ],
    ids=lambda argv: argv[0],
)
def test_empty_expression_is_a_syntax_error(cycle_file, argv, capsys):
    # an empty --expr is given, not absent: the one-label graph's slice is
    # not the default, and load-check does not skip it
    code, _, err = run([arg.format(graph=cycle_file) for arg in argv], capsys)
    assert code == 2
    assert err.startswith("pathweave: ") and err.count("\n") == 1
    assert "empty expression" in err


def test_empty_expression_and_a_file_are_both_given(tmp_path, cycle_file, capsys):
    path = tmp_path / "e.pw"
    path.write_text("A[next]", encoding="utf-8")
    for command in (["eval", "--graph", cycle_file], ["simplify"]):
        code, _, err = run([*command, "--expr=", "--expr-file", str(path)], capsys)
        assert code == 2 and "not both" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["load-check", "--graph", "g.tsv", "--format", "json"],
        ["simplify", "--expr", "A[x]", "--format", "json"],
        ["eval", "--graph", "g.tsv", "--signatures", "s.tsv"],
        ["pagerank", "--graph", "g.tsv", "--signatures", "s.tsv"],
        ["geodesic", "--graph", "g.tsv", "--signatures", "s.tsv"],
        ["spread", "--graph", "g.tsv", "--steps", "1", "--signatures", "s.tsv"],
        ["assort", "--graph", "g.tsv", "--property", "p.tsv", "--kind", "scalar",
         "--signatures", "s.tsv"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_options_that_no_command_reads_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expr,named",
    [("A[nosuch] . R(nobody)", "nosuch"), ("A[cites] & R(nobody)", "nobody")],
    ids=["label", "vertex"],
)
def test_load_check_refuses_what_eval_cannot_evaluate(graph_file, expr, named, capsys):
    for command in ("load-check", "eval"):
        code, _, err = run([command, "--graph", graph_file, "--expr", expr], capsys)
        assert code == 1, command
        assert err.startswith("pathweave: ") and err.count("\n") == 1
        assert named in err


def test_a_product_past_the_entry_limit_fails_eval_but_not_pagerank(tmp_path, monkeypatch, capsys):
    import pathweave.kernels as K

    # one article with 200 authors: 40000 coauthor entries
    path = tmp_path / "big.tsv"
    path.write_text("".join(f"h{i}\tauthored\ta1\n" for i in range(200)), encoding="utf-8")
    monkeypatch.setattr(K, "DENSIFY_LIMIT", 1000)
    argv = ["--graph", str(path), "--expr", "A[authored] . A[authored]' & not(I)"]
    code, out, err = run(["eval", *argv], capsys)
    assert code == 1 and out == ""
    assert err.startswith("pathweave: ") and err.count("\n") == 1
    assert "more than 1000 entries" in err
    # PageRank reads the product from its factors and never builds it
    code, out, err = run(["pagerank", *argv], capsys)
    assert code == 0 and err == ""
    ranks = [float(line.split("\t")[1]) for line in out.splitlines()]
    assert len(ranks) == 201 and sum(ranks) == pytest.approx(1.0, abs=1e-9)


def test_load_check_notes_not_over_an_operand_that_may_not_be_boolean(graph_file, capsys):
    expr = "not(A[authored] . A[authored]') & not(clip(A[authored] . A[authored]')) & not(I)"
    code, out, _ = run(["load-check", "--graph", graph_file, "--expr", expr], capsys)
    assert code == 0
    notes = [line for line in out.splitlines() if line.startswith("note\t")]
    assert notes == ["note\tnot(A[authored] . A[authored]')\toperand may not be {0,1}"]
    # eval refuses it on this data: h1 coauthors with itself twice
    code, _, err = run(["eval", "--graph", graph_file, "--expr", expr], capsys)
    assert code == 1 and "not requires a {0,1} matrix" in err


@pytest.mark.parametrize("kind", ["graph", "signatures", "property", "expr-file"])
def test_a_file_that_is_not_utf8_is_exit_2(tmp_path, graph_file, kind, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"h1\tauthored\ta\xe91\n")
    argv = {
        "graph": ["load-check", "--graph", str(bad)],
        "signatures": ["load-check", "--graph", graph_file, "--signatures", str(bad)],
        "property": [
            "assort", "--graph", graph_file, "--expr", "A[authored]",
            "--kind", "categorical", "--property", str(bad),
        ],
        "expr-file": ["eval", "--graph", graph_file, "--expr-file", str(bad)],
    }[kind]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"pathweave: {bad}: not UTF-8 at byte offset 13 (invalid continuation byte)\n"


def test_a_byte_order_mark_is_not_part_of_the_first_name(tmp_path, capsys):
    graph = "h1\tauthored\ta1\nh1\tcites\th2\n"
    reports = []
    for head in (b"", codecs.BOM_UTF8):
        (tmp_path / "g.tsv").write_bytes(head + graph.encode("utf-8"))
        (tmp_path / "e.pw").write_bytes(head + b"A[authored] . A[cites]'")
        argv = ["load-check", "--graph", str(tmp_path / "g.tsv")]
        reports.append(run(argv + ["--expr-file", str(tmp_path / "e.pw")], capsys))
    assert reports[0] == reports[1]
    assert reports[0] == (
        0,
        "vertices\t3\nlabels\t2\nslice\tauthored\t1\nslice\tcites\t1\n"
        "expression\tA[authored] . A[cites]'\nsignature\t?\t?\tok\n",
        "",
    )
