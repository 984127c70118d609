import base64
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from isoreduce import (DeltaError, GraphDelta, DeltaOp, GraphFormatError, MarkovChain,
                       StoredState, WeightedDigraph, random_delta,
                       random_stochastic_graph, run_update, validate_structural)
from isoreduce import io as iio
from isoreduce.cli import main

THREE_CYCLE_EDGELIST = "N 3\n1 2 1.0\n2 3 1.0\n3 1 1.0\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_edgelist_roundtrip(tmp_path):
    g = WeightedDigraph.from_edges(3, [(1, 2, 0.5 + 0.25j), (2, 3, 1.0), (3, 1, 1.0)])
    path = write(tmp_path, "g.txt", iio.render_edgelist(g))
    back = iio.read_graph(path)
    assert back.weights == g.weights
    assert back.n_vertices == 3


def test_json_roundtrip_preserves_flags(tmp_path):
    g = random_stochastic_graph(6, 2.5, np.random.default_rng(70))
    path = write(tmp_path, "g.json", iio.dumps(iio.graph_to_dict(g)))
    back = iio.read_graph(path)
    assert back.stochastic
    assert back.weights == g.weights
    cycle = [[1, 2, 1.0], [2, 1, 1.0]]
    for bad in ([], {"n": True, "edges": []}, {"n": 2, "edges": cycle, "stochastic": "no"},
                {"n": 2, "edges": cycle, "stochastic": None}):
        with pytest.raises(GraphFormatError):
            iio.graph_from_dict(bad)


def test_non_finite_weight_fails_to_load(tmp_path):
    for text in ("N 2\n1 2 nan\n2 1 1.0\n", "N 2\n1 2 1.0\n2 1 inf\n",
                 "N 2\n1 2 1.0 nan\n2 1 1.0\n"):
        with pytest.raises(GraphFormatError, match="non-finite weight"):
            iio.read_graph(write(tmp_path, "bad.txt", text))
    # json.dumps writes a bare NaN literal, which json.loads reads back as a float
    with pytest.raises(GraphFormatError, match="non-finite weight"):
        iio.read_graph(write(tmp_path, "bad.json",
                             json.dumps({"n": 2, "edges": [[1, 2, float("nan")], [2, 1, 1.0]]})))
    with pytest.raises(GraphFormatError, match="not a number"):
        iio.read_graph(write(tmp_path, "bad.json",
                             json.dumps({"n": 2, "edges": [[1, 2, "nan"], [2, 1, 1.0]]})))


def test_json_graph_weight_must_be_a_number():
    for entry in ([1, 2, "1"], [1, 2, True], [1, 2, "1", 0.0], [1, 2, True, 0.0],
                  [1, 2, 1.0, "0"], [1, 2, 1.0, False], [1, 2, None]):
        with pytest.raises(GraphFormatError, match="not a number"):
            iio.graph_from_dict({"n": 2, "edges": [entry, [2, 1, 1.0]]})
    assert iio.graph_from_dict({"n": 2, "edges": [[1, 2, 1], [2, 1, 0.5, 0]]}).weights == \
        {(1, 2): 1.0, (2, 1): 0.5}


def test_edgelist_format_errors(tmp_path):
    for text in ("", "3\n1 2 1.0\n", "N x\n", "N 3\n1 2\n", "N 3\n1 2 1.0\n1 2 2.0\n"):
        with pytest.raises(GraphFormatError):
            iio.read_graph(write(tmp_path, "bad.txt", text))
    with pytest.raises(GraphFormatError):
        iio.read_graph(write(tmp_path, "bad.json", "{"))


def test_delta_roundtrip(tmp_path):
    delta = GraphDelta((DeltaOp.add_edge(1, 2, 0.5), DeltaOp.remove_edge(2, 3),
                        DeltaOp.add_vertex(), DeltaOp.remove_vertex(4)))
    path = str(tmp_path / "d.json")
    iio.write_delta(delta, path)
    assert iio.read_delta(path) == delta


#: The README's delta example as ``write_delta`` renders it.
DELTA_FILE = """\
{
  "ops": [
    {
      "i": 3,
      "j": 2,
      "op": "add_edge",
      "w": 0.5
    },
    {
      "op": "add_vertex"
    },
    {
      "op": "remove_vertex",
      "v": 4
    },
    {
      "i": 1,
      "j": 2,
      "op": "remove_edge"
    }
  ]
}
"""


def test_delta_file_format_is_pinned():
    delta = GraphDelta((DeltaOp.add_edge(3, 2, 0.5), DeltaOp.add_vertex(),
                        DeltaOp.remove_vertex(4), DeltaOp.remove_edge(1, 2)))
    assert iio.dumps(iio.delta_to_dict(delta)) == DELTA_FILE
    assert iio.delta_from_dict(json.loads(DELTA_FILE)) == delta
    # an integer-valued float is read as that integer id
    back = iio.delta_from_dict({"ops": [{"op": "remove_edge", "i": 1.0, "j": 2}]})
    assert back == GraphDelta((DeltaOp.remove_edge(1, 2),)) and type(back.ops[0].i) is int


def test_read_delta_rejects_malformed_files(tmp_path, capsys):
    for text in ('{}', '{"ops": 5}', '{"ops": [{"op": "flip"}]}',
                 '{"ops": [{"op": "add_edge", "i": 1, "j": 2}]}',
                 '{"ops": [{"op": "add_edge", "i": 1, "j": 2, "w": "x"}]}',
                 '{"ops": [{"op": "add_edge", "i": Infinity, "j": 2, "w": 0.5}]}',
                 '{"ops": [{"op": "remove_vertex", "v": -Infinity}]}',
                 '{"ops": [{"op": "remove_edge", "i": 1.5, "j": 2}]}',
                 '{"ops": [{"op": "remove_vertex", "v": "4"}]}',
                 '{"ops": [{"op": "remove_vertex", "v": true}]}',
                 '[{"op": "remove_vertex", "v": 1}]'):
        with pytest.raises(GraphFormatError):
            iio.read_delta(write(tmp_path, "d.json", text))
    for text in ("{}", '{"ops": [{"op": "remove_vertex", "v": Infinity}]}',
                 '{"ops": [{"op": "remove_edge", "i": 1.5, "j": 2}]}',
                 '{"ops": [{"op": "remove_vertex", "v": true}]}'):
        code = main(["update", "--state", _saved_state(tmp_path),
                     "--delta", write(tmp_path, "d.json", text)])
        assert code == 2
    capsys.readouterr()


def test_vector_roundtrip(tmp_path):
    payload = iio.vector_to_dict([1, 3, 5], np.array([1.0, 0.5j, -2.0]),
                                 "L2-unit", 2.5 + 1j)
    path = write(tmp_path, "v.json", iio.dumps(payload))
    vertices, values, norm, lam = iio.read_vector(path)
    assert vertices == [1, 3, 5]
    assert np.allclose(values, [1.0, 0.5j, -2.0])
    assert norm == "L2-unit"
    assert lam == 2.5 + 1j
    for bad in ("Infinity", "true"):
        with pytest.raises(GraphFormatError):
            iio.read_vector(write(tmp_path, "v.json",
                                  f'{{"vertices": [{bad}], "values": [[1.0, 0.0]]}}'))


def test_state_roundtrip(tmp_path):
    g = random_stochastic_graph(8, 2.5, np.random.default_rng(71))
    state = StoredState.from_graph(g)
    iio.save_state(state, str(tmp_path / "st"))
    back = iio.load_state(str(tmp_path / "st"))
    assert back.graph.weights == state.graph.weights
    assert back.structural.members == state.structural.members
    assert back.branches.branches == state.branches.branches
    assert np.array_equal(back.columns, state.columns)
    assert np.array_equal(back.full_vector, state.full_vector)


def test_cli_reduce_fixture(tmp_path, capsys):
    path = write(tmp_path, "cycle.txt", THREE_CYCLE_EDGELIST)
    code = main(["reduce", "--graph", path, "--structural", "1", "--lam", "2",
                 "--lengths"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    assert got["members"] == [1]
    assert got["reduced"] == [[[0.25, 0.0]]]
    assert got["by_length"]["3"] == [[[0.25, 0.0]]]
    assert got["n_branches"] == 6


def test_cli_reduce_extended_requires_stochastic(tmp_path, capsys):
    path = write(tmp_path, "cycle.txt", THREE_CYCLE_EDGELIST)
    code = main(["reduce", "--graph", path, "--structural", "1", "--lam", "1",
                 "--extended"])
    assert code == 2
    code = main(["reduce", "--graph", path, "--structural", "1", "--lam", "1",
                 "--extended", "--stochastic"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    assert got["extended"][0] == [1.0, 1.0, 1.0]


def test_cli_lift(tmp_path, capsys):
    graph_path = write(tmp_path, "cycle.txt", THREE_CYCLE_EDGELIST)
    vec_path = write(tmp_path, "v.json",
                     iio.dumps(iio.vector_to_dict([1], [1.0], "none", 1.0)))
    code = main(["lift", "--graph", graph_path, "--structural", "1",
                 "--lam", "1", "--vector", vec_path])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    assert got["values"] == [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
    assert got["residual"] < 1e-12


#: Vertex 2 has a loop of weight 0.5, so a lift over {1} depends on lambda.
LOOP_PAIR_EDGELIST = "N 2\n1 2 1.0\n2 1 1.0\n2 2 0.5\n"


def test_cli_lift_keeps_a_stored_zero_lambda(tmp_path, capsys):
    graph_path = write(tmp_path, "g.txt", LOOP_PAIR_EDGELIST)
    vec_path = write(tmp_path, "v.json",
                     iio.dumps(iio.vector_to_dict([1], [1.0], "none", 0.0)))
    assert main(["lift", "--graph", graph_path, "--structural", "1",
                 "--vector", vec_path]) == 0
    got = json.loads(capsys.readouterr().out)
    # x_2 = a_21 x_1 / (lambda - a_22) = 1 / (0 - 0.5)
    assert got["values"] == [[1.0, 0.0], [-2.0, 0.0]]
    assert got["lambda"] == [0.0, 0.0]


def test_cli_lift_refuses_non_finite_vector_files(tmp_path, capsys):
    graph_path = write(tmp_path, "g.txt", LOOP_PAIR_EDGELIST)
    for text in ('{"vertices": [1], "values": [[NaN, 0]]}',
                 '{"vertices": [1], "values": [[1, Infinity]]}',
                 '{"vertices": [1], "values": [[1, 0]], "lambda": [NaN, 0]}'):
        vec_path = write(tmp_path, "v.json", text)
        with pytest.raises(GraphFormatError):
            iio.read_vector(vec_path)
        assert main(["lift", "--graph", graph_path, "--structural", "1",
                     "--vector", vec_path]) == 2
    capsys.readouterr()


def test_cli_update_and_verify_state(tmp_path, capsys):
    g = random_stochastic_graph(9, 2.5, np.random.default_rng(72))
    state = StoredState.from_graph(g)
    state_dir = str(tmp_path / "st")
    iio.save_state(state, state_dir)
    delta = random_delta(g, np.random.default_rng(73), 2)
    delta_path = str(tmp_path / "d.json")
    iio.write_delta(delta, delta_path)
    out_dir = str(tmp_path / "st2")
    code = main(["update", "--state", state_dir, "--delta", delta_path,
                 "--ell", "400", "--save", out_dir])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["costs"]["baseline"] == 400 * report["measurements"]["n"] ** 3
    code = main(["verify", "--rounds", "1", "--state", out_dir])
    assert code == 0
    capsys.readouterr()


def test_cli_update_refuses_ell_below_one_and_saves_nothing(tmp_path, capsys):
    g = random_stochastic_graph(9, 2.5, np.random.default_rng(72))
    state_dir = str(tmp_path / "st")
    iio.save_state(StoredState.from_graph(g), state_dir)
    delta_path = str(tmp_path / "d.json")
    iio.write_delta(random_delta(g, np.random.default_rng(73), 2), delta_path)
    for ell in ("0", "-5"):
        out_dir = tmp_path / f"st{ell}"
        assert main(["update", "--state", state_dir, "--delta", delta_path,
                     f"--ell={ell}", "--save", str(out_dir)]) == 2
        assert not out_dir.exists()
        assert "ell must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["nan", "1,nan", "nan,0", "inf", "-inf", "0,inf"])
def test_cli_refuses_a_non_finite_lambda(tmp_path, capsys, lam):
    graph_path = write(tmp_path, "g.txt", LOOP_PAIR_EDGELIST)
    vec_path = write(tmp_path, "v.json", iio.dumps(iio.vector_to_dict([1], [1.0], "none", 0.0)))
    for argv in (["reduce", "--graph", graph_path],
                 ["lift", "--graph", graph_path, "--vector", vec_path]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--structural", "1", f"--lam={lam}"])
        assert info.value.code == 2
    assert "expected finite RE or RE,IM" in capsys.readouterr().err


def test_cli_simulate(tmp_path, capsys):
    g = random_stochastic_graph(6, 2.5, np.random.default_rng(74))
    path = str(tmp_path / "g.json")
    iio.write_graph(g, path)
    code = main(["simulate", "--graph", path, "--steps", "20000", "--seed", "5"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    emp = np.array(got["empirical"])
    exp = np.array(got["expected"])
    assert emp.shape == exp.shape
    assert np.abs(emp - exp).max() < 0.05


def test_cli_refuses_counts_that_check_nothing(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    iio.write_graph(random_stochastic_graph(6, 2.5, np.random.default_rng(74)), path)
    for args in (["bench", "--n", "10", "--trials", "1", "--avg-degree", "nan"],
                 ["bench", "--n", "10", "--trials", "1", "--avg-degree", "inf"],
                 ["verify", "--rounds", "0"], ["verify", "--rounds", "-1"],
                 ["simulate", "--graph", path, "--steps", "0"],
                 ["simulate", "--graph", path, "--steps", "-5"]):
        assert main(args) == 2, args
        assert capsys.readouterr().out == "", args


#: Column sums 0.9999999999: stochastic for a graph (1e-9), not for a
#: transition matrix given directly (1e-12).
NEAR_STOCHASTIC_EDGELIST = ("N 4\n2 1 0.3333333333\n3 1 0.3333333333\n4 1 0.3333333333\n"
                            "1 2 1.0\n2 3 1.0\n3 4 1.0\n")


def test_graph_stochastic_within_graph_tolerance_is_a_chain(tmp_path, capsys):
    path = write(tmp_path, "g4.txt", NEAR_STOCHASTIC_EDGELIST)
    chain = MarkovChain.from_stochastic_graph(iio.read_graph(path, stochastic=True))
    assert np.abs(chain.transition.sum(axis=1) - 1.0).max() <= 1e-15
    assert main(["simulate", "--graph", path, "--steps", "2000"]) == 0
    capsys.readouterr()
    assert main(["verify", "--rounds", "1", "--graphs", path]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks[f"graph-file:{path}"]["passed"] is True


def test_cli_bench_deterministic_reports(tmp_path):
    args = ["bench", "--n", "8", "--avg-degree", "2.5", "--p", "1",
            "--ell", "10", "--trials", "3", "--seed", "9"]
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_cli_bench_checks_equivalence_by_the_api_default(capsys):
    """Without --check-equivalence a small bench checks scratch equivalence,
    as ``run_experiment`` does when asked nothing; a larger one does not."""
    for n, expected in (("10", True), ("16", None)):
        assert main(["bench", "--n", n, "--trials", "2"]) == 0
        trials = json.loads(capsys.readouterr().out)["trials"]
        assert [t["equivalence_ok"] for t in trials] == [expected] * 2


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["reduce", "--graph", str(tmp_path / "missing.txt")]) == 2
    bad = write(tmp_path, "bad.txt", "not a graph\n")
    assert main(["reduce", "--graph", bad]) == 2
    # an explicit empty member list is refused, not searched
    graph_path = write(tmp_path, "cycle.txt", THREE_CYCLE_EDGELIST)
    vec_path = write(tmp_path, "v.json", iio.dumps(iio.vector_to_dict([1], [1.0], "none", 1.0)))
    capsys.readouterr()
    for argv in (["reduce", "--graph", graph_path],
                 ["lift", "--graph", graph_path, "--vector", vec_path],
                 ["simulate", "--graph", graph_path, "--steps", "10"]):
        for empty in ("", ","):
            assert main(argv + ["--structural", empty]) == 2, (argv, empty)
            assert "structural set must be nonempty" in capsys.readouterr().err


def test_cli_takes_each_common_flag_only_on_the_commands_that_read_it(tmp_path, capsys):
    path = write(tmp_path, "cycle.txt", THREE_CYCLE_EDGELIST)
    for argv in (["--tol", "1e-6", "reduce", "--graph", path],
                 ["reduce", "--graph", path, "--seed", "1"],
                 ["bench", "--n", "8", "--trials", "1", "--tol", "1e-3"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    assert main(["reduce", "--graph", path, "--tol", "1e-10", "--format", "table"]) == 0
    capsys.readouterr()


def test_cli_verify_failure_exit_code(tmp_path, capsys):
    g = random_stochastic_graph(8, 2.5, np.random.default_rng(75))
    state = StoredState.from_graph(g)
    where = tmp_path / "st"
    iio.save_state(state, str(where))
    _rewrite(str(where), lambda d: d["full_vector"].__setitem__(0, d["full_vector"][0] + 0.5))
    code = main(["verify", "--rounds", "1", "--state", str(where)])
    assert code == 1
    capsys.readouterr()


def test_cli_env_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ISOREDUCE_TOL", "1e-6")
    from isoreduce.cli import build_parser
    args = build_parser().parse_args(["reduce", "--graph", "x"])
    assert args.tol == 1e-6
    monkeypatch.setenv("ISOREDUCE_TOL", "0")
    assert build_parser().parse_args(["lift", "--graph", "x", "--vector", "v"]).tol == 0.0
    # A bad value is a usage error on the commands that read it, and only
    # when no --tol is given; verify and bench never read it.
    for value in ("abc", "nan", "inf", "-inf", "-1", "1e400"):
        monkeypatch.setenv("ISOREDUCE_TOL", value)
        for argv in (["reduce", "--graph", "x"], ["lift", "--graph", "x", "--vector", "v"],
                     ["update", "--state", "s", "--delta", "d"], ["simulate", "--graph", "x"]):
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(argv)
            assert info.value.code == 2
        assert build_parser().parse_args(["reduce", "--graph", "x", "--tol", "1e-9"]).tol == 1e-9
        assert build_parser().parse_args(["verify", "--rounds", "1"]).rounds == 1
        assert build_parser().parse_args(["bench", "--trials", "1"]).trials == 1
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["reduce", "--graph", "x", "--tol", "-1"])
    assert info.value.code == 2
    capsys.readouterr()
    monkeypatch.delenv("ISOREDUCE_TOL")


def test_cli_table_format(tmp_path, capsys):
    path = write(tmp_path, "cycle.txt", THREE_CYCLE_EDGELIST)
    code = main(["reduce", "--graph", path, "--structural", "1", "--lam", "2",
                 "--format", "table"])
    assert code == 0
    text = capsys.readouterr().out
    assert "members:" in text and "reduced:" in text


def _saved_state(tmp_path):
    g = random_stochastic_graph(8, 2.5, np.random.default_rng(72))
    path = str(tmp_path / "st")
    iio.save_state(StoredState.from_graph(g), path)
    return path


#: The base64 arrays of a state file and the dtype of their bytes.
STATE_ARRAYS = {"tails": "<i8", "heads": "<i8", "weights": "<f8",
                "reduced_vector": "<f8", "full_vector": "<f8"}


def _encode(values, dtype):
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode("ascii")


def _decode(text, dtype):
    return np.frombuffer(base64.b64decode(text, validate=True), dtype)


def _rewrite(path, change):
    """Apply ``change`` to a state file's document with its arrays decoded
    into lists; each array that is still a list is encoded again."""
    with open(f"{path}/state.json", encoding="utf-8") as fh:
        data = json.load(fh)
    for key, dtype in STATE_ARRAYS.items():
        data[key] = _decode(data[key], dtype).tolist()
    change(data)
    for key, dtype in STATE_ARRAYS.items():
        if isinstance(data.get(key), list):
            data[key] = _encode(data[key], dtype)
    with open(f"{path}/state.json", "w", encoding="utf-8") as fh:
        fh.write(iio.dumps(data))


def _text_layout(state) -> str:
    """``state.json`` as earlier saves wrote ``state``: its graph as a JSON
    graph object and its vectors as JSON numbers."""
    return json.dumps({"graph": iio.graph_to_dict(state.graph),
                       "members": list(state.structural.members),
                       "reduced_vector": state.reduced_vector.tolist(),
                       "full_vector": state.full_vector.tolist(),
                       "eig_converged": state.eig_converged},
                      sort_keys=True, separators=(",", ":")) + "\n"


def test_state_directory_holds_no_branch_list(tmp_path):
    path = _saved_state(tmp_path)
    assert not (tmp_path / "st" / "branches.json").exists()
    assert iio.load_state(path).branches.branches


def test_state_directory_holds_only_what_cannot_be_recomputed(tmp_path):
    path = _saved_state(tmp_path)
    assert [p.name for p in (tmp_path / "st").iterdir()] == ["state.json"]
    doc = json.loads((tmp_path / "st" / "state.json").read_text())
    assert doc.keys() == {"eig_converged", "full_vector", "heads", "members", "n",
                          "reduced_vector", "removed", "tails", "weights"}
    # the arrays are the graph's edge arrays and the vectors, byte for byte
    state = iio.load_state(path)
    stored = dict(zip(STATE_ARRAYS, (*state.graph.edge_arrays, state.reduced_vector,
                                     state.full_vector)))
    for key, dtype in STATE_ARRAYS.items():
        assert _decode(doc[key], dtype).tobytes() == stored[key].astype(dtype).tobytes()
    assert doc["n"] == state.graph.n_vertices and doc["removed"] == []
    assert doc["members"] == list(state.structural.members)


def test_load_state_rebuilds_extended_after_vertex_removal(tmp_path):
    g = random_stochastic_graph(10, 2.5, np.random.default_rng(73))
    state = StoredState.from_graph(g)
    for v in g.vertices():
        try:
            state2, _ = run_update(state, GraphDelta((DeltaOp.remove_vertex(v),)))
            break
        except DeltaError:
            continue
    assert state2.graph.removed
    path = str(tmp_path / "st")
    iio.save_state(state2, path)
    back = iio.load_state(path)
    assert np.array_equal(back.columns, state2.columns)
    assert back.structural.members == state2.structural.members
    assert back.structural.depth_of == state2.structural.depth_of
    assert np.array_equal(back.reduced_vector, state2.reduced_vector)
    assert np.array_equal(back.full_vector, state2.full_vector)


def test_failed_save_leaves_the_previous_directory(tmp_path, monkeypatch):
    rng = np.random.default_rng(74)
    state = StoredState.from_graph(random_stochastic_graph(8, 2.5, rng))
    other = StoredState.from_graph(random_stochastic_graph(9, 2.5, rng))
    path = tmp_path / "st"
    iio.save_state(state, str(path))
    before = {f.name: f.read_bytes() for f in path.iterdir()}
    write_json = iio._write_json

    def write_then_fail(where, obj):
        write_json(where, obj)
        raise OSError("disk full")

    def fail(src, dst):
        raise OSError("disk full")

    # a failure after the temp file is written, and one at the rename itself
    for module, name, failing in ((iio, "_write_json", write_then_fail), (os, "replace", fail)):
        monkeypatch.setattr(module, name, failing)
        for target in (path, tmp_path / "absent"):
            with pytest.raises(OSError, match="disk full"):
                iio.save_state(other, str(target))
        monkeypatch.undo()
        assert {f.name: f.read_bytes() for f in path.iterdir()} == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["st"]
    iio.save_state(other, str(path))
    back = iio.load_state(str(path))
    assert back.graph == other.graph and np.array_equal(back.full_vector, other.full_vector)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["st"]


def test_save_state_overwrites_only_state_directories(tmp_path, capsys):
    rng = np.random.default_rng(75)
    state = StoredState.from_graph(random_stochastic_graph(8, 2.5, rng))
    notes = tmp_path / "results"
    notes.mkdir()
    (notes / "notes.txt").write_text("keep me")
    loose = write(tmp_path, "loose.txt", "keep me too")
    for target in (notes, loose):
        with pytest.raises(FileExistsError, match="not a state directory"):
            iio.save_state(state, str(target))
    assert [f.name for f in notes.iterdir()] == ["notes.txt"]
    assert (notes / "notes.txt").read_text() == "keep me"
    assert Path(loose).read_text(encoding="utf-8") == "keep me too"
    # The CLI reports the refusal and still leaves the directory alone.
    g = random_stochastic_graph(9, 2.5, rng)
    state_dir = str(tmp_path / "st")
    iio.save_state(StoredState.from_graph(g), state_dir)
    delta_path = str(tmp_path / "d.json")
    iio.write_delta(random_delta(g, rng, 2), delta_path)
    code = main(["update", "--state", state_dir, "--delta", delta_path, "--save", str(notes)])
    assert code == 2 and "not a state directory" in capsys.readouterr().err
    assert [f.name for f in notes.iterdir()] == ["notes.txt"]
    # An empty directory may be overwritten, and a link to a state directory
    # is saved through.
    empty = tmp_path / "empty"
    empty.mkdir()
    (tmp_path / "link").symlink_to(empty)
    for target in ("empty", "link"):
        iio.save_state(state, str(tmp_path / target))
        back = iio.load_state(str(tmp_path / target))
        assert back.graph == state.graph
        assert np.array_equal(back.full_vector, state.full_vector)
    assert [f.name for f in empty.iterdir()] == ["state.json"]
    assert (tmp_path / "link").is_symlink()
    assert not [f.name for f in tmp_path.iterdir() if f.name.startswith(".")]


def test_five_file_layout_of_older_saves_is_refused(tmp_path, capsys):
    path = _saved_state(tmp_path)
    state = iio.load_state(path)
    members = list(state.structural.members)
    older = tmp_path / "older"
    older.mkdir()
    for name, part in (("graph.json", iio.graph_to_dict(state.graph)),
                       ("structural.json", {"members": members}),
                       ("reduced_vector.json", {"vertices": members,
                                                "values": [[x, 0.0] for x in state.reduced_vector]}),
                       ("full_vector.json", {"values": state.full_vector.tolist()}),
                       ("meta.json", {"eig_converged": state.eig_converged})):
        (older / name).write_text(json.dumps(part))
    before = {f.name: f.read_bytes() for f in older.iterdir()}
    with pytest.raises(FileExistsError, match="not a state directory"):
        iio.save_state(iio.load_state(path), str(older))
    with pytest.raises(GraphFormatError, match="state.json"):
        iio.load_state(str(older))
    assert main(["verify", "--rounds", "1", "--state", str(older)]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["stored-state-consistency"]["passed"] is False
    assert {f.name: f.read_bytes() for f in older.iterdir()} == before


def test_load_state_rejects_missing_or_non_integer_members(tmp_path):
    for change in (lambda d: d.pop("members"), lambda d: d.update(members=[1.5]),
                   lambda d: d.update(members=["x"]), lambda d: d.update(members=3),
                   lambda d: d.update(members=[])):
        path = _saved_state(tmp_path)
        _rewrite(path, change)
        with pytest.raises(GraphFormatError):
            iio.load_state(path)


def test_load_state_rejects_members_that_are_not_structural(tmp_path):
    # cycles 2-3-2, 2-3-4-2 and 1-2-3-4-1: {2} meets them all, {1} misses 2-3-2
    g = WeightedDigraph.from_edges(
        4, [(1, 2, 0.5), (3, 2, 0.25), (4, 2, 0.25), (2, 3, 1.0), (3, 4, 1.0),
            (4, 1, 1.0)], stochastic=True)
    path = str(tmp_path / "st")
    iio.save_state(StoredState.from_graph(g, structural=[2]), path)
    _rewrite(path, lambda d: d.update(members=[1]))
    cycle = validate_structural(g, [1], 1.0).cycle
    with pytest.raises(GraphFormatError, match=re.escape(str(cycle))):
        iio.load_state(path)


def test_load_state_rejects_full_vector_of_other_length(tmp_path):
    path = _saved_state(tmp_path)
    _rewrite(path, lambda d: d["full_vector"].append(0.0))
    with pytest.raises(GraphFormatError):
        iio.load_state(path)


def test_load_state_rejects_reduced_vector_of_other_length(tmp_path):
    path = _saved_state(tmp_path)
    _rewrite(path, lambda d: d["reduced_vector"].pop())
    with pytest.raises(GraphFormatError):
        iio.load_state(path)


def test_load_state_rejects_inactive_member(tmp_path):
    path = _saved_state(tmp_path)
    _rewrite(path, lambda d: d["members"].append(99))
    with pytest.raises(GraphFormatError):
        iio.load_state(path)


#: Malformed JSON graph objects a graph reader must report as format errors: a
#: non-numeric weight, an edge entry that is not a list, a non-integer
#: tombstone, an ``Infinity`` vertex count, edge id or tombstone, a repeated
#: edge, a vertex count, edge id or tombstone with a fraction, and five that
#: parse but build no graph: a zero weight, an edge into a tombstone, a
#: negative vertex count, and a tombstone below or above ``1..n``.
BAD_GRAPH_EDITS = (
    lambda d: d["edges"][0].__setitem__(2, "x"),
    lambda d: d["edges"].append(5),
    lambda d: d.update(removed=["a"]),
    lambda d: d.update(n=float("inf")),
    lambda d: d["edges"][0].__setitem__(0, float("inf")),
    lambda d: d.update(removed=[float("-inf")]),
    lambda d: d["edges"].append(list(d["edges"][0])),
    lambda d: d.update(n=d["n"] + 0.7),
    lambda d: d["edges"][0].__setitem__(0, d["edges"][0][0] + 0.5),
    lambda d: d.update(removed=[1.5]),
    lambda d: d["edges"][0].__setitem__(2, 0.0),
    lambda d: d.update(removed=[d["edges"][0][1]]),
    lambda d: d.update(n=-1),
    lambda d: d.update(removed=[0]),
    lambda d: d.update(removed=[d["n"] + 1]),
    # the first edge leaves vertex 1; JSON true is no vertex id
    lambda d: d["edges"][0].__setitem__(0, True),
    lambda d: d.update(removed=[True]),
    lambda d: d.update(n=True),
    # the flag is a JSON boolean even where the reader overrides it
    lambda d: d.update(stochastic="no"),
    lambda d: d.update(stochastic=1),
)


def test_graph_reader_rejects_malformed_graph_objects(tmp_path):
    g = random_stochastic_graph(8, 2.5, np.random.default_rng(72))
    for change in BAD_GRAPH_EDITS:
        data = iio.graph_to_dict(g)
        change(data)
        with pytest.raises(GraphFormatError):
            iio.graph_from_dict(data, stochastic=True)
        with pytest.raises(GraphFormatError):
            iio.read_graph(write(tmp_path, "g.json", json.dumps(data)), stochastic=True)


#: Graph contents of a state file that a load must report as format errors:
#: an array that is not base64 text, is cut short, or holds a byte count
#: that is not a multiple of 8; edge arrays of unequal length; a missing
#: array; an id outside ``1..n``; a repeated edge; a zero, NaN or infinite
#: weight; an edge into a tombstone; a graph that builds but is not
#: stochastic (a loop, a weight above 1, a column that does not sum to 1);
#: and each vertex count and tombstone list that :data:`BAD_GRAPH_EDITS`
#: refuses in a JSON graph object.
BAD_STATE_GRAPH_EDITS = (
    lambda d: d.update(weights="not base64!"),
    lambda d: d.update(full_vector=_encode(d["full_vector"], "<f8")[:-3]),
    lambda d: d.update(tails=base64.b64encode(bytes(12)).decode("ascii")),
    lambda d: d["heads"].pop(),
    lambda d: d["weights"].append(0.5),
    lambda d: d.pop("tails"),
    lambda d: d["tails"].__setitem__(0, d["n"] + 1),
    lambda d: d["heads"].__setitem__(-1, 0),
    lambda d: [d[key].append(d[key][0]) for key in ("tails", "heads", "weights")],
    lambda d: d["weights"].__setitem__(0, 0.0),
    lambda d: d["weights"].__setitem__(0, float("nan")),
    lambda d: d["weights"].__setitem__(-1, float("inf")),
    lambda d: d.update(removed=[d["heads"][0]]),
    lambda d: d["heads"].__setitem__(0, d["tails"][0]),
    lambda d: d["weights"].__setitem__(0, 1.5),
    lambda d: d["weights"].__setitem__(0, d["weights"][0] / 2),
    lambda d: d.update(n=float("inf")),
    lambda d: d.update(n=d["n"] + 0.7),
    lambda d: d.update(n=-1),
    lambda d: d.update(n=True),
    lambda d: d.update(removed=["a"]),
    lambda d: d.update(removed=[float("-inf")]),
    lambda d: d.update(removed=[1.5]),
    lambda d: d.update(removed=[0]),
    lambda d: d.update(removed=[d["n"] + 1]),
    lambda d: d.update(removed=[True]),
)


def test_load_state_rejects_malformed_graph_entries(tmp_path):
    for change in BAD_STATE_GRAPH_EDITS:
        path = _saved_state(tmp_path)
        _rewrite(path, change)
        with pytest.raises(GraphFormatError):
            iio.load_state(path)
    path = _saved_state(tmp_path)
    _rewrite(path, lambda d: [d[key].append(d[key][0]) for key in ("tails", "heads", "weights")])
    with pytest.raises(GraphFormatError, match=r"duplicate edge \(\d+,\d+\)"):
        iio.load_state(path)


def test_cli_verify_reports_malformed_graph_as_failed_check(tmp_path, capsys):
    for change in BAD_STATE_GRAPH_EDITS:
        path = _saved_state(tmp_path)
        _rewrite(path, change)
        assert main(["verify", "--rounds", "1", "--state", path]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["stored-state-consistency"]["passed"] is False
        assert all(c["passed"] for name, c in checks.items()
                   if name != "stored-state-consistency")


def test_malformed_state_file_is_a_format_error(tmp_path, capsys):
    for content in (b"[]", b"\xff"):
        path = _saved_state(tmp_path)
        with open(f"{path}/state.json", "wb") as fh:
            fh.write(content)
        with pytest.raises(GraphFormatError):
            iio.load_state(path)
        assert main(["verify", "--rounds", "1", "--state", path]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["stored-state-consistency"]["passed"] is False


def test_non_utf8_edge_list_is_a_failed_graph_check(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"N 3\n1 2 1.0\xff")
    with pytest.raises(GraphFormatError):
        iio.read_graph(str(path))
    assert main(["verify", "--rounds", "1", "--graphs", str(path)]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks[f"graph-file:{path}"]["passed"] is False
    assert all(c["passed"] for name, c in checks.items() if not name.startswith("graph-file"))


#: Vector and flag contents a load must reject: non-finite entries in either
#: vector, an ``Infinity`` or fractional member id, and a convergence flag
#: that is missing or not a JSON boolean.
BAD_STATE_EDITS = (
    lambda d: d["full_vector"].__setitem__(0, float("nan")),
    lambda d: d["full_vector"].__setitem__(-1, float("inf")),
    lambda d: d["reduced_vector"].__setitem__(0, float("nan")),
    lambda d: d["reduced_vector"].__setitem__(-1, float("-inf")),
    lambda d: d["members"].__setitem__(0, float("inf")),
    lambda d: d["members"].__setitem__(0, d["members"][0] + 0.5),
    lambda d: d.pop("eig_converged"),
    lambda d: d.update(eig_converged="false"),
    lambda d: d.update(eig_converged=0),
    lambda d: d.update(eig_converged=None),
)


def test_load_state_rejects_non_finite_vectors_and_non_boolean_flags(tmp_path, capsys):
    for change in BAD_STATE_EDITS:
        path = _saved_state(tmp_path)
        _rewrite(path, change)
        with pytest.raises(GraphFormatError):
            iio.load_state(path)
        assert main(["verify", "--rounds", "1", "--state", path]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["stored-state-consistency"]["passed"] is False


def test_state_files_are_compact_lines_and_indented_saves_still_load(tmp_path):
    rng = np.random.default_rng(76)
    state = StoredState.from_graph(random_stochastic_graph(12, 2.5, rng))
    for _ in range(3):
        state, _ = run_update(state, random_delta(state.graph, rng, 3))
    new, old = tmp_path / "new", tmp_path / "old"
    iio.save_state(state, str(new))
    old.mkdir()
    for f in new.iterdir():
        text = f.read_text(encoding="utf-8")
        data = json.loads(text)
        assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        (old / f.name).write_text(iio.dumps(data), encoding="utf-8")
    # no larger than the text layout that earlier saves wrote for the same state
    assert len((new / "state.json").read_bytes()) <= len(_text_layout(state).encode())
    for where in (new, old):
        back = iio.load_state(str(where))
        assert back.graph == state.graph and back.eig_converged is state.eig_converged
        assert back.structural.members == state.structural.members
        assert back.structural.depth_of == state.structural.depth_of
        for field in ("columns", "reduced_vector", "full_vector"):
            assert np.array_equal(getattr(back, field), getattr(state, field))


def test_text_layout_of_earlier_saves_is_refused(tmp_path, capsys):
    path = _saved_state(tmp_path)
    text = _text_layout(iio.load_state(path))
    with open(f"{path}/state.json", "w", encoding="utf-8") as fh:
        fh.write(text)
    with pytest.raises(GraphFormatError, match="text layout of earlier saves"):
        iio.load_state(path)
    assert main(["verify", "--rounds", "1", "--state", path]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["stored-state-consistency"]["passed"] is False


def test_saving_a_loaded_state_writes_the_same_bytes(tmp_path):
    rng = np.random.default_rng(77)
    state = StoredState.from_graph(random_stochastic_graph(14, 2.5, rng))
    for _ in range(4):
        state, _ = run_update(state, random_delta(state.graph, rng, 3))
    first, second = tmp_path / "first", tmp_path / "second"
    iio.save_state(state, str(first))
    iio.save_state(iio.load_state(str(first)), str(second))
    assert (first / "state.json").read_bytes() == (second / "state.json").read_bytes()


def test_json_bools_and_strings_are_not_numbers(tmp_path, capsys):
    for op in ('"w": true', '"w": "0.5"', '"w": null'):
        path = write(tmp_path, "d.json", f'{{"ops": [{{"op": "add_edge", "i": 1, "j": 2, {op}}}]}}')
        with pytest.raises(GraphFormatError):
            iio.read_delta(path)
        assert main(["update", "--state", _saved_state(tmp_path), "--delta", path]) == 2
    graph_path = write(tmp_path, "g.txt", LOOP_PAIR_EDGELIST)
    for text in ('{"vertices": [1], "values": [[true, false]]}',
                 '{"vertices": [1], "values": [[1, 0]], "lambda": [true, 0]}',
                 '{"vertices": [1], "values": [[1, 0]], "lambda": ["1", 0]}',
                 '{"vertices": [1], "values": [[1, 0]], "lambda": [1, false]}'):
        vec_path = write(tmp_path, "v.json", text)
        with pytest.raises(GraphFormatError):
            iio.read_vector(vec_path)
        assert main(["lift", "--graph", graph_path, "--structural", "1",
                     "--vector", vec_path]) == 2
    capsys.readouterr()
