import json

import pytest

from lhom.cli import main
from lhom.formats import parse_hgraph, write_hgraph, write_instance
from lhom.generators import gen_cycle_power, gen_instance
from lhom.graphs import Graph, Instance
from lhom.solver import _Search


@pytest.fixture()
def c6_file(tmp_path):
    path = tmp_path / "c6.hg"
    path.write_text(write_hgraph(gen_cycle_power(6, 1),
                                 ("gen: cycle-power k=6 p=1",)))
    return str(path)


@pytest.fixture()
def k4_file(tmp_path):
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    path = tmp_path / "k4.hg"
    path.write_text(write_hgraph(k4))
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_invariants_json(c6_file, capsys):
    assert main(["invariants", c6_file, "--json"]) == 0
    out = _json_out(capsys)
    assert out["schema"] == "lhom/1"
    assert out["c_star"] == 3 and out["d_star"] == 2 and out["delta"] == 2
    assert out["recommended_degree"] == 2


def test_invariants_ignores_forged_cycle_power_hint(tmp_path, k4_file, capsys):
    forged = tmp_path / "forged.hg"
    with open(k4_file, encoding="utf-8") as fh:
        forged.write_text("# gen: cycle-power k=13 p=2\n" + fh.read())
    assert main(["invariants", str(forged), "--json"]) == 0
    out = _json_out(capsys)
    assert out["d_star"] == 3
    assert out["recommended_degree"] >= 3
    assert out["recommended_by"] != "cycle-power"


@pytest.mark.parametrize("params", ["k=abc p=2", "k=13 p=x"])
def test_malformed_cycle_power_hint_is_ignored(tmp_path, capsys, params):
    plain = write_hgraph(gen_cycle_power(6, 1))
    hinted = tmp_path / "hinted.hg"
    hinted.write_text(f"# gen: cycle-power {params}\n" + plain)
    assert parse_hgraph(hinted.read_text())[1] == {}
    (tmp_path / "plain.hg").write_text(plain)
    assert main(["invariants", str(tmp_path / "plain.hg"), "--json"]) == 0
    want = _json_out(capsys)
    assert main(["invariants", str(hinted), "--json"]) == 0
    assert _json_out(capsys) == want


def test_solve_exit_codes(tmp_path, c6_file, capsys):
    c6 = gen_cycle_power(6, 1)
    yes = tmp_path / "yes.lh"
    yes.write_text(write_instance(gen_instance(c6, 10, 3, 2, "planted-yes"), 6))
    assert main(["solve", str(yes), "--target", c6_file, "--witness"]) == 0
    assert capsys.readouterr().out.startswith("yes")
    no = tmp_path / "no.lh"
    no.write_text(write_instance(
        Instance(Graph.from_edges(2, [(0, 1)]), (1, 1)), 6))
    assert main(["solve", str(no), "--target", c6_file]) == 1


def test_solve_rejects_mismatched_target(tmp_path, c6_file):
    bad = tmp_path / "bad.lh"
    bad.write_text(write_instance(
        Instance(Graph.from_edges(1, []), (1,)), 4))
    assert main(["solve", str(bad), "--target", c6_file]) == 2


def test_kernel_emit_and_verify(tmp_path, c6_file, capsys):
    c6 = gen_cycle_power(6, 1)
    inst = tmp_path / "i.lh"
    inst.write_text(write_instance(gen_instance(c6, 14, 4, 5), 6))
    out = tmp_path / "k.lh"
    assert main(["kernel", str(inst), "--target", c6_file, "--method", "poly",
                 "--emit", str(out), "--json"]) == 0
    payload = _json_out(capsys)
    assert payload["degree"] <= 2 and payload["vertices_out"] <= payload["vertices_in"]
    emitted = out.read_text()
    assert emitted.startswith("c method=poly")
    for method in ("marking", "poly"):
        assert main(["verify-kernel", str(inst), "--target", c6_file,
                     "--method", method]) == 0


def test_readme_example_kernel_sizes(tmp_path, c6_file, capsys):
    inst = str(tmp_path / "big.lh")
    assert main(["gen", "instance", "--target", c6_file, "--n", "200",
                 "--k", "3", "--seed", "1", "--out", inst]) == 0
    assert main(["kernel", inst, "--target", c6_file, "--method", "poly",
                 "--json"]) == 0
    poly = _json_out(capsys)
    assert (poly["vertices_in"], poly["vertices_out"], poly["edges_out"],
            poly["degree"], poly["constraints_retained"],
            poly["constraints_total"]) == (200, 12, 17, 2, 36, 304)
    assert main(["kernel", inst, "--target", c6_file, "--method", "marking",
                 "--json"]) == 0
    marking = _json_out(capsys)
    assert (marking["vertices_out"], marking["edges_out"]) == (133, 203)
    for method in ("poly", "marking"):
        assert main(["verify-kernel", inst, "--target", c6_file,
                     "--method", method, "--json"]) == 0
        assert _json_out(capsys) == {"schema": "lhom/1", "input": False,
                                     "kernel": False, "agree": True}


def test_forbid_prints_polynomial(c6_file, capsys):
    assert main(["forbid", "--target", c6_file, "--list", "0 1 2 3 4 5",
                 "--tuple", "0 2 4", "--json"]) == 0
    out = _json_out(capsys)
    assert out["degree"] == 2 and out["method"] == "c6"
    assert "y[0,0]" in out["polynomial"]


def test_forbid_degree_cap(c6_file):
    assert main(["forbid", "--target", c6_file, "--list", "0 1 2 3 4 5",
                 "--tuple", "0 2 4", "--degree", "1"]) == 3


def test_forbid_invalid_tuple(c6_file):
    # (0, 2) has the common neighbor 1 in a full list
    assert main(["forbid", "--target", c6_file, "--list", "0 1 2 3 4 5",
                 "--tuple", "0 2"]) == 2


def test_reduce_sat_pipeline(tmp_path, k4_file, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    out = tmp_path / "f.lh"
    assert main(["reduce-sat", str(cnf), "--target", k4_file,
                 "--out", str(out)]) == 0
    assert main(["solve", str(out), "--target", k4_file]) == 0
    unsat = tmp_path / "u.cnf"
    unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
    out2 = tmp_path / "u.lh"
    assert main(["reduce-sat", str(unsat), "--target", k4_file,
                 "--out", str(out2)]) == 0
    assert main(["solve", str(out2), "--target", k4_file]) == 1


def test_reduce_sat_rejects_low_order_target(tmp_path, c6_file):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    assert main(["reduce-sat", str(cnf), "--target", c6_file]) == 2


def test_gadget_check_rejects_low_order_target(c6_file):
    # the 6-cycle's structures stop at order 2, too low for gadgets
    assert main(["gadget-check", "--target", c6_file]) == 2


def test_gadget_check(k4_file, capsys):
    assert main(["gadget-check", "--target", k4_file, "--json"]) == 0
    out = _json_out(capsys)
    assert out["order"] == 3
    kinds = [g["kind"] for g in out["gadgets"]]
    assert kinds.count("NEQ") == 3 and kinds.count("COMP") == 6
    assert all(g["certified"] for g in out["gadgets"])


def test_gen_roundtrip(tmp_path, capsys):
    hg_path = tmp_path / "c13.hg"
    assert main(["gen", "hgraph", "cycle-power", "--k", "13", "--p", "2",
                 "--out", str(hg_path)]) == 0
    assert "gen: cycle-power k=13 p=2" in hg_path.read_text()
    inst_path = tmp_path / "i.lh"
    assert main(["gen", "instance", "--target", str(hg_path), "--n", "12",
                 "--k", "4", "--seed", "5", "--out", str(inst_path)]) == 0
    first = inst_path.read_text()
    assert main(["gen", "instance", "--target", str(hg_path), "--n", "12",
                 "--k", "4", "--seed", "5", "--out", str(inst_path)]) == 0
    assert inst_path.read_text() == first
    assert main(["gen", "hgraph", "subdivided-star", "--r", "3",
                 "--out", str(tmp_path / "s.hg")]) == 0


def test_kernel_uses_generator_hint(tmp_path, capsys):
    hg_path = tmp_path / "c13.hg"
    assert main(["gen", "hgraph", "cycle-power", "--k", "13", "--p", "2",
                 "--out", str(hg_path)]) == 0
    inst_path = tmp_path / "i.lh"
    assert main(["gen", "instance", "--target", str(hg_path), "--n", "12",
                 "--k", "4", "--seed", "3", "--out", str(inst_path)]) == 0
    assert main(["kernel", str(inst_path), "--target", str(hg_path),
                 "--method", "poly", "--json"]) == 0
    payload = _json_out(capsys)
    assert payload["degree"] <= 2  # the file hint unlocks the degree-p route
    assert main(["verify-kernel", str(inst_path), "--target", str(hg_path),
                 "--method", "poly"]) == 0


def test_gen_missing_params(tmp_path):
    assert main(["gen", "hgraph", "cycle-power", "--k", "13"]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["kernel", "missing.lh", "--target", "x", "--method", "bogus"])
    assert err.value.code == 2


def test_missing_file_is_usage_error(c6_file):
    assert main(["solve", "no-such-file.lh", "--target", c6_file]) == 2


def test_budget_env_override(tmp_path, c6_file, monkeypatch):
    c6 = gen_cycle_power(6, 1)
    inst = tmp_path / "i.lh"
    inst.write_text(write_instance(gen_instance(c6, 16, 5, 8, "planted-yes"), 6))
    monkeypatch.setenv("LHOM_NODE_BUDGET", "1")
    assert main(["solve", str(inst), "--target", c6_file]) == 3
    monkeypatch.setenv("LHOM_NODE_BUDGET", "10000000")
    assert main(["solve", str(inst), "--target", c6_file]) == 0


@pytest.mark.parametrize("raw", ["0", "-1", "ten"])
def test_budget_env_must_be_positive(tmp_path, c6_file, monkeypatch, capsys,
                                     raw):
    c6 = gen_cycle_power(6, 1)
    inst = tmp_path / "i.lh"
    inst.write_text(write_instance(gen_instance(c6, 30, 5, 8, "planted-yes"), 6))
    monkeypatch.setenv("LHOM_NODE_BUDGET", raw)
    assert main(["solve", str(inst), "--target", c6_file]) == 2
    assert "LHOM_NODE_BUDGET must be a" in capsys.readouterr().err


def test_budget_env_boundary(tmp_path, k4, k4_file, k4_reductions,
                             monkeypatch, capsys):
    sat, _ = k4_reductions
    search = _Search(sat, k4, 10**7)
    search.run(lambda colors: True)
    n = search.nodes
    inst = tmp_path / "sat.lh"
    inst.write_text(write_instance(sat, 4))
    monkeypatch.setenv("LHOM_NODE_BUDGET", str(n))
    assert main(["solve", str(inst), "--target", k4_file]) == 0
    assert capsys.readouterr().out.startswith("yes")
    monkeypatch.setenv("LHOM_NODE_BUDGET", str(n - 1))
    assert main(["solve", str(inst), "--target", k4_file]) == 3
    assert f"search exceeded {n - 1} nodes" in capsys.readouterr().err
