import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from lhom.cli import main
from lhom.formats import (parse_hgraph, parse_instance, write_hgraph,
                          write_instance)
from lhom.generators import gen_cycle_power, gen_instance
from lhom.graphs import Graph, Instance
from lhom.kernels import kernelize
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
    assert parse_hgraph(hinted.read_text())[1] is None
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


@pytest.mark.parametrize("line", ["l 0 -1 2", "x -1"])
def test_negative_instance_numbers_name_the_line(tmp_path, c6_file, capsys,
                                                 line):
    lines = ["p lhom 2 1 6", "e 0 1", "l 0 1 2", "l 1 2", "x 0"]
    at = 2 if line.startswith("l") else 4
    lines[at] = line
    bad = tmp_path / "bad.lh"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["solve", str(bad), "--target", c6_file]) == 2
    assert f"line {at + 1}: expected non-negative integers" in \
        capsys.readouterr().err


@pytest.mark.parametrize("name, text, command", [
    ("bad.lh", "p lhom 1 0 -2\nl 0 0\n", ["solve", "{bad}", "--target", "{c6}"]),
    ("bad.cnf", "p cnf -1 0\n",
     ["reduce-sat", "{bad}", "--target", "{k4}", "--out", "{out}"]),
    ("bad.hg", "p hgraph -1\n", ["invariants", "{bad}"]),
], ids=["lhom", "cnf", "hgraph"])
def test_negative_header_counts_name_the_line(tmp_path, c6_file, k4_file,
                                              capsys, name, text, command):
    bad = tmp_path / name
    bad.write_text(text)
    paths = {"bad": str(bad), "c6": c6_file, "k4": k4_file,
             "out": str(tmp_path / "out.lh")}
    assert main([arg.format(**paths) for arg in command]) == 2
    assert "line 1: expected non-negative integers" in capsys.readouterr().err


@pytest.mark.parametrize("edge", ["0 -1", "3 0"])
def test_hgraph_edge_out_of_range_names_the_line(tmp_path, capsys, edge):
    bad = tmp_path / "bad.hg"
    bad.write_text(f"p hgraph 3\ne 0 1\ne {edge}\n")
    assert main(["invariants", str(bad)]) == 2
    u, v = edge.split()
    assert f"line 3: edge ({u}, {v}) out of range" in capsys.readouterr().err


@pytest.mark.parametrize("edge", ["0 -1", "2 1"])
def test_instance_edge_out_of_range_names_the_line(tmp_path, c6_file, capsys,
                                                   edge):
    bad = tmp_path / "bad.lh"
    bad.write_text(f"p lhom 2 1 6\ne {edge}\nl 0 1 2\nl 1 2\n")
    assert main(["solve", str(bad), "--target", c6_file]) == 2
    u, v = edge.split()
    assert f"line 2: edge ({u}, {v}) out of range" in capsys.readouterr().err


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


def test_forbid_k4_linear_system_golden(k4_file, capsys):
    assert main(["forbid", "--target", k4_file, "--list", "0 1 2 3",
                 "--tuple", "0 1 2 3", "--json"]) == 0
    out = _json_out(capsys)
    assert out["method"] == "linear-system" and out["degree"] == 3
    assert len(out["polynomial"].split(" + ")) == 64
    assert hashlib.sha256(out["polynomial"].encode()).hexdigest() == \
        "e0900465498949b4ee611b84836401cbbf4850f825e3de2524d3de93c565f765"


def test_forbid_degree_cap(c6_file):
    assert main(["forbid", "--target", c6_file, "--list", "0 1 2 3 4 5",
                 "--tuple", "0 2 4", "--degree", "1"]) == 3


def test_forbid_invalid_tuple(c6_file):
    # (0, 2) has the common neighbor 1 in a full list
    assert main(["forbid", "--target", c6_file, "--list", "0 1 2 3 4 5",
                 "--tuple", "0 2"]) == 2


@pytest.mark.parametrize("tup, color", [("0 2 99", 99), ("-1 2", -1)])
def test_forbid_rejects_out_of_range_color(tmp_path, capsys, tup, color):
    path = tmp_path / "c13.hg"
    path.write_text(write_hgraph(gen_cycle_power(13, 2),
                                 ("gen: cycle-power k=13 p=2",)))
    assert main(["forbid", "--target", str(path), "--list", "0 1 2",
                 "--tuple", tup]) == 2
    err = capsys.readouterr().err
    assert f"tuple color {color} is out of range 0..12" in err


@pytest.mark.parametrize("option, what", [
    ("--tuple", "tuple"), ("--list", "list"), ("--lists", "candidate list")])
def test_forbid_rejects_non_integer_color(c6_file, capsys, option, what):
    args = {"--tuple": "0 2", "--list": "0 1 2 3 4 5", "--lists": "0 1;2 3"}
    args[option] = "0 x"
    assert main(["forbid", "--target", c6_file,
                 *[arg for pair in args.items() for arg in pair]]) == 2
    assert f"{what} color 'x' is not an integer" in capsys.readouterr().err


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


def test_reduce_sat_lbs_order_and_stdout(tmp_path, k4_file, capsys):
    cnf = tmp_path / "sat.cnf"
    cnf.write_text("p cnf 3 4\n1 2 -3 0\n-1 2 0\n-2 3 0\n1 -3 0\n")
    plain, ordered = tmp_path / "plain.lh", tmp_path / "ordered.lh"
    assert main(["reduce-sat", str(cnf), "--target", k4_file,
                 "--out", str(plain), "--json"]) == 0
    out = _json_out(capsys)
    assert (out["vertices"], out["cover_size"]) == (142, 138)
    assert main(["reduce-sat", str(cnf), "--target", k4_file, "--lbs-order",
                 "3", "--out", str(ordered)]) == 0
    assert ordered.read_text() == plain.read_text()
    capsys.readouterr()
    assert main(["reduce-sat", str(cnf), "--target", k4_file, "--lbs-order",
                 "4", "--out", str(tmp_path / "four.lh")]) == 2
    assert "no lower bound structure of order 4" in capsys.readouterr().err
    assert main(["reduce-sat", str(cnf), "--target", k4_file]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("c reduce-sat vars=3 clauses=4 order=3\n")
    assert stdout == plain.read_text()
    # under --json without --out the text goes inside the one lhom/1 object
    assert main(["reduce-sat", str(cnf), "--target", k4_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"schema": "lhom/1", "vertices": 142, "cover_size": 138,
                   "instance": plain.read_text()}


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


def test_gadget_check_certifies_each_gadget_once(k4_file, capsys,
                                                 monkeypatch):
    """9 pair gadgets and the variable gadget; the latter reuses the former."""
    import lhom.reductions as reductions
    for build in (reductions.build_neq, reductions.build_comp,
                  reductions.build_variable_gadget):
        build.cache_clear()
    calls = []
    original = reductions.enumerate_restricted

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(reductions, "enumerate_restricted", counted)
    assert main(["gadget-check", "--target", k4_file, "--json"]) == 0
    assert len(_json_out(capsys)["gadgets"]) == 10
    assert len(calls) == 10


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


def test_cycle_power_kernel_golden(tmp_path, capsys):
    """The README-style pipeline on C13^2, through the cycle-power route,
    as CI once ran it with the installed script: the kernel's numbers, the
    verdict of verify-kernel, and the emitted kernel solved."""
    hg_path, inst_path = str(tmp_path / "c13.hg"), str(tmp_path / "i.lh")
    assert main(["gen", "hgraph", "cycle-power", "--k", "13", "--p", "2",
                 "--out", hg_path]) == 0
    assert main(["gen", "instance", "--target", hg_path, "--n", "150",
                 "--k", "4", "--seed", "1", "--out", inst_path]) == 0
    assert main(["kernel", inst_path, "--target", hg_path, "--method", "poly",
                 "--json"]) == 0
    payload = _json_out(capsys)
    assert (payload["vertices_out"], payload["edges_out"], payload["degree"],
            payload["constraints_total"], payload["constraints_retained"]) \
        == (45, 91, 2, 4761, 326)
    assert main(["verify-kernel", inst_path, "--target", hg_path,
                 "--method", "poly"]) == 0
    assert capsys.readouterr().out.strip() == \
        "input=False kernel=False agree=True"
    # the emitted kernel, read back and solved
    kernel_path = str(tmp_path / "k.lh")
    assert main(["kernel", inst_path, "--target", hg_path, "--method", "poly",
                 "--emit", kernel_path]) == 0
    capsys.readouterr()
    assert main(["solve", kernel_path, "--target", hg_path]) == 1
    assert capsys.readouterr().out == "no\n"


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
    next(search.solutions(), None)
    n = search.nodes
    inst = tmp_path / "sat.lh"
    inst.write_text(write_instance(sat, 4))
    monkeypatch.setenv("LHOM_NODE_BUDGET", str(n))
    assert main(["solve", str(inst), "--target", k4_file]) == 0
    assert capsys.readouterr().out.startswith("yes")
    monkeypatch.setenv("LHOM_NODE_BUDGET", str(n - 1))
    assert main(["solve", str(inst), "--target", k4_file]) == 3
    assert f"search exceeded {n - 1} nodes" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["kernel", "{lh}", "--target", "{c6}", "--method", "poly",
     "--emit", "{out}"],
    ["gen", "hgraph", "cycle-power", "--k", "6", "--p", "1", "--out", "{out}"],
    ["reduce-sat", "{cnf}", "--target", "{k4}", "--out", "{out}"],
], ids=["kernel", "gen", "reduce-sat"])
def test_unwritable_output_is_a_usage_error(tmp_path, c6_file, k4_file,
                                            capsys, command):
    """A path that cannot be written exits 2 with its name, not with the
    code of a negative answer."""
    lh = tmp_path / "i.lh"
    lh.write_text(write_instance(gen_instance(gen_cycle_power(6, 1), 12, 3,
                                              1), 6))
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    out = tmp_path / "missing" / "out"
    paths = {"lh": str(lh), "cnf": str(cnf), "c6": c6_file, "k4": k4_file,
             "out": str(out)}
    assert main([arg.format(**paths) for arg in command]) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err


def test_gen_hgraph_checks_and_stdout(tmp_path, capsys):
    assert main(["gen", "hgraph", "subdivided-star"]) == 2
    assert capsys.readouterr().err == "error: subdivided-star needs --r\n"
    out = tmp_path / "c6.hg"
    args = ["gen", "hgraph", "cycle-power", "--k", "6", "--p", "1"]
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(args) == 0
    assert capsys.readouterr().out == out.read_text()


def test_gen_instance_on_a_target_without_vertices(tmp_path, capsys):
    hg = tmp_path / "empty.hg"
    hg.write_text("p hgraph 0\n")
    gen = ["gen", "instance", "--target", str(hg), "--k", "0", "--seed", "1"]
    assert main(gen + ["--n", "3"]) == 2
    assert (capsys.readouterr().err
            == "error: target graph must have at least one vertex\n")
    assert main(gen + ["--n", "0"]) == 0
    assert capsys.readouterr().out == ("c gen: instance seed=1 mode=random\n"
                                       "p lhom 0 0 0\nx\n")


# Sub-second checks of the installed command that CI once ran as shell
# lines, now in process: each keeps the substrings CI grepped for and exit
# code 0, and pins the SHA-256 of its whole stdout.  Targets come from
# `lhom gen hgraph cycle-power`, so each file carries its cycle-power hint.
GOLDEN_TARGETS = {"c6": (6, 1), "k4": (4, 2), "k5": (5, 2), "c19": (19, 3)}
GOLDEN = {
    "invariants-k4": (
        ["invariants", "{k4}", "--json"], ['"recommended_by": "experiment"'],
        "965a0df99b1b969e5d0f35ea05ef6e03ad4186a9fc0ebb3c80e4d43e74c7824f"),
    "forbid-c6": (
        ["forbid", "--target", "{c6}", "--list", "0 1 2 3 4 5",
         "--tuple", "0 2 4", "--json"], ['"degree": 2, "method": "c6"'],
        "fc7e2c8067380df6b76de5853310827724cff04fb93453f08ab4554ec9697a03"),
    "forbid-k4": (
        ["forbid", "--target", "{k4}", "--list", "0 1 2 3",
         "--tuple", "0 1 2 3", "--json"], ['"method": "linear-system"'],
        "2b0fc1b05be9e560b8941c3ecaee386b1fc2709c6f985109ed6b2e293e2ea195"),
    "forbid-c19": (
        ["forbid", "--target", "{c19}", "--list", "0 1 2 3 4 18",
         "--tuple", "0 1 2 3", "--json"],
        ['"degree": 3, "method": "cycle-power"'],
        "097850b19de09589cd6bd5e4529fabe13531c0f21449f881fce00d73c61f68a3"),
    "forbid-c19-narrow": (
        ["forbid", "--target", "{c19}", "--list", "0 1 2 3 4 18",
         "--tuple", "0 1 2 3", "--lists", "0 5 10;1 6 11;2 7 12;3 8 13",
         "--json"], ['"degree": 3, "method": "cycle-power"'],
        "097850b19de09589cd6bd5e4529fabe13531c0f21449f881fce00d73c61f68a3"),
    "gadgets-k4": (
        ["gadget-check", "--target", "{k4}", "--json"],
        ['"order": 3', '"kind": "VAR", "params": [], "vertices": 46'],
        "5f59209159d3946629a6fa6d6c5ccb8d7b97fa82cc0e89ae996d394dfc394960"),
    "gadgets-k5": (
        ["gadget-check", "--target", "{k5}", "--json"],
        ['"order": 4', '"kind": "VAR", "params": [], "vertices": 64'],
        "ea0a4906249cbbb0542cf7751cd8f20b4fbfd3e02f48c1ad470c8c769ff62255"),
    "cover-k0": (  # a k=0 instance ends with a bare cover line
        ["gen", "instance", "--target", "{k4}", "--n", "3", "--k", "0",
         "--seed", "1"], ["\nx\n"],
        "fceef361ff26d5c93ff9536e7a6fdd7dd8725a357cc9f5e796454ef916e85c8d"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_cli_output(tmp_path, capsys, name):
    argv, needles, digest = GOLDEN[name]
    paths = {}
    for target, (k, p) in GOLDEN_TARGETS.items():
        paths[target] = str(tmp_path / f"{target}.hg")
        assert main(["gen", "hgraph", "cycle-power", "--k", str(k),
                     "--p", str(p), "--out", paths[target]]) == 0
    assert main([arg.format(**paths) for arg in argv]) == 0
    out = capsys.readouterr().out
    for needle in needles:
        assert needle in out
    assert out.endswith("\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_benchmark_wrapped_names_resolve():
    """Every (module, attribute) that perfbench/spans.py wraps by name, and
    the `Gf2Poly.remap_vertices` it wraps by hand, still exists."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.WRAPS) >= 30
    for module, attr, *_ in spans.WRAPS:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    gf2 = importlib.import_module("lhom.gf2")
    assert callable(gf2.Gf2Poly.remap_vertices)


# The small CNF and the branching 6-variable 3-CNF that CI once reduced to
# K4 as shell lines; the K4 target is `lhom gen hgraph cycle-power --k 4
# --p 2`, hint included.
SAT_CNF = "p cnf 3 4\n1 2 -3 0\n-1 2 0\n-2 3 0\n1 -3 0\n"
BRANCHING_CNF = "p cnf 6 26\n" + (
    "4 -2 -5 0 5 -1 -4 0 -6 -2 3 0 1 4 3 0 1 3 4 0 3 5 6 0 4 -2 -3 0 "
    "-3 1 5 0 2 6 -1 0 1 2 -6 0 3 1 -5 0 -5 -4 -2 0 -3 5 -2 0 -2 -3 4 0 "
    "-1 -3 -2 0 -3 2 -5 0 2 4 -1 0 3 6 -5 0 5 6 -1 0 -5 -6 1 0 1 -4 -5 0 "
    "4 -3 -5 0 2 -3 -1 0 -5 1 3 0 -3 -6 -1 0 -3 2 -4 0\n")


def _k4_reduction(tmp_path, capsys, cnf: str) -> tuple[str, str]:
    """(target, instance) paths: the generated K4 and cnf reduced to it;
    what the two commands print is dropped."""
    k4, cnf_path, lh = (str(tmp_path / name)
                        for name in ("k4.hg", "f.cnf", "f.lh"))
    assert main(["gen", "hgraph", "cycle-power", "--k", "4", "--p", "2",
                 "--out", k4]) == 0
    Path(cnf_path).write_text(cnf)
    assert main(["reduce-sat", cnf_path, "--target", k4, "--out", lh]) == 0
    capsys.readouterr()
    return k4, lh


def test_sat_reduction_kernels_golden(tmp_path, capsys):
    """The small CNF's K4 reduction: the poly kernel's pinned counts, and
    for both methods verify-kernel's line and the emitted kernel read back
    and solved yes."""
    k4, lh = _k4_reduction(tmp_path, capsys, SAT_CNF)
    assert main(["kernel", lh, "--target", k4, "--method", "poly",
                 "--json"]) == 0
    out = capsys.readouterr().out
    assert '"constraints_retained": 280, "constraints_total": 280' in out
    assert '"vertices_out": 142' in out
    for method in ("poly", "marking"):
        assert main(["verify-kernel", lh, "--target", k4,
                     "--method", method]) == 0
        assert capsys.readouterr().out == "input=True kernel=True agree=True\n"
        emitted = str(tmp_path / f"sat-{method}.lh")
        assert main(["kernel", lh, "--target", k4, "--method", method,
                     "--emit", emitted]) == 0
        capsys.readouterr()
        assert main(["solve", emitted, "--target", k4]) == 0
        assert capsys.readouterr().out == "yes\n"


@pytest.mark.parametrize("method", ["marking", "poly"])
def test_verify_kernel_that_keeps_everything_searches_once(
        tmp_path, k4, k4_file, k4_reductions, searches, capsys, method):
    """On a K4 reduction whose kernel is its input's own graph and lists,
    verify-kernel answers the kernel from the input's search."""
    for inst, answer in zip(k4_reductions, (True, False)):
        lh = tmp_path / "sat.lh"
        lh.write_text(write_instance(inst, 4))
        parsed, _ = parse_instance(lh.read_text())
        kernel = kernelize(parsed, k4, method).kernel
        assert kernel.graph is parsed.graph and kernel.lists == parsed.lists
        searches.clear()
        assert main(["verify-kernel", str(lh), "--target", k4_file,
                     "--method", method]) == 0
        assert capsys.readouterr().out == (
            f"input={answer} kernel={answer} agree=True\n")
        assert len(searches) == 1


def test_branching_solve_golden(tmp_path, monkeypatch, capsys):
    """The branching CNF's K4 reduction: its witness output's SHA-256, and
    its node budget boundary, 495 nodes answering and 494 exiting 3."""
    k4, lh = _k4_reduction(tmp_path, capsys, BRANCHING_CNF)
    assert main(["solve", lh, "--target", k4, "--witness"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest().startswith(
        "9a587cde852ef207")
    monkeypatch.setenv("LHOM_NODE_BUDGET", "495")
    assert main(["solve", lh, "--target", k4]) == 0
    assert capsys.readouterr().out == "yes\n"
    monkeypatch.setenv("LHOM_NODE_BUDGET", "494")
    assert main(["solve", lh, "--target", k4]) == 3
    assert "search exceeded 494 nodes" in capsys.readouterr().err
