import json
from fractions import Fraction

import pytest

from pcsf import rounding
from pcsf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_triangle(tmp_path, penalty="1"):
    path = tmp_path / "tri.pcsf"
    path.write_text("pcsf 1\n"
                    "edge a b 1\nedge b c 1\nedge a c 1\n"
                    f"pair a c {penalty}\n")
    return str(path)


def write_point(tmp_path, name="point.sol", x=("1/2", "1/2", "1/2"), z=("0",)):
    path = tmp_path / name
    lines = [f"x {i} {v}" for i, v in enumerate(x)]
    lines += [f"z {i} {v}" for i, v in enumerate(z)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_gen_layered(tmp_path, capsys):
    out_path = tmp_path / "inst.pcsf"
    point_path = tmp_path / "point.sol"
    code, out, _ = run(capsys, "gen", "layered", "--base", "k4", "--m", "4",
                       "--k", "0", "-o", str(out_path), "--point", str(point_path))
    assert code == 0
    doc = json.loads(out)
    assert (doc["nodes"], doc["edges"], doc["pairs"]) == (28, 30, 30)
    assert out_path.exists() and point_path.exists()


def test_gen_gadget_and_base(tmp_path, capsys):
    point = tmp_path / "gadget.sol"
    code, out, _ = run(capsys, "gen", "gadget", "--k", "6", "--point", str(point))
    assert code == 0
    assert json.loads(out)["edges"] == 96
    lines = point.read_text().splitlines()
    assert len(lines) == 96 + 61 and lines[0] == "x 0 1/3"
    code, out, _ = run(capsys, "gen", "base", "--base", "prism",
                       "-o", str(tmp_path / "p.pcsf"))
    assert code == 0
    assert json.loads(out)["degree"] == 3


def test_base_file_is_read_only_by_the_from_file_base(tmp_path, capsys):
    base = str(tmp_path / "prism.pcsf")
    assert run(capsys, "gen", "base", "--base", "prism", "-o", base)[0] == 0
    code, out, _ = run(capsys, "gen", "layered", "--base", "from_file", "--base-file", base,
                       "--m", "1", "--k", "1")
    assert code == 0 and json.loads(out)["n"] == 6
    # any other base kind refuses the file instead of ignoring it
    for argv in (["gen", "layered", "--base-file", base, "--m", "1", "--k", "0"],
                 ["gen", "base", "--base", "k4", "--base-file", base],
                 ["decompose", "explicit", "--base", "prism", "--base-file", base, "--m", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "from_file" in json.loads(err)["error"]


def test_lp_solve_and_check(tmp_path, capsys):
    inst = write_triangle(tmp_path, penalty="10")
    sol_path = tmp_path / "sol.txt"
    code, out, _ = run(capsys, "lp", "solve", inst, "-o", str(sol_path))
    assert code == 0
    assert json.loads(out)["value"]["exact"] == "1"
    code, out, _ = run(capsys, "lp", "check", inst, "--point", str(sol_path))
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_lp_check_reports_violation(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    point = write_point(tmp_path, x=("0", "0", "0"), z=("0",))
    code, out, _ = run(capsys, "lp", "check", inst, "--point", point)
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is False and doc["violated"]["kind"] == "cut"


def test_lp_check_names_the_side_and_it_reads_back_as_a_family(tmp_path, capsys):
    # node names differ from ids (7 -> 0, 9 -> 1, 3 -> 2)
    inst = tmp_path / "named.pcsf"
    inst.write_text("pcsf 1\nedge 7 9 1\nedge 9 3 1\npair 7 3 1\n")
    point = write_point(tmp_path, x=("1", "0"), z=("0",))
    code, out, _ = run(capsys, "lp", "check", str(inst), "--point", point)
    assert code == 0
    violated = json.loads(out)["violated"]
    assert (violated["kind"], violated["pair"], violated["side"]) == ("cut", 0, ["7", "9"])
    family = tmp_path / "family.txt"
    family.write_text(f"cut {violated['pair']} {' '.join(violated['side'])}\n")
    code, out, _ = run(capsys, "lp", "verify-vertex", str(inst),
                       "--point", point, "--family", str(family))
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is False and doc["all_tight"] is False  # the cut reads 0


def test_verify_vertex_gadget(capsys):
    code, out, _ = run(capsys, "lp", "verify-vertex", "--gadget-k", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["unique"] is True
    assert doc["max_coord"]["exact"] == "1/3"


def test_verify_vertex_reads_an_empty_point_as_zero(tmp_path, capsys):
    inst = tmp_path / "edge.pcsf"
    inst.write_text("pcsf 1\nedge a b 1\npair a b 1\n")
    point = tmp_path / "empty.sol"
    point.write_text("")
    family = tmp_path / "family.txt"
    family.write_text("cut 0 a\n")
    code, out, _ = run(capsys, "lp", "verify-vertex", str(inst),
                       "--point", str(point), "--family", str(family))
    assert code == 0
    doc = json.loads(out)
    assert doc["max_coord"]["exact"] == "0" and doc["feasible"] is False


def test_verify_vertex_family_file(tmp_path, capsys):
    inst = write_triangle(tmp_path, penalty="1/2")
    point = write_point(tmp_path, x=("0", "0", "0"), z=("1",))
    family = tmp_path / "family.txt"
    family.write_text("cut 0 a\nnonneg_x 0\nnonneg_x 1\nnonneg_x 2\n")
    code, out, _ = run(capsys, "lp", "verify-vertex", inst,
                       "--point", point, "--family", str(family))
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True and doc["all_tight"] is True
    assert doc["unique"] is True  # rank 4 = 3 edges + 1 pair


def test_ip_solve(tmp_path, capsys):
    inst = write_triangle(tmp_path, penalty="1/2")
    code, out, _ = run(capsys, "ip", "solve", inst)
    assert code == 0
    doc = json.loads(out)
    assert doc["objective"]["exact"] == "1/2" and doc["forest"] == []


def test_round(tmp_path, capsys):
    inst = write_triangle(tmp_path, penalty="2")
    point = write_point(tmp_path)
    code, out, _ = run(capsys, "round", inst, "--point", point)
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"]["exact"] == "1/3"
    assert doc["objective"] is not None
    assert doc["ratio_bound"]["exact"] == "3"


def test_decompose_min_alpha_with_witness(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    point = write_point(tmp_path)
    dist_path = tmp_path / "dist.txt"
    wit_path = tmp_path / "wit.pcsf"
    code, out, _ = run(capsys, "decompose", "min-alpha", inst, "--point", point,
                       "-o", str(dist_path), "--witness", str(wit_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha_star"]["exact"] == "1"
    assert dist_path.exists() and wit_path.exists()


def test_decompose_min_beta_zero_writes_no_witness(tmp_path, capsys):
    # the empty forest dominates (x, z), so beta* = 0 and no lmp witness
    # divides the penalties by it
    inst = tmp_path / "path.pcsf"
    inst.write_text("pcsf 1\nedge a b 1\nedge b c 1\npair a c 1\n")
    point = write_point(tmp_path, x=("1/2", "1/2"), z=("1",))
    wit_path = tmp_path / "wit.pcsf"
    dist_path = tmp_path / "dist.txt"
    code, out, err = run(capsys, "decompose", "min-beta", str(inst), "--point", point,
                         "-o", str(dist_path), "--witness", str(wit_path))
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "validation" and "beta" in doc["error"]
    assert not wit_path.exists() and not dist_path.exists()


def test_decompose_explicit_verify_trace(tmp_path, capsys):
    dist_path = tmp_path / "dist.txt"
    code, out, _ = run(capsys, "decompose", "explicit", "--m", "4", "--k", "0",
                       "--alpha", "9/4", "-o", str(dist_path))
    assert code == 0
    assert json.loads(out)["support"] == 17
    code, out, _ = run(capsys, "decompose", "verify", "--m", "4", "--k", "0",
                       "--mode", "gap", "--alpha", "9/4", "--dist", str(dist_path))
    assert code == 0
    assert json.loads(out)["passes"] is True
    code, out, _ = run(capsys, "decompose", "trace", "--m", "4", "--k", "0",
                       "--alpha", "9/4", "--dist", str(dist_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True and len(doc["steps"]) == 1


def test_decompose_verify_needs_its_scale(tmp_path, capsys):
    dist_path = tmp_path / "dist.txt"
    assert run(capsys, "decompose", "explicit", "--m", "2", "-o", str(dist_path))[0] == 0
    for mode in ("gap", "lmp"):
        code, _, err = run(capsys, "decompose", "verify", "--m", "2", "--mode", mode,
                           "--dist", str(dist_path))
        assert code == 2
        assert json.loads(err)["type"] == "validation"


def test_bounds_alpha_csv(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "bounds", "alpha", "--n", "100", "--k", "0:20",
                       "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,k,l,bound,alpha_star,beta_star,ratio"
    assert len(lines) == 22
    values = [Fraction(line.split(",")[3]) for line in lines[1:]]
    assert values == sorted(values)  # monotone in k


def test_bounds_beta(capsys):
    code, out, _ = run(capsys, "bounds", "beta", "--l", "4")
    assert code == 0
    assert json.loads(out)["bound"]["exact"] == "3"


def test_bounds_validation_errors_write_nothing(tmp_path, capsys):
    # an empty lo:hi range, and n without k or k without n in bounds beta
    csv_path = tmp_path / "curve.csv"
    for argv in (["alpha", "--n", "5:3", "--k", "1"],
                 ["beta", "--l", "3", "--n", "5:3", "--k", "1"],
                 ["beta", "--l", "3", "--n", "5"],
                 ["beta", "--l", "3", "--k", "1"]):
        code, _, err = run(capsys, "bounds", *argv, "--csv", str(csv_path))
        assert code == 2
        assert json.loads(err)["type"] == "validation"
        assert not csv_path.exists()


def test_gen_layered_point_mode_error_writes_nothing(tmp_path, capsys):
    out_path, point_path = tmp_path / "i.pcsf", tmp_path / "p.sol"
    code, _, err = run(capsys, "gen", "layered", "--base", "complete(5)", "--m", "2",
                       "-o", str(out_path), "--point", str(point_path))
    assert code == 2
    assert "3-regular" in json.loads(err)["error"]
    assert not out_path.exists() and not point_path.exists()


def test_round_best_and_two_value(tmp_path, capsys):
    # depth-0 K4, m=1 at the lmp point (value 6)
    inst, point = str(tmp_path / "k4m1.pcsf"), str(tmp_path / "k4m1.sol")
    assert run(capsys, "gen", "layered", "--base", "k4", "--m", "1", "--k", "0",
               "--point-mode", "lmp", "-o", inst, "--point", point)[0] == 0
    code, out, _ = run(capsys, "round", inst, "--point", point, "--method", "best")
    assert code == 0
    doc = json.loads(out)
    exact = [doc[key]["exact"] for key in ("theta", "objective", "ratio_bound")]
    assert exact == ["1/3", "9", "3"]
    code, out, _ = run(capsys, "round", inst, "--point", point,
                       "--method", "two-value", "--p", "3/4")
    assert code == 0
    doc = json.loads(out)
    exact = [doc[key]["exact"] for key in ("gamma", "objective", "ratio_bound")]
    assert exact == ["1/3", "9", "9/4"]


def test_round_broken_guarantee_exit_code(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "tri.pcsf"
    inst.write_text("pcsf 1\nedge a b 10\nedge b c 10\nedge a c 1\npair a c 100\n")
    point = write_point(tmp_path, x=("0", "0", "1"))
    # the long way round costs 20, over the guarantee 3 * 1
    monkeypatch.setattr(rounding, "gw_steiner_forest", lambda inst, required: {0, 1})
    code, _, err = run(capsys, "round", str(inst), "--point", point)
    assert code == 5
    assert json.loads(err)["type"] == "guarantee"


def test_report_gap(tmp_path, capsys):
    path = tmp_path / "c4.pcsf"
    path.write_text("pcsf 1\n"
                    "edge a b 1\nedge b c 1\nedge c d 1\nedge d a 1\n"
                    "pair a c inf\npair b d inf\n")
    csv_path = tmp_path / "gap.csv"
    code, out, _ = run(capsys, "report", "gap", str(path), "--csv", str(csv_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"]["exact"] == "3/2"
    assert csv_path.read_text().splitlines() == ["n,k,l,bound,alpha_star,beta_star,ratio",
                                                 ",,,,,,3/2"]


def test_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "lp", "solve", str(tmp_path / "missing.pcsf"))
    assert code == 2
    assert json.loads(err)["type"] == "validation"
    # infinite pair in a disconnected graph -> infeasible
    path = tmp_path / "disc.pcsf"
    path.write_text("pcsf 1\nedge a b 1\nedge c d 1\npair a c inf\n")
    code, _, err = run(capsys, "lp", "solve", str(path))
    assert code == 4
    # scale cap
    big = tmp_path / "big.pcsf"
    lines = ["pcsf 1"] + [f"edge v{i} v{i+1} 1" for i in range(45)] + ["pair v0 v45 1"]
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "ip", "solve", str(big))
    assert code == 3
    assert json.loads(err)["type"] == "scale_cap"


def test_removed_options_are_unknown(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    for argv in (["lp", "solve", inst, "--mode", "tol"],
                 ["--seed", "1", "lp", "solve", inst],
                 ["gen", "layered", "--scheme", "unit"],
                 ["gen", "base", "--json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_gen_layered_past_node_cap(capsys):
    code, _, err = run(capsys, "gen", "layered", "--m", "5", "--k", "3")
    assert code == 3
    assert json.loads(err)["type"] == "scale_cap"
