"""Bad input files end in a JSON error and a nonzero exit, never a traceback.

Each text format (instance, point, distribution, constraint family) is read
through `rational.read_records`; ids and names that point outside the
instance or graph are rejected with exit code 2."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcsf.cli import main
from pcsf.rational import parse_rational

TRIANGLE = "pcsf 1\nedge a b 1\nedge b c 1\nedge a c 1\npair a c 1/2\n"
POINT = "x 0 0\nx 1 0\nx 2 0\nz 0 1\n"
FAMILY = "cut 0 a\nnonneg_x 0\nnonneg_x 1\nnonneg_x 2\n"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def files(tmp_path, **texts):
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    return paths


def assert_validation_error(code, err, *needles):
    assert code == 2
    doc = json.loads(err)
    assert doc["type"] == "validation"
    for needle in needles:
        assert needle in doc["error"]


# --- ids outside the instance -------------------------------------------

@pytest.mark.parametrize("line", ["z 7 1", "z -1 1", "x 3 0", "x -1 0"])
@pytest.mark.parametrize("command", [
    ["lp", "check", "{inst}", "--point", "{point}"],
    ["lp", "verify-vertex", "{inst}", "--point", "{point}", "--family", "{family}"],
    ["round", "{inst}", "--point", "{point}"],
    ["decompose", "min-alpha", "{inst}", "--point", "{point}"],
    ["decompose", "min-beta", "{inst}", "--point", "{point}"],
])
def test_point_ids_outside_the_instance_exit_2(tmp_path, command, line):
    p = files(tmp_path, inst=TRIANGLE, point=POINT + line + "\n", family=FAMILY)
    code, _, err = run(*(arg.format(**p) for arg in command))
    assert_validation_error(code, err, " ".join(line.split()[:2]))


def test_point_id_given_twice_exits_2(tmp_path):
    p = files(tmp_path, inst=TRIANGLE, point=POINT + "z 0 0\n")
    code, _, err = run("lp", "check", p["inst"], "--point", p["point"])
    assert_validation_error(code, err, f"{p['point']}:5")


@pytest.mark.parametrize("command", ["verify", "trace"])
@pytest.mark.parametrize("edge", ["-1", "18", "999"])
def test_distribution_ids_outside_the_graph_exit_2(tmp_path, command, edge):
    # the m = 2 layered graph over K4 has 18 edges, ids 0..17
    p = files(tmp_path, dist=f"forest 1\ne {edge}\n")
    code, _, err = run("decompose", command, "--m", "2", "--alpha", "9/4", "--dist", p["dist"])
    assert_validation_error(code, err, f"[{edge}]")


def test_distribution_on_the_last_edge_is_checked(tmp_path):
    # edge 17 is the one `e -1` used to stand for; its marginal 1 exceeds 9/4 * x_17
    p = files(tmp_path, dist="forest 1\ne 17\n")
    code, out, _ = run("decompose", "verify", "--m", "2", "--alpha", "9/4", "--dist", p["dist"])
    assert code == 4
    assert [row[0] for row in json.loads(out)["edge_failures"]] == [17]


@pytest.mark.parametrize("family, needle", [
    ("cut -1 a\n", "unknown pair -1"),
    ("cut 1 a\n", "unknown pair 1"),
    ("nonneg_z -1\n", "unknown pair -1"),
    ("cut 0 zz\n", ":1: unknown node 'zz'"),
    ("nonneg_x 0\ncut 0 a zz\n", ":2: unknown node 'zz'"),
])
def test_family_pairs_and_names_outside_the_instance_exit_2(tmp_path, family, needle):
    p = files(tmp_path, inst=TRIANGLE, point=POINT, family=family)
    code, _, err = run("lp", "verify-vertex", p["inst"], "--point", p["point"],
                       "--family", p["family"])
    assert_validation_error(code, err, needle)


def test_verify_vertex_without_its_files_exits_2(tmp_path):
    p = files(tmp_path, inst=TRIANGLE, point=POINT)
    for argv in (["lp", "verify-vertex"],
                 ["lp", "verify-vertex", p["inst"], "--point", p["point"]]):
        code, _, err = run(*argv)
        assert_validation_error(code, err, "--gadget-k")


# --- malformed distributions and bad tokens ------------------------------

@pytest.mark.parametrize("command", ["verify", "trace"])
@pytest.mark.parametrize("text, needle", [
    ("forest -1\ne 0\nforest 2\ne 1\n", "negative weight"),
    # the 18 edges of the m = 2 layered graph over K4 hold a cycle
    ("forest 1\n" + "".join(f"e {e}\n" for e in range(18)), "cycle"),
    ("forest 1/2\ne 0\n", "weights sum to 1/2"),
], ids=["negative-weight", "cycle", "sum"])
def test_malformed_distributions_exit_2(tmp_path, command, text, needle):
    p = files(tmp_path, dist=text)
    code, out, err = run("decompose", command, "--m", "2", "--alpha", "9/4", "--dist", p["dist"])
    assert out == ""
    assert_validation_error(code, err, needle)


@pytest.mark.parametrize("name, text, line", [
    ("inst", TRIANGLE.replace("edge b c 1", "edge b c 1/x"), 3),
    ("inst", TRIANGLE.replace("pair a c 1/2", "pair a c nan"), 5),
    ("point", POINT.replace("x 1 0", "x 1 nan"), 2),
    ("point", POINT.replace("z 0 1", "z zero 1"), 4),
    ("dist", "forest 1\ne x\n", 2),
    ("dist", "# weights\nforest 1/x\n", 2),
    ("family", FAMILY.replace("nonneg_x 2", "nonneg_x two"), 4),
    ("family", "cut a a\n", 1),
    ("point", POINT + "x 1\n", 5),  # a malformed line is named once, not twice
], ids=["inst-cost", "inst-penalty", "point-value", "point-id", "dist-edge", "dist-weight",
        "family-edge", "family-pair", "point-malformed-line"])
def test_bad_tokens_name_their_file_and_line(tmp_path, name, text, line):
    p = files(tmp_path, **{"inst": TRIANGLE, "point": POINT, "dist": "", "family": FAMILY,
                           name: text})
    if name == "dist":
        argv = ["decompose", "verify", "--m", "2", "--alpha", "9/4", "--dist", p["dist"]]
    else:
        argv = ["lp", "verify-vertex", p["inst"], "--point", p["point"], "--family", p["family"]]
    code, _, err = run(*argv)
    assert_validation_error(code, err, f"{p[name]}:{line}: ")
    assert json.loads(err)["error"].count(str(p[name])) == 1


# --- zero denominators --------------------------------------------------

def test_parse_rational_zero_denominator_is_a_value_error():
    for token in ("1/0", "0/0", "-3/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(token)


@pytest.mark.parametrize("name, text", [
    ("inst", TRIANGLE.replace("edge b c 1", "edge b c 1/0")),
    ("inst", TRIANGLE.replace("pair a c 1/2", "pair a c 1/0")),
    ("point", POINT.replace("x 1 0", "x 1 1/0")),
    ("dist", "forest 1/0\ne 0\n"),
])
def test_zero_denominators_exit_2(tmp_path, name, text):
    p = files(tmp_path, **{"inst": TRIANGLE, "point": POINT, "dist": "", name: text})
    if name == "dist":
        argv = ["decompose", "verify", "--m", "2", "--alpha", "9/4", "--dist", p["dist"]]
    else:
        argv = ["lp", "check", p["inst"], "--point", p["point"]]
    code, _, err = run(*argv)
    assert_validation_error(code, err, "zero denominator")


# --- the edge cap -------------------------------------------------------

def test_edge_cap_is_set_by_the_flag_only(tmp_path, monkeypatch):
    p = files(tmp_path, inst=TRIANGLE)
    monkeypatch.setenv("PCSF_EDGE_CAP", "1")
    assert run("ip", "solve", p["inst"])[0] == 0
    code, _, err = run("ip", "solve", p["inst"], "--edge-cap", "2")
    assert code == 3 and json.loads(err)["type"] == "scale_cap"


# --- line soups ---------------------------------------------------------

SOUP = settings(derandomize=True, max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

def mixed(good, bad):
    """Tokens drawn from ``good`` three times in four, else from ``bad``."""
    return st.sampled_from(good * (3 * len(bad)) + bad * len(good))


IDS = mixed(["0", "1", "2", "3"], ["-1", "-7", "17", "999", str(10 ** 30), str(-(2 ** 63))])
VALUES = mixed(["0", "1", "1/2", "2/3", "0.25", "1e3"],
               ["-1", "1/0", "0/0", "3/-4", "inf", "nan", str(10 ** 30)])
NAMES = mixed(["a", "b", "c", "d"], ["zz"])
TOKENS = st.one_of(IDS, VALUES, NAMES, st.sampled_from(["", "#", "x#y", "?", "1//2", "a/b"]))
KEYWORDS = st.sampled_from(["pcsf", "edge", "pair", "x", "z", "forest", "e", "cut",
                            "nonneg_x", "nonneg_z", "junk"])
INSTANCE = [("edge", [NAMES, NAMES, VALUES]), ("pair", [NAMES, NAMES, VALUES])]
POINTS = [("x", [IDS, VALUES]), ("z", [IDS, VALUES])]
DISTRIBUTION = [("forest", [VALUES]), ("e", [IDS]), ("e", [IDS])]
FAMILIES = [("cut", [IDS, NAMES]), ("cut", [IDS, NAMES, NAMES]), ("nonneg_x", [IDS]),
            ("nonneg_z", [IDS])]


@st.composite
def soups(draw, grammar, first=None):
    """Up to 8 lines: ``first`` (the header or opening line) in four soups
    of five, then lines of which seven in eight follow the format's grammar
    with ids, values and names that may be out of range or malformed, and
    the rest are a keyword of any format followed by 0..4 tokens of any kind."""
    rules = st.sampled_from(grammar * 7 + [None] * len(grammar))
    lines = [first] if first and draw(st.sampled_from([1, 1, 1, 1, 0])) else []
    for _ in range(draw(st.integers(0, 7))):
        rule = draw(rules)
        if rule is None:
            fields = [draw(KEYWORDS)] + draw(st.lists(TOKENS, max_size=4))
        else:
            fields = [rule[0]] + [draw(kind) for kind in rule[1]]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def check_soup(argv):
    """main() returns, and a nonzero exit comes with a JSON error of the
    matching type on stderr, or is decompose verify's failing verdict; any
    error decompose verify reports is one of its input."""
    code, out, err = run(*argv)
    if code == 0:
        return
    if err:
        doc = json.loads(err)
        assert doc["error"]
        assert {"validation": 2, "scale_cap": 3, "infeasible": 4, "guarantee": 5}[doc["type"]] == code
        if argv[:2] == ["decompose", "verify"]:
            assert doc["type"] == "validation"
    else:
        assert argv[:2] == ["decompose", "verify"] and code == 4
        assert json.loads(out)["passes"] is False


@SOUP
@given(text=soups(INSTANCE, first="pcsf 1"))
def test_instance_soups_never_raise(tmp_path, text):
    p = files(tmp_path, inst=text)
    check_soup(["lp", "solve", p["inst"]])
    check_soup(["gen", "base", "--base", "from_file", "--base-file", p["inst"]])


@SOUP
@given(text=soups(POINTS))
def test_point_soups_never_raise(tmp_path, text):
    p = files(tmp_path, inst=TRIANGLE, point=text)
    check_soup(["lp", "check", p["inst"], "--point", p["point"]])


@SOUP
@given(text=soups(DISTRIBUTION, first="forest 1"))
def test_distribution_soups_never_raise(tmp_path, text):
    p = files(tmp_path, dist=text)
    check_soup(["decompose", "verify", "--m", "2", "--alpha", "9/4", "--dist", p["dist"]])


@SOUP
@given(text=soups(FAMILIES))
def test_family_soups_never_raise(tmp_path, text):
    p = files(tmp_path, inst=TRIANGLE, point=POINT, family=text)
    check_soup(["lp", "verify-vertex", p["inst"], "--point", p["point"],
                "--family", p["family"]])
