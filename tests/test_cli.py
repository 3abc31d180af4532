import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import p1homotopy
from p1homotopy import cli, exprio, properties, selftest
from p1homotopy.cli import main
from p1homotopy.homotopy import builtin_chain
from p1homotopy.plane import builtin_plane_chain
from p1homotopy.projlinear import builtin_matrix_chain
from p1homotopy.resultants import SYLVESTER_SIZE_LIMIT
from p1homotopy.rings import ExactDivisionError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRes:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "res", "X^2 - X + 1", "X - 1")
        assert code == 0 and out.strip() == "1"

    def test_formal_degrees_and_ring(self, capsys):
        code, out, _ = run(capsys, "res", "X^2", "2", "--nf", "2", "--ng", "2", "--ring", "q")
        assert code == 0 and out.strip() == "4"

    def test_t_coefficients(self, capsys):
        code, out, _ = run(capsys, "res", "X^2", "X + T")
        assert code == 0 and out.strip() == "T^2"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "res", "X^2", "T*X + 1", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload == {"resultant": "1", "n": 2, "m": 1, "ring": "Z"}

    def test_bad_formal_degree(self, capsys):
        code, _, err = run(capsys, "res", "X^2", "1", "--nf", "1")
        assert code == 2 and "formal degree" in err

    def test_leading_minus_is_polynomial_text(self, capsys):
        # every option is long but -h, so "-X" is a polynomial, before or
        # after the options, with or without "--"
        assert run(capsys, "res", "-X", "1") == (0, "1\n", "")
        assert run(capsys, "res", "--", "-X", "1") == (0, "1\n", "")
        code, out, _ = run(capsys, "res", "-X", "-2*X+1", "--json", "--ring", "q")
        assert code == 0 and json.loads(out)["resultant"] == "-1"
        code, out, _ = run(capsys, "res", "--ring", "fp:7", "-X-T", "1")
        assert code == 0 and out == "1\n"

    def test_leading_double_minus_is_polynomial_text(self, capsys):
        # "--X" is no declared option nor a prefix of one, so it is text
        assert run(capsys, "res", "--X", "1") == (0, "1\n", "")
        code, out, _ = run(capsys, "res", "--X", "1", "--json")
        assert code == 0 and json.loads(out)["resultant"] == "1"

    @pytest.mark.parametrize("argv, out", [
        (["res", "X^2", "1", "--js"], '{"resultant": "1", "n": 2, "m": 0, "ring": "Z"}\n'),
        (["res", "X^2", "1", "--nf=2"], "1\n"),
        (["res", "--", "--X", "1"], "1\n"),
    ])
    def test_declared_options_and_abbreviations_stay_options(self, capsys, argv, out):
        assert run(capsys, *argv) == (0, out, "")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_flags(self, capsys, flag):
        code, out, _ = run(capsys, "res", "--X", flag)
        assert code == 0 and out.startswith("usage: p1homotopy res")

    def test_help_after_a_leading_minus_argument(self, capsys):
        code, out, _ = run(capsys, "res", "-X", "-h")
        assert code == 0 and out.startswith("usage: p1homotopy res")


class TestValidate:
    def test_valid(self, capsys):
        code, out, _ = run(capsys, "validate", "X^2/1")
        assert code == 0 and "valid" in out and "res = 1" in out

    def test_invalid_exit_1(self, capsys):
        code, out, _ = run(capsys, "validate", "X^2/2", "--ring", "z")
        assert code == 1 and "ResultantNotUnit(4)" in out

    def test_deep_nesting_exit_2(self, capsys):
        deep = "(" * 3000 + "X" + ")" * 3000 + "/1"
        code, _, err = run(capsys, "validate", deep)
        assert code == 2 and err == "error: input is nested too deeply\n"

    def test_ring_switch(self, capsys):
        code, _, _ = run(capsys, "validate", "X^2/2", "--ring", "q")
        assert code == 0

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "validate", "X^2/((")
        assert code == 2 and "position" in err

    def test_unknown_ring(self, capsys):
        code, _, err = run(capsys, "validate", "X/1", "--ring", "octonions")
        assert code == 2

    def test_leading_minus_is_polynomial_text(self, capsys):
        code, out, _ = run(capsys, "validate", "-1+X/1")
        assert code == 0 and out.startswith("valid: (X - 1)/1")
        code, out, _ = run(capsys, "validate", "-X/1", "--json")
        assert code == 1 and json.loads(out)["error"] == "NotMonic"
        code, out, _ = run(capsys, "validate", "--X/1")
        assert code == 0 and out.startswith("valid: X/1 over Z")


class TestBezoutOplus:
    def test_bezout(self, capsys):
        code, out, _ = run(capsys, "bezout", "(X^2 - X + 1)/(X - 1)")
        assert code == 0
        assert "p = 1" in out and "q = -X" in out
        assert "matrix = [[X^2 - X + 1, X], [X - 1, 1]]" in out

    def test_bezout_json(self, capsys):
        code, out, _ = run(capsys, "bezout", "X/1", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["p"] == "0" and payload["q"] == "1"
        assert exprio.sl2_from_json(payload).map.n == 1

    def test_oplus_pair(self, capsys):
        code, out, _ = run(capsys, "oplus", "X/1", "(X-1)/(-1)")
        assert code == 0 and out.strip() == "(X^2 - X + 1)/(X - 1)"

    def test_oplus_left_fold(self, capsys):
        code, out, _ = run(capsys, "oplus", "X/1", "X/1", "X/1", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["n"] == 3

    def test_oplus_invalid_operand(self, capsys):
        code, out, _ = run(capsys, "oplus", "X/1", "X^2/2")
        assert code == 1 and "ResultantNotUnit" in out

    def test_oplus_leading_minus_operands(self, capsys):
        code, out, _ = run(capsys, "oplus", "-1+X/1", "X/1")
        assert code == 0 and out.strip() == "(X^2 - X - 1)/X"
        code, out, _ = run(capsys, "oplus", "X/1", "-X/-1", "--json")
        assert code == 1 and json.loads(out)["operand"] == "-X/-1"


class TestVerifyCommands:
    def test_builtin_chain(self, capsys):
        code, out, _ = run(capsys, "verify-chain", "--builtin", "prop_3_4_3")
        assert code == 0 and out.strip().endswith("PASS")

    def test_chain_from_file(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(exprio.chain_to_json(builtin_chain(), "homotopy")))
        code, out, _ = run(capsys, "verify-chain", str(path))
        assert code == 0 and "PASS" in out

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, _, err = run(capsys, "verify-chain", str(path))
        assert code == 2 and err == "error: input is nested too deeply\n"

    def test_failing_chain_file_exits_1(self, capsys, tmp_path):
        blob = exprio.chain_to_json(builtin_chain(), "homotopy")
        blob["links"][2]["orientation"] = "forward"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        code, out, _ = run(capsys, "verify-chain", str(path))
        assert code == 1 and "junction 2/3" in out

    def test_schema_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"links": []}')
        code, _, err = run(capsys, "verify-chain", str(path))
        assert code == 2 and "missing keys" in err

    @pytest.mark.parametrize("command, blob", [
        ("verify-chain", {  # map n
            "links": [],
            "from": {"ring": "Z", "n": True, "f": "X", "g": "1"},
            "to": {"ring": "Z", "n": 1, "f": "X", "g": "1"},
        }),
        ("verify-chain", {  # certificate n
            "links": [{"cert": {"ring": "Z", "n": True, "f": "X", "g": "1"},
                       "orientation": "forward"}],
            "from": {"ring": "Z", "n": 1, "f": "X", "g": "1"},
            "to": {"ring": "Z", "n": 1, "f": "X", "g": "1"},
        }),
        ("verify-matrix-chain", {  # Mat2 entry
            "links": [],
            "from": {"a": True, "b": 0, "c": 0, "d": 1},
            "to": {"a": 1, "b": 0, "c": 0, "d": 1},
        }),
        ("verify-plane-chain", {  # membership N
            "links": [{"family": {"F0": "T0", "F1": "T1"}, "orientation": "forward",
                       "cert": {"N": True, "combos": [{"A": "0", "B": "1"},
                                                      {"A": "1", "B": "0"}]}}],
            "from": {"F0": "T0", "F1": "T1"},
            "to": {"F0": "T0", "F1": "T1"},
        }),
    ], ids=["map_n", "cert_n", "mat2_entry", "membership_N"])
    def test_json_true_is_not_an_integer(self, capsys, tmp_path, command, blob):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(blob))
        code, _, err = run(capsys, command, str(path))
        assert code == 2 and err.startswith("error: ")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "verify-chain", "/nonexistent/chain.json")
        assert code == 2

    def test_matrix_chain(self, capsys):
        code, out, _ = run(capsys, "verify-matrix-chain", "--builtin", "prop_3_4_2")
        assert code == 0 and "unit -1" in out

    def test_matrix_exact_junctions(self, capsys):
        code, out, _ = run(
            capsys, "verify-matrix-chain", "--builtin", "prop_3_4_2", "--exact-junctions"
        )
        assert code == 1 and "junction 1/2" in out

    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(exprio.chain_to_json(builtin_matrix_chain(), "matrix")))
        code, _, _ = run(capsys, "verify-matrix-chain", str(path))
        assert code == 0

    def test_plane_chain(self, capsys):
        code, out, _ = run(
            capsys, "verify-plane-chain", "--builtin", "prop_3_4_5", "--nmax", "2", "--dmax", "4"
        )
        assert code == 0 and "N = 2" in out

    def test_plane_chain_json(self, capsys):
        code, out, _ = run(
            capsys, "verify-plane-chain", "--builtin", "prop_3_4_5",
            "--nmax", "2", "--dmax", "4", "--json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["passed"] is True
        assert all(l["cert"]["N"] <= 2 for l in payload["links"])

    def test_plane_chain_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(exprio.chain_to_json(builtin_plane_chain(), "plane")))
        code, _, _ = run(capsys, "verify-plane-chain", str(path), "--nmax", "2", "--dmax", "4")
        assert code == 0

    def test_file_and_builtin_are_exclusive(self, capsys):
        code, _, err = run(capsys, "verify-chain")
        assert code == 2
        code, _, err = run(capsys, "verify-chain", "x.json", "--builtin", "prop_3_4_3")
        assert code == 2


# kind -> (command, builtin chain)
KIND_COMMANDS = {kind: (command, builtin) for command, (kind, builtin, _) in cli.CHAIN_COMMANDS.items()}


def _chain_document(kind):
    """The builtin chain of a kind as a document; link 1 of the plane chain
    also carries a (well-formed) certificate."""
    doc = exprio.chain_to_json(KIND_COMMANDS[kind][1](), kind)
    if kind == "plane":
        doc["links"][1]["cert"] = {"N": 1, "combos": [{"A": "0", "B": "1"}, {"A": "1", "B": "0"}]}
    return doc


DELETE = object()
ORIENTATION = "orientation must be one of ('forward', 'reversed')"

# id -> (kind, path into the kind's document, new value or DELETE, error message)
SCHEMA_DEFECTS = {
    "homotopy_missing_key": ("homotopy", ["links", 1, "cert", "g"], DELETE,
                             "chain.links[1].cert: missing keys ['g']"),
    "homotopy_unknown_key": ("homotopy", ["links", 1, "extra"], 0,
                             "chain.links[1]: unknown keys ['extra']"),
    "matrix_missing_key": ("matrix", ["links", 1, "family", "d"], DELETE,
                           "matrix chain.links[1].family: missing keys ['d']"),
    "matrix_unknown_key": ("matrix", ["extra"], 0, "matrix chain: unknown keys ['extra']"),
    "plane_missing_key": ("plane", ["links", 1, "cert", "combos", 1, "B"], DELETE,
                          "plane chain.links[1].cert.combos[1]: missing keys ['B']"),
    "plane_unknown_key": ("plane", ["links", 1, "family", "F2"], "T",
                          "plane chain.links[1].family: unknown keys ['F2']"),
    "homotopy_links_not_a_list": ("homotopy", ["links"], {}, "chain: links must be a list"),
    "matrix_links_not_a_list": ("matrix", ["links"], "x", "matrix chain: links must be a list"),
    "plane_links_not_a_list": ("plane", ["links"], None, "plane chain: links must be a list"),
    "homotopy_orientation": ("homotopy", ["links", 1, "orientation"], "sideways",
                             f"chain.links[1]: {ORIENTATION}"),
    "matrix_orientation": ("matrix", ["links", 1, "orientation"], "backward",
                           f"matrix chain.links[1]: {ORIENTATION}"),
    "plane_orientation": ("plane", ["links", 1, "orientation"], 1,
                          f"plane chain.links[1]: {ORIENTATION}"),
    "homotopy_true_end_n": ("homotopy", ["from", "n"], True,
                            "chain.from: n must be a natural number"),
    "homotopy_true_cert_n": ("homotopy", ["links", 1, "cert", "n"], True,
                             "chain.links[1].cert: n must be a natural number"),
    "matrix_true_entry": ("matrix", ["to", "c"], True, "matrix chain.to: 'c' must be an integer"),
    "plane_true_N": ("plane", ["links", 1, "cert", "N"], True,
                     "plane chain.links[1].cert: N must be a positive integer"),
    "homotopy_end_rings": ("homotopy", ["to", "ring"], "Q", "chain: from/to rings differ"),
    "homotopy_link_ring": ("homotopy", ["links", 1, "cert", "ring"], "fp:7",
                           "chain.links[1]: ring differs from the chain ring"),
    "plane_zero_N": ("plane", ["links", 1, "cert", "N"], 0,
                     "plane chain.links[1].cert: N must be a positive integer"),
    "plane_N_without_its_pairs": ("plane", ["links", 1, "cert", "N"], 2,
                                  "plane chain.links[1].cert: combos must list N+1 pairs"),
    "plane_cert_variable": ("plane", ["links", 1, "cert", "combos", 1, "B"], "Q",
                            "plane chain.links[1].cert.combos[1].B: undeclared variable 'Q' "
                            "(declared: T0, T1, T) (at position 0)"),
    "matrix_nonconstant_end": ("matrix", ["from", "b"], "T - 1",
                               "matrix chain.from: 'b' must be constant"),
    "matrix_family_variable": ("matrix", ["links", 1, "family", "a"], "X",
                               "matrix chain.links[1].family.a: undeclared variable 'X' "
                               "(declared: T) (at position 0)"),
    "homotopy_end_degree": ("homotopy", ["from", "n"], 3,
                            "chain.from: numerator degree 2 != n = 3"),
    "homotopy_cert_degree": ("homotopy", ["links", 0, "cert", "n"], 3,
                             "chain.links[0].cert: numerator X-degree 2 != n = 3"),
    "homotopy_unknown_ring": ("homotopy", ["from", "ring"], "K",
                              "chain.from: unknown ring 'K' (expected z, q, or fp:P)"),
    "plane_end_variable": ("plane", ["from", "F1"], "T",
                           "plane chain.from.F1: undeclared variable 'T' (declared: T0, T1) "
                           "(at position 0)"),
    "plane_family_not_an_object": ("plane", ["links", 0, "family"], [],
                                   "plane chain.links[0].family: expected an object, got list"),
    "matrix_fractional_entry": ("matrix", ["to", "a"], 1.5,
                                "matrix chain.to: 'a' must be an integer"),
}


@pytest.mark.parametrize("defect", SCHEMA_DEFECTS)
def test_schema_error_is_one_line_naming_its_path(capsys, tmp_path, defect):
    kind, path, value, message = SCHEMA_DEFECTS[defect]
    doc = _chain_document(kind)
    *outer, last = path
    owner = doc
    for key in outer:
        owner = owner[key]
    if value is DELETE:
        del owner[last]
    else:
        owner[last] = value
    file = tmp_path / "defect.json"
    file.write_text(json.dumps(doc))
    code, out, err = run(capsys, KIND_COMMANDS[kind][0], str(file))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, flag", [
    (["res", "0", "0", "--nf", "-1", "--ng", "-1"], "--nf"),
    (["res", "0", "X", "--nf", "-1"], "--nf"),
    (["res", "X", "0", "--ng", "-1"], "--ng"),
    (["selftest", "--trials", "-5"], "--trials"),
    (["verify-plane-chain", "--builtin", "prop_3_4_5", "--nmax", "0"], "--nmax"),
    (["verify-plane-chain", "--builtin", "prop_3_4_5", "--dmax", "-1"], "--dmax"),
    (["selftest", "--trials", "0"], "--trials"),
])
def test_out_of_range_integer_flag_exits_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be at least") and err.count("\n") == 1


def _degree_7_chain(tmp_path):
    fam = {"F0": "T0 + T*T1^6", "F1": "T1"}
    path = tmp_path / "degree7.json"
    path.write_text(json.dumps({
        "links": [{"family": fam, "orientation": "forward"}],
        "from": {"F0": "T0", "F1": "T1"},
        "to": {"F0": "T0 + T1^6", "F1": "T1"},
    }))
    return str(path)


@pytest.mark.parametrize("argv, bounds", [
    (["--builtin", "prop_3_4_5", "--nmax", "13", "--dmax", "4"], "N <= 13, degree <= 4"),
    (["--builtin", "prop_3_4_5", "--dmax", "13"], "N <= 6, degree <= 13"),
    (["--builtin", "prop_3_4_5", "--nmax", "9"], "N <= 9, degree <= 13"),  # default cap 4 + 9
    (["DEGREE_7_FILE"], "N <= 6, degree <= 13"),  # default cap 7 + 6, from the file
], ids=["nmax", "dmax", "default_cap_builtin", "default_cap_file"])
def test_plane_search_bounds_exit_2(capsys, tmp_path, argv, bounds):
    argv = [_degree_7_chain(tmp_path) if a == "DEGREE_7_FILE" else a for a in argv]
    code, out, err = run(capsys, "verify-plane-chain", *argv)
    assert code == 2 and out == ""
    assert err == (f"error: membership search bounds {bounds} exceed the limits "
                   "N <= 12, degree <= 12\n")


def test_plane_search_at_the_bounds_runs(capsys, tmp_path):
    code, _, _ = run(capsys, "verify-plane-chain", "--builtin", "prop_3_4_5", "--nmax", "8")
    assert code == 0  # default cap 4 + 8 = 12
    code, out, _ = run(capsys, "verify-plane-chain", _degree_7_chain(tmp_path), "--nmax", "5")
    assert code == 0 and "degree <= 6" in out


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("fam, bounds", [
    ({"F0": "T0^4096", "F1": "T1"}, ["--nmax", "1", "--dmax", "0"]),
    ({"F0": "T0^4096", "F1": "T1"}, ["--nmax", "12", "--dmax", "12"]),
    ({"F0": "T0^200 + T*T1^150 + T0^3*T1^190", "F1": "T1^199 + T*T0^100 + 3*T0^7*T^90"},
     ["--nmax", "12", "--dmax", "12"]),
], ids=["deg4096-1-0", "deg4096-12-12", "deg200-12-12"])
def test_plane_search_memory_follows_the_system_not_the_degree(tmp_path, fam, bounds):
    # the filter's bitsets are as long as the system has rows: a family of
    # degree 4096 at small bounds is a small system, refuted in well under
    # 1 GiB of address space (bits indexed by exponent would need gigabytes)
    path = tmp_path / "high.json"
    end = {"F0": "T0", "F1": "T1"}
    path.write_text(json.dumps({
        "links": [{"family": fam, "orientation": "forward"}], "from": end, "to": end,
    }))
    src = str(Path(p1homotopy.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "p1homotopy.cli", "verify-plane-chain", str(path), *bounds],
        env={**os.environ, "PYTHONPATH": pythonpath}, preexec_fn=_limit_memory,
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1, result.stderr
    assert result.stdout.startswith("link 1: NOT CERTIFIED (no certificate within")


@pytest.mark.parametrize("exc", [ZeroDivisionError("division by zero"), TypeError("bad operand")])
def test_unexpected_exception_exits_2_with_one_line(capsys, monkeypatch, exc):
    # an engine bug must not read as "verification failed" (exit 1) or
    # print a traceback
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_res", broken)
    code, out, err = run(capsys, "res", "X", "1")
    assert code == 2 and out == ""
    assert err == f"error: internal error: {type(exc).__name__}: {exc}\n"


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--trials", "40", "--seed", "3")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 9
        assert all(l.startswith("PASS") for l in lines)

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "selftest", "--trials", "30", "--json")
        payload = json.loads(out)
        assert code == 0 and len(payload) == 9
        assert all(entry["passed"] for entry in payload)

    def test_a_raising_law_fails_its_suite_only(self, capsys, monkeypatch):
        # the 5th resultant is oracle_agreement's trial 4; the run goes on
        resultant, calls = properties.resultant, []

        def flaky(*args):
            calls.append(args)
            if len(calls) == 5:
                raise ExactDivisionError("not exact")
            return resultant(*args)

        monkeypatch.setattr(properties, "resultant", flaky)
        code, out, _ = run(capsys, "selftest", "--trials", "20")
        lines = out.splitlines()
        assert code == 1 and len(lines) == 10 and lines[-1].startswith("8/9 checks passed")
        assert lines[5] == ('FAIL resultant_law_suite - oracle_agreement failed: '
                            '{"trial": 4, "error": "ExactDivisionError: not exact"}')
        assert sum(l.startswith("PASS") for l in lines) == 8

    def test_a_raising_check_is_a_fail_line(self, capsys, monkeypatch):
        def broken(u):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(selftest, "homogenize", broken)
        code, out, _ = run(capsys, "selftest", "--trials", "20", "--json")
        payload = json.loads(out)
        assert code == 1 and len(payload) == 9
        assert [e["name"] for e in payload if not e["passed"]] == ["homogenization"]
        assert payload[4]["detail"] == "ZeroDivisionError: division by zero"


class TestArgparseContract:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def test_plane_chain_runs_without_numpy():
    # the package has no runtime dependency: the whole plane search, mod-p
    # filter included, runs on Python ints alone
    code = (
        "import sys\n"
        "import p1homotopy.cli\n"
        "assert p1homotopy.cli.main(['verify-plane-chain', '--builtin', 'prop_3_4_5']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(p1homotopy.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    assert run(capsys, "res", "X^2 - X + 1", "X - 1")[0] == 0
    assert run(capsys, "validate", "X/1")[0] == 0
    assert run(capsys, "res", "X", "--nf")[0] == 2
    assert run(capsys, "verify-chain", "--builtin", "prop_3_4_3")[0] == 0
    info = cli.build_parser.cache_info()
    assert info.misses == 1 and info.hits == 3


def run_subprocess(*argv):
    src = str(Path(p1homotopy.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "p1homotopy.cli", *argv], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("argv", [
    ("res", "X", "1", "--nf", str(SYLVESTER_SIZE_LIMIT + 1)),
    ("res", "X", "1", "--nf", str(10**12)),  # rejected before padding to the formal degree
    ("validate", f"X^{SYLVESTER_SIZE_LIMIT // 2 + 1}/1"),
    ("validate", "X^4096/1"),
    # the sum runs no elimination, but its Sylvester size, 120, is refused
    ("oplus", "X^30/1", "X^30/1"),
])
def test_sylvester_size_above_the_limit_exits_2(argv):
    result = run_subprocess(*argv)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: Sylvester matrix of size ")
    assert result.stderr.count("\n") == 1


def test_sylvester_size_at_the_limit_runs():
    # validate pads g to the degree n of f: the matrix has 2n rows
    result = run_subprocess("validate", f"X^{SYLVESTER_SIZE_LIMIT // 2}/1")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("valid: ")


@pytest.mark.parametrize("ring, e, where", [
    ("z", 14, "Z[T]"), ("q", 14, "Q[T]"), ("z", 50, "Z[T]"),
    ("fp:7", 15, "Fp:7[T]"), ("fp:1000003", 14, "Fp:1000003[T]"), ("fp:1000003", 50, "Fp:1000003[T]"),
])
def test_r_t_determinant_above_the_work_budget_exits_2(capsys, ring, e, where):
    # Sylvester size 2e is inside SYLVESTER_SIZE_LIMIT; the elimination would
    # take seconds to minutes, so it is refused before it starts
    code, out, err = run(capsys, "res", f"(X+T)^{e}+1", f"(X-T)^{e}", "--ring", ring)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: determinant of size {2 * e} over {where} exceeds the work budget (")


def test_r_t_determinant_inside_the_work_budget_runs(capsys):
    code, out, _ = run(capsys, "res", "(X+T)^14+1", "(X-T)^14", "--ring", "fp:7")
    assert code == 0 and out == "2*T^196 + T^98 + 1\n"


def test_certificate_above_the_work_budget_exits_2(capsys, tmp_path):
    # verify-chain reaches the same elimination through validate_cert
    end = {"ring": "Z", "n": 1, "f": "X", "g": "1"}
    cert = {"ring": "Z", "n": 14, "f": "(X+T)^14+1", "g": "(X-T)^13"}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"links": [{"cert": cert, "orientation": "forward"}],
                                "from": end, "to": end}))
    code, out, err = run(capsys, "verify-chain", str(path))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: determinant of size 28 over Z[T] exceeds the work budget (")
