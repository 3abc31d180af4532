import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import p1homotopy
from p1homotopy import exprio
from p1homotopy.cli import main
from p1homotopy.homotopy import builtin_chain
from p1homotopy.plane import builtin_plane_chain
from p1homotopy.projlinear import builtin_matrix_chain


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


class TestVerifyCommands:
    def test_builtin_chain(self, capsys):
        code, out, _ = run(capsys, "verify-chain", "--builtin", "prop_3_4_3")
        assert code == 0 and out.strip().endswith("PASS")

    def test_chain_from_file(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(exprio.chain_to_json(builtin_chain())))
        code, out, _ = run(capsys, "verify-chain", str(path))
        assert code == 0 and "PASS" in out

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, _, err = run(capsys, "verify-chain", str(path))
        assert code == 2 and err == "error: input is nested too deeply\n"

    def test_failing_chain_file_exits_1(self, capsys, tmp_path):
        blob = exprio.chain_to_json(builtin_chain())
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

    def test_matrix_chain_exact_junctions(self, capsys):
        code, out, _ = run(
            capsys, "verify-matrix-chain", "--builtin", "prop_3_4_2", "--exact-junctions"
        )
        assert code == 1 and "junction 1/2" in out

    def test_matrix_chain_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(exprio.matrix_chain_to_json(builtin_matrix_chain())))
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
        path.write_text(json.dumps(exprio.plane_chain_to_json(builtin_plane_chain())))
        code, _, _ = run(capsys, "verify-plane-chain", str(path), "--nmax", "2", "--dmax", "4")
        assert code == 0

    def test_file_and_builtin_are_exclusive(self, capsys):
        code, _, err = run(capsys, "verify-chain")
        assert code == 2
        code, _, err = run(capsys, "verify-chain", "x.json", "--builtin", "prop_3_4_3")
        assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["res", "0", "0", "--nf", "-1", "--ng", "-1"], "--nf"),
    (["res", "0", "X", "--nf", "-1"], "--nf"),
    (["res", "X", "0", "--ng", "-1"], "--ng"),
    (["selftest", "--trials", "-5"], "--trials"),
    (["verify-plane-chain", "--builtin", "prop_3_4_5", "--nmax", "0"], "--nmax"),
    (["verify-plane-chain", "--builtin", "prop_3_4_5", "--dmax", "-1"], "--dmax"),
])
def test_out_of_range_integer_flag_exits_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be at least") and err.count("\n") == 1


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
