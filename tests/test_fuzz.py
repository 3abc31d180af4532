"""Fuzzed input through the CLI.

Random and mutated chain documents of all three kinds (mutations of the
builtins' JSON) and random polynomial text must end within a time bound with
exit 0, 1 or 2.  Exit 2 prints exactly one `error:` line, never an internal
error, and no run prints a traceback.  The example counts are fixed, so the
suite's run time is too.
"""

import contextlib
import copy
import io
import json
from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from p1homotopy import exprio
from p1homotopy.cli import CHAIN_COMMANDS, main

FUZZ = settings(max_examples=120, deadline=timedelta(seconds=3), derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
# kind -> command line before the file; the plane search is kept small
COMMANDS = {kind: [command] for command, (kind, _, _) in CHAIN_COMMANDS.items()}
COMMANDS["plane"] += ["--nmax", "2", "--dmax", "4"]
BUILTINS = {kind: exprio.chain_to_json(builtin(), kind) for kind, builtin, _ in CHAIN_COMMANDS.values()}
KEYS = ["links", "from", "to", "cert", "family", "orientation", "ring", "n", "f", "g",
        "a", "b", "c", "d", "F0", "F1", "N", "combos", "A", "B", "extra"]

tokens = st.sampled_from(["X", "T", "T0", "T1", "W", "0", "1", "2", "7", "12", "3/2",
                          "+", "-", "*", "^", "(", ")", "/", " "])
poly_text = st.lists(tokens, max_size=24).map("".join)
leaves = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.integers(), poly_text,
                   st.sampled_from(["forward", "reversed", "Z", "Q", "fp:7", "fp:4"]))
json_values = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(KEYS), inner, max_size=4)),
    max_leaves=10,
)


def _slots(node):
    """(container, key) of every value below node."""
    out = []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        out.append((node, key))
        if isinstance(child, (dict, list)):
            out += _slots(child)
    return out


@st.composite
def mutated_documents(draw):
    kind = draw(st.sampled_from(sorted(BUILTINS)))
    doc = copy.deepcopy(BUILTINS[kind])
    for _ in range(draw(st.integers(1, 3))):
        owner, key = draw(st.sampled_from(_slots(doc)))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            owner[key] = draw(json_values)
        elif action == "delete":
            del owner[key]
        elif isinstance(owner, dict):
            owner[draw(st.sampled_from(KEYS))] = draw(json_values)
        else:
            owner.append(draw(json_values))
    return kind, doc


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 2:  # a malformed input, never an engine bug
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not err.startswith("error: internal error"), err
    else:
        assert err == "", err


def _verify(tmp_path_factory, kind, doc):
    path = tmp_path_factory.mktemp("fuzz") / "chain.json"
    path.write_text(json.dumps(doc))
    _outcome([COMMANDS[kind][0], str(path), *COMMANDS[kind][1:]])


@FUZZ
@given(mutated_documents())
def test_mutated_chain_documents(tmp_path_factory, case):
    _verify(tmp_path_factory, *case)


@FUZZ
@given(st.sampled_from(sorted(BUILTINS)), json_values)
def test_random_chain_documents(tmp_path_factory, kind, doc):
    _verify(tmp_path_factory, kind, doc)


@FUZZ
@given(poly_text, poly_text, st.sampled_from(["z", "q", "fp:7", "fp:1000003"]))
def test_random_polynomial_text(f, g, ring):
    # a token that starts with "-" is polynomial text, before or after the
    # options, unless it names a declared option
    _outcome(["res", "--ring", ring, "--", f, g])
    if "--" not in (f, g):  # a bare "--" is the end of the options
        _outcome(["res", f, g, "--ring", ring])
    _outcome(["validate", f"{f}/{g}", "--ring", ring])
