"""Property test: the CLI answers every input with an exit code.

Drives ``cli.main`` in process with small custom instances (random
generators, secret and blinding domains that may be disjoint) and with
corrupted descriptor and transcript files. Whatever the input, ``main``
must return one of the documented exit codes instead of raising.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from triplepass.cli import main

EXIT_CODES = {0, 1, 2, 3, 4}
# Keeps every exhaustive job small: anything larger is refused with exit 3.
CAP = "200000"

DESCRIPTOR = {
    "name": "fuzz-f3",
    "kind": "custom",
    "p": 3,
    "generators": ["[[2,0],[0,1]]@F3"],
    "secret_domain": [1, 2],
    "t_domain": [0, 1, 2],
    "multiplicative": True,
    "embedding": None,
}
# s = 1, t = 1, A = diag(2, 1), B = identity.
TRANSCRIPTS = {
    "config": {"descriptor": DESCRIPTOR},
    "transcripts": [
        {
            "instance": "fuzz-f3",
            "p": 3,
            "v1": [2, 1],
            "v2": [2, 1],
            "v3": [1, 1],
            "truth": {"s": 1, "t": 1, "A": "[[2,0],[0,1]]@F3", "B": "[[1,0],[0,1]]@F3"},
        }
    ],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _containers(doc) -> list:
    """Every dict and list inside a JSON document, the document first."""
    if isinstance(doc, dict):
        children = list(doc.values())
    elif isinstance(doc, list):
        children = doc
    else:
        return []
    out = [doc]
    for child in children:
        out += _containers(child)
    return out


@st.composite
def corrupted(draw, base: dict) -> str:
    """``base`` with one value replaced or one key dropped, or plain text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=12))
    doc = copy.deepcopy(base)
    target = draw(st.sampled_from(_containers(doc)))
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    key = draw(st.sampled_from(keys))
    if isinstance(target, dict) and draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(json_values)
    return json.dumps(doc)


@st.composite
def custom_instance_flags(draw) -> list:
    p = draw(st.sampled_from([2, 3, 5]))
    residue = st.integers(0, p - 1)
    flags = ["--instance", "custom", "--p", str(p)]
    matrices = st.lists(st.tuples(residue, residue, residue, residue), min_size=1, max_size=2)
    for a, b, c, d in draw(matrices):
        flags += ["--generators", f"[[{a},{b}],[{c},{d}]]@F{p}"]
    domain = st.lists(residue, min_size=1, max_size=p, unique=True)
    for flag in ("--secret-domain", "--t-domain"):
        values = draw(st.none() | domain)
        if values is not None:
            flags += [flag, ",".join(map(str, values))]
    return flags


@st.composite
def cli_calls(draw) -> tuple[list, dict]:
    """An argv, with ``{dir}`` standing for a scratch directory, and the
    files to write there."""
    command = draw(st.sampled_from(["check", "analyze", "run"]))
    argv = [command, "--cap", CAP, "--out", "{dir}/out.json"]
    files = {}
    with_transcripts = command == "analyze" and draw(st.booleans())
    if with_transcripts:
        files["transcripts.json"] = draw(corrupted(TRANSCRIPTS))
        argv += ["--transcripts", "{dir}/transcripts.json"]
    # A transcript file may carry its own descriptor instead.
    sources = ["flags", "file", "none"] if with_transcripts else ["flags", "file"]
    source = draw(st.sampled_from(sources))
    if source == "flags":
        argv += draw(custom_instance_flags())
    elif source == "file":
        files["instance.json"] = draw(corrupted(DESCRIPTOR))
        argv += ["--instance", "{dir}/instance.json"]
    if command == "run":
        argv += ["--sessions", str(draw(st.integers(0, 3)))]
        argv += ["--seed", str(draw(st.integers(0, 99)))]
        if draw(st.booleans()):
            argv.append("--lab-view")
    return argv, files


@settings(max_examples=50, deadline=None)
@given(cli_calls())
def test_cli_answers_every_input_with_an_exit_code(call):
    argv, files = call
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("{dir}", tmp) for arg in argv])
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
