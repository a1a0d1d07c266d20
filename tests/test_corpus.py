"""The comparison corpus: nineteen systems beyond the demos, with their
recorded `fraclie analyze --emit json` output and that of `--branch zero`,
compared byte for byte.  The recordings are regenerated with

    fraclie analyze tests/corpus/NAME.fpde --emit json > tests/corpus/NAME.json
    fraclie analyze tests/corpus/NAME.fpde --emit json --branch zero \\
        > tests/corpus/NAME.zero.json

and any change to them is a change of output to be named.
"""
import pathlib

import pytest

from fraclie.cli import main

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"
SYSTEMS = sorted(p.stem for p in CORPUS.glob("*.fpde"))


def test_corpus_has_nineteen_systems():
    assert len(SYSTEMS) == 19


@pytest.mark.parametrize("branch", ["both", "zero"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_json_matches_recording(name, branch, capsysbinary):
    argv = ["analyze", str(CORPUS / f"{name}.fpde"), "--emit", "json"]
    suffix = ".json"
    if branch == "zero":
        argv += ["--branch", "zero"]
        suffix = ".zero.json"
    code = main(argv)
    out = capsysbinary.readouterr().out
    assert code in (0, 2)
    assert out == (CORPUS / f"{name}{suffix}").read_bytes()
