"""The checked-in CLI corpus (tests/cli_corpus.py) rerun against the current code."""

import json

import pytest

from . import cli_corpus

CORPUS = json.loads(cli_corpus.CORPUS.read_text())


@pytest.fixture(scope="module")
def grid_paths(tmp_path_factory):
    return cli_corpus.write_grids(tmp_path_factory.mktemp("corpus"))


def test_corpus_holds_every_entry():
    entries = cli_corpus.entries()
    assert sorted(CORPUS) == sorted(name for name, _ in entries)
    assert all(CORPUS[name]["argv"] == argv for name, argv in entries)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_entry_matches_corpus(name, grid_paths):
    entry = CORPUS[name]
    assert cli_corpus.compare(entry, cli_corpus.run(entry["argv"], grid_paths)) == []


def test_compare_tolerances():
    line = '{"check":"x","closed_form":0.5,"oracle":0.5,"rel_err":1e-15}\n1,2.5,NaN\n'
    run = {"exit": 0, "stdout": line, "stderr": ""}

    def edited(old, new):
        return dict(run, stdout=line.replace(old, new))

    assert cli_corpus.compare(run, run) == []
    assert cli_corpus.compare(run, edited("2.5,", "2.5000000000000004,")) == []
    assert cli_corpus.compare(run, edited("2.5,", "2.5000000000005,"))
    # rel_err cells are compared absolutely: 1e-15 against 5e-14 passes, against 2e-13 not
    assert cli_corpus.compare(run, edited("1e-15", "5e-14")) == []
    assert cli_corpus.compare(run, edited("1e-15", "2e-13"))
    assert cli_corpus.compare(run, edited("NaN", "nan"))
    assert cli_corpus.compare(run, edited("NaN", "1"))
    assert cli_corpus.compare(run, dict(run, stderr="warning"))
    assert cli_corpus.compare(run, dict(run, exit=4))
