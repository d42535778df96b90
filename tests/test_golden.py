"""Byte-for-byte comparison of CLI output against committed golden files.

The goldens pin the exact bytes, so any change to the order in which
amplitudes are summed, or to how terms are keyed and sorted, shows here
even when the values still agree to the tolerance of the other tests.
Regenerate a golden only when a change of its bytes is intended, with the
command in its case below.
"""

from pathlib import Path

import pytest

from mixbench.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    (
        "type2_run_fermion.csv",
        ["run", "--experiment", "type2", "--statistics", "fermion", "--n", "6",
         "--epsilon", "0,0.2,0.5", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "--format", "csv"],
    ),
    (
        "type2_run_boson.csv",
        ["run", "--experiment", "type2", "--statistics", "boson", "--n", "6",
         "--epsilon", "0,0.2,0.5", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "--format", "csv"],
    ),
    (
        "type1_run_boson.csv",
        ["run", "--experiment", "type1", "--statistics", "boson", "--n1", "1:3", "--n2", "1:3",
         "--n3", "0:2", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "--format", "csv"],
    ),
    (
        "type1_paths_boson.txt",
        ["paths", "--experiment", "type1", "--statistics", "boson", "--n1", "2", "--n2", "2",
         "--n3", "1", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "phi psi v v u"],
    ),
    (
        "type1_paths_fermion.txt",
        ["paths", "--experiment", "type1", "--statistics", "fermion", "--n1", "3", "--n2", "2",
         "--n3", "1", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "phi phi psi v v u"],
    ),
    (
        "type2_paths_fermion.json",
        ["paths", "--experiment", "type2", "--statistics", "fermion", "--n", "5",
         "--epsilon", "0.2", "phi psi v v u", "--format", "json"],
    ),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden_bytes(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
