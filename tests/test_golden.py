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
    # Benchmark-scale boson points: the four type1 points at n = 10, from
    # seed-heavy (2,2,6) to 12,600 packed destinations at (4,3,3), and the
    # 3^8-term type2 expansion.
    (
        "type1_run_boson_226.csv",
        ["run", "--experiment", "type1", "--statistics", "boson", "--n1", "2", "--n2", "2",
         "--n3", "6", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "--format", "csv"],
    ),
    (
        "type1_run_boson_235.csv",
        ["run", "--experiment", "type1", "--statistics", "boson", "--n1", "2", "--n2", "3",
         "--n3", "5", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "--format", "csv"],
    ),
    (
        "type1_run_boson_334.csv",
        ["run", "--experiment", "type1", "--statistics", "boson", "--n1", "3", "--n2", "3",
         "--n3", "4", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "--format", "csv"],
    ),
    (
        "type1_run_boson_433.csv",
        ["run", "--experiment", "type1", "--statistics", "boson", "--n1", "4", "--n2", "3",
         "--n3", "3", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "--format", "csv"],
    ),
    (
        "type2_run_boson_n8.csv",
        ["run", "--experiment", "type2", "--statistics", "boson", "--n", "8",
         "--epsilon", "0,0.2", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "--format", "csv"],
    ),
    # The benchmark's fermion points: 16,472 oracle keys per point at n = 8.
    (
        "type2_run_fermion_n8.csv",
        ["run", "--experiment", "type2", "--statistics", "fermion", "--n", "8",
         "--epsilon", "0.2,0.5", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "--format", "csv"],
    ),
    (
        "type1_paths_boson.txt",
        ["paths", "--experiment", "type1", "--statistics", "boson", "--n1", "2", "--n2", "2",
         "--n3", "1", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "phi psi v v u"],
    ),
    (
        "type1_paths_boson.json",
        ["paths", "--experiment", "type1", "--statistics", "boson", "--n1", "2", "--n2", "2",
         "--n3", "1", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "phi psi v v u", "--format", "json"],
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
    (
        "type2_paths_fermion.txt",
        ["paths", "--experiment", "type2", "--statistics", "fermion", "--n", "5",
         "--epsilon", "0.2", "phi psi v v u"],
    ),
    (
        "type2_paths_boson.txt",
        ["paths", "--experiment", "type2", "--statistics", "boson", "--n", "5",
         "--epsilon", "0.2", "phi psi v v u"],
    ),
    (
        "type2_paths_boson.json",
        ["paths", "--experiment", "type2", "--statistics", "boson", "--n", "5",
         "--epsilon", "0.2", "phi psi v v u", "--format", "json"],
    ),
    (
        "type1_run_fermion_table.txt",
        ["run", "--experiment", "type1", "--statistics", "fermion", "--n1", "1:3", "--n2", "1:3",
         "--n3", "0:1", "--sa=0.3+0.1i", "--sb=-0.7+0.2i"],
    ),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden_bytes(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_verify_report_matches_golden_bytes(capsys, monkeypatch, tmp_path):
    # Regenerate with: mixbench verify --nmax 3 --out tests/golden/verify_nmax3.json
    monkeypatch.delenv("MIXBENCH_NMAX_CAP", raising=False)
    report = tmp_path / "report.json"
    code = main(["verify", "--nmax", "3", "--out", str(report)])
    first_line = capsys.readouterr().out.splitlines()[0]
    assert code == 0
    assert first_line == (
        "checked 88 records: 77 pass, 11 known-divergence, 0 fail (tolerance 1e-10, nmax 3)"
    )
    assert report.read_bytes() == (GOLDEN / "verify_nmax3.json").read_bytes()
