"""CLI reports held byte for byte, with their exit codes, to golden files.

The files under tests/golden/ hold the CLI's reports as they stood when
each case was added; a change meant to leave reports alone must keep them
identical.  To add a case, run the command with ``--out`` into
tests/golden/ and list it here with its exit code; a ``--config`` case
keeps its .cfg file beside its golden report.
"""

from pathlib import Path

import pytest

from frobex.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "qas-verify_n3_ell5": (["qas-verify", "--n", "3", "--ell", "5"], 0),
    "nakayama_n2_ell5": (["nakayama", "--n", "2", "--ell", "5"], 0),
    "qweyl-transfer_ell3": (["qweyl-transfer", "--ell", "3"], 0),
    "qweyl-transfer_ell4": (["qweyl-transfer", "--ell", "4"], 0),
    "rees-demo_ell2_window5": (["rees-demo", "--ell", "2", "--window", "5"], 0),
    "rees-demo_ell3": (["rees-demo", "--ell", "3"], 0),
    "rees-demo_ell4_window12": (["rees-demo", "--ell", "4", "--window", "12"], 0),
    "grassmannian-census_ell3": (["grassmannian-census", "--ell", "3"], 0),
    "qas-verify_malformed_cmatrix": (["qas-verify", "--cmatrix", "0 a; 1 0"], 2),
    "qas-verify_config": (
        ["qas-verify", "--config", str(GOLDEN / "qas-verify_config.cfg")], 0
    ),
    "grassmannian-census_config": (
        ["grassmannian-census", "--config", str(GOLDEN / "grassmannian-census_config.cfg")],
        0,
    ),
    "nakayama_n3_ell3_cmatrix": (
        ["nakayama", "--n", "3", "--ell", "3", "--degrees", "1; 2; 3",
         "--cmatrix", "0 1 2; -1 0 1; -2 -1 0"],
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("FROBEX_SEED", raising=False)
    argv, code = CASES[name]
    out = tmp_path / f"{name}.txt"
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()
