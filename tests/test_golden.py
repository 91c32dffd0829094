"""Frozen desk sweep: the CSV bytes of a fixed config and seed never drift.

``tests/golden/desk.csv`` is the output of

    thzest sweep --preset desk --sweep snr --values 0,20 --trials 4 --threads 1

(seed 0, all four estimators).  A change that moves these bytes must
regenerate the file with that command and report the paired NMSE/RMSE
deltas in CHANGES.md.
"""

from pathlib import Path

from thzest.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden" / "desk.csv"


def test_desk_sweep_matches_golden_bytes(tmp_path):
    out = tmp_path / "desk.csv"
    code = main(["sweep", "--preset", "desk", "--sweep", "snr",
                 "--values", "0,20", "--trials", "4", "--threads", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_bytes() == GOLDEN.read_bytes()
