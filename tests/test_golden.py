"""Frozen sweeps: the CSV bytes of fixed configs and seeds never drift.

``tests/golden/desk.csv`` is the output of

    thzest sweep --preset desk --sweep snr --values 0,20 --trials 4 --threads 1

and ``tests/golden/near.csv`` the output of

    thzest sweep --preset desk --config near.cfg --sweep range --values 3,30 --trials 4 --threads 1

where ``near.cfg`` holds the one line ``scenario = near`` (seed 0, all four
estimators).  A change that moves these bytes must regenerate the file
with its command and report the paired NMSE/RMSE deltas in CHANGES.md.
"""

from pathlib import Path

import pytest

from thzest.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, args, config", [
    ("desk", ["--sweep", "snr", "--values", "0,20"], None),
    ("near", ["--sweep", "range", "--values", "3,30"], "scenario = near\n"),
], ids=["desk", "near"])
def test_sweep_matches_golden_bytes(tmp_path, name, args, config):
    if config is not None:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config)
        args = ["--config", str(cfg), *args]
    out = tmp_path / f"{name}.csv"
    code = main(["sweep", "--preset", "desk", *args, "--trials", "4",
                 "--threads", "1", "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
