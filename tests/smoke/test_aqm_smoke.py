"""AQM tier smoke: CoDel beats drop-tail on sojourn p99, all cells complete.

The pass/fail contract of the modern transport & AQM experiment: every
cell of the transport x qdisc x scheme grid completed flows, and under
the standing-queue load CoDel holds the delivered-sojourn p99 below
drop-tail's for the stock transport while actually head-dropping.

``REPRO_AQM_PACING_JSON`` names an ``aqm_pacing`` sweep artifact to
check (``runner aqm_pacing --quick --jobs 2 --out ...``); unset, the
quick grid runs here on two workers.
"""

import json
import os

import pytest

from repro.experiments import aqm_pacing
from repro.experiments.batch import SweepResult, SweepRunner


@pytest.fixture(scope="module")
def rows():
    path = os.environ.get("REPRO_AQM_PACING_JSON")
    if path:
        with open(path) as handle:
            result = SweepResult.from_json_dict(
                json.load(handle)["aqm_pacing"])
    else:
        runner = SweepRunner(jobs=2, cache_dir=None)
        result = runner.run(aqm_pacing.sweep_spec(quick=True))
    return aqm_pacing.rows_from_sweep(result)


def test_every_cell_completes_flows(rows):
    assert len(rows) == 4 * 3 * 2
    for row in rows:
        assert row["flows_completed"] > 0, row
        assert 0 < row["fct_p50_ms"] <= row["fct_p99_ms"], row
        assert row["sojourn_p99_ms"] > 0, row


def test_codel_beats_droptail_on_sojourn_p99(rows):
    cell = {(r["transport"], r["qdisc"], r["scheme"]): r for r in rows}
    tail = cell[("reno", "droptail", "TCP/802.11")]
    codel = cell[("reno", "codel", "TCP/802.11")]
    assert codel["sojourn_p99_ms"] < tail["sojourn_p99_ms"], \
        (codel["sojourn_p99_ms"], tail["sojourn_p99_ms"])
    assert codel["aqm_drops"] > 0
    assert tail["aqm_drops"] == 0
