"""Run-record CSVs: files written before the trailing columns existed, and
rows that do not fit their header."""

import pytest

from poolkit.bench import RunRecord, records_from_csv, records_to_csv

# the header before the ref_status column
OLD_HEADER = ("instance,method,obbt,prep_seconds,solve_seconds,objective,"
              "dual_bound,gap_percent,gap_kind,status")
ROW = "haverly1,F1:S,1,0.5,0.25,,-500.0,25.0,D,optimal"


def test_a_csv_without_ref_status_reads():
    text = OLD_HEADER + "\n" + ROW + "\n"
    (rec,) = records_from_csv(text)
    assert rec == RunRecord("haverly1", "F1:S", True, 0.5, 0.25, None, -500.0,
                            25.0, "D", "optimal", "")
    assert records_to_csv([rec]).splitlines()[0] == OLD_HEADER + ",ref_status"


@pytest.mark.parametrize("row", ["haverly1,F1:S", ROW + ",,extra"],
                         ids=["short", "long"])
def test_a_row_unlike_the_header_is_refused(row):
    # the header has 11 fields; a short row must not reach RunRecord, and a
    # long one must not be cut to fit
    text = ",".join(RunRecord.csv_header()) + "\n" + ROW + ",\n" + row + "\n"
    with pytest.raises(ValueError, match="row 3 has"):
        records_from_csv(text)
