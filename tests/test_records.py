"""Run-record CSVs written before the trailing columns existed."""

from poolkit.bench import RunRecord, records_from_csv, records_to_csv

# the header before the ref_status column
OLD_HEADER = ("instance,method,obbt,prep_seconds,solve_seconds,objective,"
              "dual_bound,gap_percent,gap_kind,status")


def test_a_csv_without_ref_status_reads():
    text = OLD_HEADER + "\nhaverly1,F1:S,1,0.5,0.25,,-500.0,25.0,D,optimal\n"
    (rec,) = records_from_csv(text)
    assert rec == RunRecord("haverly1", "F1:S", True, 0.5, 0.25, None, -500.0,
                            25.0, "D", "optimal", "")
    assert records_to_csv([rec]).splitlines()[0] == OLD_HEADER + ",ref_status"

