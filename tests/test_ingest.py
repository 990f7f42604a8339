"""External CSV adapters: emission logs and prediction/reference fields."""

import csv
import warnings

import numpy as np
import pytest

from ecol2 import (
    IngestError,
    ValidationError,
    error_metrics,
    import_emissions_csv,
    import_field_csv,
    summarize,
)
from ecol2.ingest import IngestWarning

HEADER = "emissions,energy_consumed,duration,country_iso_code\n"


def write_csv(tmp_path, body, name="log.csv", header=HEADER):
    path = tmp_path / name
    path.write_text(header + body)
    return path


class TestEmissionsImport:
    def test_stated_emissions_row(self, tmp_path):
        path = write_csv(tmp_path, "1.35e-2,,,\n")
        records = import_emissions_csv(path, "developmental")
        assert len(records) == 1
        assert records[0].emissions_kg == 1.35e-2
        assert records[0].region == "unknown"
        assert summarize(records).c_developmental == pytest.approx(1.35e-2, rel=1e-12)

    def test_header_only_is_empty(self, tmp_path):
        assert import_emissions_csv(write_csv(tmp_path, ""), "operational") == []

    @pytest.mark.parametrize("body", ("", "1e-3,,,\n"))
    def test_unknown_stage_names_the_file_before_any_row(self, tmp_path, body):
        path = write_csv(tmp_path, body)
        with pytest.raises(IngestError, match=r"log\.csv: stage must be one of .*'prep'"):
            import_emissions_csv(path, "prep")

    def test_energy_and_region_computes_emissions(self, tmp_path):
        path = write_csv(tmp_path, ",0.1,3600,CH\n")
        (rec,) = import_emissions_csv(path, "operational")
        assert rec.emissions_kg == pytest.approx(3.484e-3, rel=1e-12)
        assert rec.region == "CH"
        assert rec.duration_s == 3600.0

    def test_stated_wins_with_consistency_warning(self, tmp_path):
        # stated value ~2x the energy-based one -> warn, keep stated
        path = write_csv(tmp_path, "7e-3,0.1,,CH\n")
        with pytest.warns(IngestWarning):
            (rec,) = import_emissions_csv(path, "operational")
        assert rec.emissions_kg == 7e-3

    def test_consistent_pair_is_silent(self, tmp_path):
        path = write_csv(tmp_path, "3.484e-3,0.1,,CH\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (rec,) = import_emissions_csv(path, "operational")
        assert rec.emissions_kg == 3.484e-3

    def test_custom_column_map(self, tmp_path):
        path = write_csv(tmp_path, "0.5,2.5e-3\n", header="kwh,kg\n")
        (rec,) = import_emissions_csv(
            path, "embodied", column_map={"energy": "kwh", "emissions": "kg"})
        assert rec.emissions_kg == 2.5e-3
        assert rec.energy_kwh == 0.5

    def test_unknown_map_key_rejected(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(IngestError):
            import_emissions_csv(path, "operational", column_map={"power": "watts"})

    def test_missing_mapped_column(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n", header="a,b\n")
        with pytest.raises(IngestError, match="emissions"):
            import_emissions_csv(path, "operational")

    def test_unparsable_numeric_names_row(self, tmp_path):
        path = write_csv(tmp_path, "1e-3,,,\nlots,,,\n")
        with pytest.raises(IngestError, match="row 2"):
            import_emissions_csv(path, "operational")

    def test_negative_emissions_rejected(self, tmp_path):
        path = write_csv(tmp_path, "-1e-3,,,\n")
        with pytest.raises(IngestError):
            import_emissions_csv(path, "operational")

    @pytest.mark.parametrize("row, what", [
        ("1e-3,-1.0,,\n", "energy"),
        (",-1.0,,CH\n", "energy"),
        ("1e-3,,-3600,\n", "duration"),
    ])
    def test_negative_energy_or_duration_names_file_and_row(self, tmp_path, row, what):
        path = write_csv(tmp_path, "1e-3,,,\n" + row)
        with pytest.raises(IngestError, match=rf"log\.csv, row 2: negative {what}"):
            import_emissions_csv(path, "operational")

    @pytest.mark.parametrize("row, message", [
        ("nan,,,\n", "emissions 'nan' is not finite"),
        ("inf,,,\n", "emissions 'inf' is not finite"),
        (",inf,,CH\n", "energy 'inf' is not finite"),
        (",1e308,,ZA\n", "energy x intensity overflows"),
    ])
    def test_non_finite_value_names_file_and_row(self, tmp_path, row, message):
        path = write_csv(tmp_path, "1e-3,,,\n" + row)
        with pytest.raises(IngestError, match=rf"log\.csv, row 2: {message}"):
            import_emissions_csv(path, "operational")

    def test_row_without_emissions_or_energy_region(self, tmp_path):
        path = write_csv(tmp_path, ",,3600,\n")
        with pytest.raises(IngestError):
            import_emissions_csv(path, "operational")

    def test_inference_rows_count_one_inference_each(self, tmp_path):
        path = write_csv(tmp_path, "1e-5,,,\n2e-5,,,\n")
        records = import_emissions_csv(path, "inference")
        assert [r.inference_count for r in records] == [1, 1]
        assert summarize(records).c_inference == pytest.approx(1.5e-5, rel=1e-12)

    def test_reexport_is_lossless(self, tmp_path):
        # 0.5 kWh x 707.69 g/kWh = 0.353845 kg, so the pair is consistent
        path = write_csv(tmp_path, "0.353845,0.5,7200,ZA\n")
        (rec,) = import_emissions_csv(path, "operational")
        clone = type(rec).from_dict(rec.to_dict())
        assert clone == rec


    def test_missing_file_names_the_file(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(IngestError, match=r"absent\.csv: "):
            import_emissions_csv(path, "operational")

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(HEADER.encode() + b"1e-3,,,\n\xff,,,\n")
        with pytest.raises(IngestError, match=r"log\.csv: .*can't decode byte 0xff"):
            import_emissions_csv(path, "operational")

    def test_oversized_field_names_the_file_and_line(self, tmp_path):
        path = write_csv(tmp_path, "1e-3,,,\n" + "9" * (csv.field_size_limit() + 1) + ",,,\n")
        with pytest.raises(IngestError, match=r"log\.csv, line 3: field larger than"):
            import_emissions_csv(path, "operational")


class TestFieldImport:
    def test_single_file(self, tmp_path):
        path = tmp_path / "a.csv"
        np.savetxt(path, np.array([1.0, 2.0, 2.0]), delimiter=",")
        np.testing.assert_array_equal(import_field_csv([path]), [1.0, 2.0, 2.0])

    def test_identical_files_score_zero(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        field = np.linspace(0.0, 1.0, 17)
        np.savetxt(a, field, delimiter=",")
        np.savetxt(b, field, delimiter=",")
        report = error_metrics(import_field_csv([a]), import_field_csv([b]))
        assert report.max_error == 0.0

    def test_hand_computed_relative_error(self, tmp_path):
        ref, pred = tmp_path / "ref.csv", tmp_path / "pred.csv"
        np.savetxt(ref, np.array([1.0, 2.0, 2.0]), delimiter=",")
        np.savetxt(pred, np.array([1.0, 2.0, 3.0]), delimiter=",")
        report = error_metrics(import_field_csv([pred]), import_field_csv([ref]))
        assert report.relative_l2 == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_multiple_runs_average_elementwise(self, tmp_path):
        rng = np.random.default_rng(9)
        runs = rng.standard_normal((3, 12))
        paths = []
        for i, run in enumerate(runs):
            p = tmp_path / f"run{i}.csv"
            np.savetxt(p, run, delimiter=",", fmt="%.17g")
            paths.append(p)
        mean_path = tmp_path / "mean.csv"
        np.savetxt(mean_path, runs.mean(axis=0), delimiter=",", fmt="%.17g")
        np.testing.assert_allclose(
            import_field_csv(paths), import_field_csv([mean_path]), rtol=1e-15)

    def test_shape_mismatch_reports_both_shapes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a, np.zeros(3), delimiter=",")
        np.savetxt(b, np.zeros(4), delimiter=",")
        with pytest.raises((IngestError, ValidationError)) as err:
            import_field_csv([a, b])
        assert "(3,)" in str(err.value) and "(4,)" in str(err.value)

    @pytest.mark.parametrize("body, row, value", [
        ("1\n2\nnan\n", 3, "nan"),
        ("1,2\n\n3,-inf\n", 2, "-inf"),
        ("inf,1,2\n", 1, "inf"),
    ])
    def test_non_finite_cell_names_file_and_row(self, tmp_path, body, row, value):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text(body.replace("nan", "0").replace("inf", "0"))
        bad.write_text(body)
        with pytest.raises(IngestError) as err:
            import_field_csv([good, bad])
        assert str(err.value) == f"{bad}, row {row}: value {value} is not finite"

    @pytest.mark.parametrize("body", ("", "\n\n", "# header only\n"))
    def test_empty_file_names_the_file(self, tmp_path, body):
        good, empty = tmp_path / "good.csv", tmp_path / "empty.csv"
        good.write_text("1\n2\n3\n")
        empty.write_text(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestError) as err:
                import_field_csv([good, empty])
        assert str(err.value) == f"{empty}: no values in field file"
