"""Embedded calibration tables and the CSV loaders around them."""

import dataclasses

import pytest

from laserberry import (CutModel, ValidationError, datasets, load_datasets,
                        load_lateral_csv, load_pierce_csv, load_scenario)
from laserberry.pipeline import cut_model_for
from laserberry.scenario import LaserSettings, bundled_scenario_path

PIERCE_HEADER = ("spot_diameter_mm,stem_diameter_mm,pierce_time_s,"
                 "pierce_velocity_mm_s,pierce_constant_mm2_s")
LATERAL_HEADER = ("spot_diameter_mm,lateral_velocity_mm_s,stem_diameter_mm,"
                  "cut_time_s,cut_velocity_mm_s")


def test_embedded_tables_shape():
    ds = load_datasets()
    assert len(ds.coarse) == 7
    assert len(ds.fine) == 6
    assert len(ds.lateral) == 10
    # spot-out sweeps: the coarse table spans 0.09..3.79 mm
    spots = sorted(r.spot_diameter_mm for r in ds.coarse)
    assert spots[0] == 0.09 and spots[-1] == 3.79
    # lateral sweep is mostly the focused 0.1 mm spot plus one defocused row
    assert sum(r.spot_diameter_mm == 0.1 for r in ds.lateral) == 9


def test_pierce_csv_roundtrip(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(f"# comment\n{PIERCE_HEADER}\n0.9,2.2,1.47,1.49,1.36\n\n")
    (rec,) = load_pierce_csv(path)
    assert rec.spot_diameter_mm == 0.9
    assert rec.pierce_constant_mm2_s == 1.36


def test_lateral_csv_roundtrip(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text(f"{LATERAL_HEADER}\n0.1,50,2.16,11.30,0.19\n")
    (rec,) = load_lateral_csv(path)
    assert rec.lateral_velocity_mm_s == 50.0
    assert rec.cut_time_s == 11.30


def test_pierce_csv_wrong_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError, match="header"):
        load_pierce_csv(path)


def test_pierce_csv_bad_field_count(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(f"{PIERCE_HEADER}\n0.9,2.2,1.47\n")
    with pytest.raises(ValidationError, match="line 2"):
        load_pierce_csv(path)


def test_pierce_csv_non_numeric(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(f"{PIERCE_HEADER}\n0.9,2.2,1.47,1.49,1.36\n0.5,x,1,1,1\n")
    with pytest.raises(ValidationError, match="line 3"):
        load_pierce_csv(path)


def test_pierce_csv_negative_value(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(f"{PIERCE_HEADER}\n-0.9,2.2,1.47,1.49,1.36\n")
    with pytest.raises(ValidationError, match="line 2"):
        load_pierce_csv(path)


def test_missing_file():
    with pytest.raises(OSError):
        load_pierce_csv("/nonexistent/p.csv")


@pytest.mark.parametrize("loader", [load_pierce_csv, load_lateral_csv])
def test_non_utf8_csv_names_the_file_line_and_byte(tmp_path, loader):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"# comment\n\nspot\xff\n")
    with pytest.raises(ValidationError,
                       match=r"bad\.csv line 3: byte 0xff at offset 15 is not valid UTF-8"):
        loader(path)



def test_errors_name_the_file_line_past_comments(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(f"# one\n# two\n{PIERCE_HEADER}\n0.9,2.2,1.47,1.49,1.36\n0.5,x,1,1,1\n")
    with pytest.raises(ValidationError, match=r"^p\.csv line 5: could not convert"):
        load_pierce_csv(path)


@pytest.mark.parametrize("loader,header", [(load_pierce_csv, PIERCE_HEADER),
                                           (load_lateral_csv, LATERAL_HEADER)],
                         ids=["pierce", "lateral"])
def test_a_header_without_data_rows_is_rejected(tmp_path, loader, header):
    path = tmp_path / "hdr.csv"
    path.write_text(f"{header}\n# no rows\n\n")
    with pytest.raises(ValidationError, match=r"^hdr\.csv: no data rows$"):
        loader(path)


def test_a_field_longer_than_the_csv_module_allows_names_its_line(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(f"{PIERCE_HEADER}\n0.9,2.2,1.47,1.49,{'1' * 200_000}\n")
    with pytest.raises(ValidationError,
                       match=r"^p\.csv line 2: pierce_constant_mm2_s must be positive and finite"):
        load_pierce_csv(path)


@pytest.mark.parametrize("dataset,toughness", [("fine", 1.0), ("coarse", 2.5)])
def test_cut_model_for_parses_only_the_named_pierce_sweep(monkeypatch, dataset, toughness):
    scenario = dataclasses.replace(load_scenario(bundled_scenario_path("demo_11")),
                                   laser=LaserSettings(dataset, toughness))
    parsed = []
    original = datasets._embedded

    def recording(name, record_type):
        parsed.append(name)
        return original(name, record_type)

    monkeypatch.setattr(datasets, "_embedded", recording)
    model = cut_model_for(scenario)
    assert parsed == [f"pierce_{dataset}.csv"]
    assert model == CutModel(getattr(load_datasets(), dataset), toughness=toughness)
