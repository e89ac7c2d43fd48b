"""Pierce/cut model, etch integrator, spot optimization, table audit."""

import dataclasses
import math
import random

import numpy as np
import pytest

from laserberry import (CutModel, DomainError, EtchState, PierceRecord,
                        UnsupportedRegimeError, ValidationError, cut_time,
                        etch_step, load_datasets, optimal_spot,
                        pierce_constant, pierce_velocity, verify_tables)
from laserberry.laser import etch_rate, etch_track


@pytest.fixture(scope="module")
def datasets():
    return load_datasets()


@pytest.fixture(scope="module")
def fine_model(datasets):
    return CutModel(records=datasets.fine, toughness=1.0)


# ---------------------------------------------------------------------------
# scalar helpers

def test_pierce_velocity_against_published_rows(datasets):
    # v = stem diameter / pierce time, e.g. 2.2 mm / 1.47 s = 1.497 mm/s
    r = next(r for r in datasets.fine if r.spot_diameter_mm == 0.9)
    assert pierce_velocity(r.stem_diameter_mm, r.pierce_time_s) == \
        pytest.approx(1.4966, abs=1e-4)
    assert pierce_velocity(0.0, 5.0) == 0.0
    with pytest.raises(ValidationError):
        pierce_velocity(2.2, 0.0)


def test_pierce_constant_values():
    # C_p = v * spot diameter
    assert pierce_constant(1.49, 0.9) == pytest.approx(1.341)
    assert pierce_constant(0.0, 0.9) == 0.0
    with pytest.raises(ValidationError):
        pierce_constant(1.0, -0.5)


def test_cut_model_cp_knots_and_midpoints(datasets):
    knots = sorted(datasets.fine, key=lambda r: r.spot_diameter_mm)
    model = CutModel(knots)
    # exact knots come back verbatim
    for r in knots:
        assert model.cp(r.spot_diameter_mm) == r.pierce_constant_mm2_s
    # midpoint of 0.8 (1.14) and 0.9 (1.36) is linear
    assert model.cp(0.85) == pytest.approx((1.14 + 1.36) / 2)
    # no extrapolation past the calibrated range
    with pytest.raises(DomainError):
        model.cp(0.4)
    with pytest.raises(DomainError):
        model.cp(1.2)


def test_cut_model_keeps_sorted_read_only_knots(datasets):
    model = CutModel(tuple(reversed(datasets.fine)))
    assert [r.spot_diameter_mm for r in model.records] == list(model.knots)
    assert list(model.knots) == sorted(r.spot_diameter_mm for r in datasets.fine)
    assert list(model.cps) == [r.pierce_constant_mm2_s for r in model.records]
    with pytest.raises(ValueError, match="read-only"):
        model.knots[0] = 0.1
    with pytest.raises(ValidationError, match="at least one pierce record"):
        CutModel(())


def test_cut_model_rejects_duplicate_knots(datasets):
    rec = datasets.fine[0]
    with pytest.raises(ValidationError, match=r"duplicate spot diameter 0\.5 mm"):
        CutModel(records=(rec, rec), toughness=1.0)
    with pytest.raises(ValidationError):
        CutModel(records=datasets.fine, toughness=0.0)


# ---------------------------------------------------------------------------
# cut time

def test_cut_time_reference_value(fine_model):
    # pi * (2.2/2)^2 / 1.36 = 2.7951 s at the 0.9 mm spot
    t = cut_time(2.2, fine_model, 0.9, 50.0)
    assert t == pytest.approx(2.7951, abs=1e-4)
    # and within 10 % of the benchmarked 2.88 s mean
    assert abs(t - 2.88) / 2.88 < 0.10


def test_cut_time_scales_with_area_and_toughness(fine_model):
    t1 = cut_time(2.0, fine_model, 0.9, 50.0)
    t2 = cut_time(4.0, fine_model, 0.9, 50.0)
    assert t2 == pytest.approx(4.0 * t1)   # area goes as diameter squared
    tough = dataclasses.replace(fine_model, toughness=2.0)
    assert cut_time(2.0, tough, 0.9, 50.0) == pytest.approx(2.0 * t1)


def test_cut_time_insensitive_to_lateral_speed_in_regime(fine_model):
    ts = {cut_time(2.2, fine_model, 0.9, v) for v in (10.0, 32.0, 50.0, 96.0)}
    assert len(ts) == 1


def test_cut_time_rejects_slow_lateral_speed(fine_model):
    with pytest.raises(UnsupportedRegimeError):
        cut_time(2.2, fine_model, 0.9, 9.9)
    # boundary speed itself is allowed
    cut_time(2.2, fine_model, 0.9, 10.0)


def test_cut_time_zero_diameter(fine_model):
    assert cut_time(0.0, fine_model, 0.9, 50.0) == 0.0
    with pytest.raises(ValidationError):
        cut_time(-1.0, fine_model, 0.9, 50.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cut_model_helpers_refuse_non_finite_inputs(fine_model, bad):
    # NaN fails every comparison, so each check is written to pass only
    # finite values inside its range
    finite = r"must be non-negative and finite"
    with pytest.raises(ValidationError, match=finite):
        cut_time(bad, fine_model, 0.9, 50.0)
    with pytest.raises(ValidationError, match=finite):
        pierce_velocity(bad, 1.0)
    with pytest.raises(ValidationError, match=finite):
        pierce_constant(bad, 0.9)
    # a lateral speed that is not a finite number counts as outside the regime
    with pytest.raises(UnsupportedRegimeError):
        cut_time(2.2, fine_model, 0.9, bad)
    assert etch_rate(fine_model, 0.9, bad) == 0.0
    with pytest.raises(DomainError):
        fine_model.cp(bad)


# ---------------------------------------------------------------------------
# etch integrator

def test_etch_reaches_severed_within_one_step(fine_model):
    rng = np.random.default_rng(77)
    for _ in range(50):
        stem = float(rng.uniform(1.5, 3.0))
        dt = float(rng.choice([0.0005, 0.001, 0.002]))
        spot = float(rng.uniform(0.5, 1.1))
        expected = cut_time(stem, fine_model, spot, 50.0)
        state = EtchState.for_stem(stem)
        areas = etch_track(state, math.ceil(expected / dt) + 2, dt,
                           etch_rate(fine_model, spot, 50.0))
        steps = int(np.argmax(areas == state.target_area))
        assert steps > 0
        t = np.add.accumulate(np.full(steps, dt))[-1]   # t += dt, left to right
        assert abs(t - expected) <= dt + 1e-12
        # the track is etch_step's (see below): one step from the tick before severs
        before = EtchState(float(areas[steps - 1]), state.target_area)
        after = etch_step(before, dt, True, fine_model, spot, 50.0)
        assert after.severed and after.cut_area == areas[steps]


def test_etch_track_matches_etch_step(fine_model):
    rate = etch_rate(fine_model, 0.9, 50.0)
    for dt in (0.0005, 0.001, 0.002):       # the timesteps the trials above draw
        state = EtchState.for_stem(2.2)
        n = round(4.0 / dt)
        areas = etch_track(state, n, dt, rate)
        for k in range(1, n + 1):
            state = etch_step(state, dt, True, fine_model, 0.9, 50.0)
            assert state.cut_area == areas[k]
        assert state.severed


def test_etch_noops(fine_model):
    state = EtchState.for_stem(2.2)
    # laser off
    assert etch_step(state, 0.001, False, fine_model, 0.9, 50.0) == state
    # below the calibrated lateral regime the beam chars instead of cutting
    assert etch_step(state, 0.001, True, fine_model, 0.9, 5.0) == state
    # severed stays severed
    done = EtchState(state.target_area, state.target_area)
    assert etch_step(done, 0.001, True, fine_model, 0.9, 50.0) == done


def test_etch_state_validation():
    with pytest.raises(ValidationError):
        EtchState(2.0, 1.0)                 # over target
    with pytest.raises(ValidationError):
        EtchState.for_stem(0.0)


@pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1.0])
def test_etch_state_refuses_a_target_area_that_is_not_positive_and_finite(target):
    with pytest.raises(ValidationError,
                       match=rf"^target_area must be positive and finite, got {target}$"):
        EtchState(0.0, target)


# ---------------------------------------------------------------------------
# spot optimization

def test_optimal_spot_fine_table(datasets):
    assert optimal_spot(datasets.fine, 0.5, 1.1) == 0.9


def test_optimal_spot_coarse_table(datasets):
    assert optimal_spot(datasets.coarse, 0.09, 3.79) == 0.71


def test_optimal_spot_subrange(datasets):
    # restricting away the winner promotes the next best knot
    assert optimal_spot(datasets.fine, 0.95, 1.1) == 1.0


def test_optimal_spot_tie_breaks_small():
    rows = tuple(PierceRecord(d, 2.2, 1.0, 2.2, 1.5) for d in (0.6, 0.8))
    assert optimal_spot(rows, 0.5, 1.0) == 0.6


def test_optimal_spot_bad_ranges(datasets):
    with pytest.raises(ValidationError):
        optimal_spot(datasets.fine, 1.0, 0.5)
    with pytest.raises(ValidationError):
        optimal_spot(datasets.fine, 2.0, 3.0)   # no knots inside
    with pytest.raises(ValidationError, match="cut model needs at least one pierce record"):
        optimal_spot([], 0.5, 1.1)


@pytest.mark.parametrize("continuous", [False, True])
def test_optimal_spot_refuses_a_repeated_knot(datasets, continuous):
    # the repeat would win the discrete scan if it were not refused
    table = datasets.fine + (PierceRecord(0.5, 2.2, 1.0, 2.2, 9.0),)
    with pytest.raises(ValidationError,
                       match=r"^duplicate spot diameter 0\.5 mm in pierce records$"):
        optimal_spot(table, 0.5, 1.1, continuous=continuous)


@pytest.mark.parametrize("continuous", [False, True])
def test_optimal_spot_ignores_record_order(datasets, continuous):
    rng = random.Random(7)
    for table, lo, hi in ((datasets.fine, 0.5, 1.1), (datasets.fine, 0.55, 0.95),
                          (datasets.coarse, 0.09, 3.79), (datasets.coarse, 1.0, 3.5)):
        ordered = tuple(sorted(table, key=lambda r: r.spot_diameter_mm))
        want = optimal_spot(ordered, lo, hi, continuous=continuous)
        for _ in range(5):
            shuffled = list(table)
            rng.shuffle(shuffled)
            assert optimal_spot(shuffled, lo, hi, continuous=continuous) == want


def test_optimal_spot_continuous_near_knot(datasets):
    got = optimal_spot(datasets.fine, 0.5, 1.1, continuous=True)
    assert abs(got - 0.9) < 0.01   # piecewise-linear max sits at the knot


def test_optimal_spot_continuous_takes_the_exact_maximum():
    # two peaks: a search that assumes one peak settles on the lower one at 1.0 mm
    rows = tuple(PierceRecord(d, 2.2, 1.0, 2.2, cp) for d, cp in zip(
        (0.2, 0.3, 0.6, 0.8, 1.0, 1.2), (1.0, 3.0, 0.5, 0.6, 2.5, 0.1)))
    assert optimal_spot(rows, 0.2, 1.2, continuous=True) == 0.3
    # an end of the range beats every knot inside it: C_p(0.35) = 2.58 > 2.5
    assert optimal_spot(rows, 0.35, 1.1, continuous=True) == 0.35
    assert optimal_spot(rows, 0.35, 1.1) == 1.0
    # equal peaks: the smaller diameter wins
    tied = rows[:4] + (PierceRecord(1.0, 2.2, 1.0, 2.2, 3.0),)
    assert optimal_spot(tied, 0.2, 1.0, continuous=True) == 0.3


# ---------------------------------------------------------------------------
# table audit

def test_verify_tables_passes_at_default_tolerance(datasets):
    audit = verify_tables(datasets)
    assert audit.passed
    assert audit.max_deviation == pytest.approx(0.0242, abs=5e-4)
    # every derived column of every row is audited:
    # (7 coarse + 6 fine) * 2 + 10 lateral = 36
    assert len(audit.deviations) == 36


def test_verify_tables_known_row_deviations(datasets):
    audit = verify_tables(datasets)
    by_key = {(d.table, d.row, d.column): d for d in audit.deviations}
    # worst row: coarse spot 0.71 velocity 2.3/0.96 = 2.3958 vs 2.42
    worst = by_key[("pierce-coarse", 6, "pierce_velocity_mm_s")]
    assert worst.spot_diameter_mm == 0.71
    assert worst.deviation == pytest.approx(0.0242, abs=5e-4)
    # fine spot 0.9 constant: 1.49 * 0.9 = 1.341 vs 1.36
    dev = by_key[("pierce-fine", 4, "pierce_constant_mm2_s")]
    assert dev.deviation == pytest.approx(0.019, abs=1e-3)
    # defocused lateral row: 2.34/7.33 = 0.3192 vs 0.32
    lat = by_key[("lateral", 10, "cut_velocity_mm_s")]
    assert lat.deviation < 0.001


def test_verify_tables_fails_at_tight_tolerance(datasets):
    audit = verify_tables(datasets, tolerance=0.001)
    assert not audit.passed
    bad = audit.failures()
    assert any(d.table == "pierce-coarse" and d.spot_diameter_mm == 0.71
               for d in bad)
    assert "deviation" in bad[0].describe()


def test_verify_tables_catches_corruption(datasets):
    rows = list(datasets.coarse)
    rows[0] = dataclasses.replace(rows[0], pierce_velocity_mm_s=9.99)
    corrupted = dataclasses.replace(datasets, coarse=tuple(rows))
    audit = verify_tables(corrupted)
    assert not audit.passed
    assert any(d.row == 1 and d.table == "pierce-coarse"
               for d in audit.failures())
