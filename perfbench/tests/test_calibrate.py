"""Tests for the CPU speed probe (``python -m pytest perfbench``)."""

import pytest

import os

from perfbench.calibrate import REFERENCE_S, WINDOW_S, SpeedProbe, cpu_clock


def probe_with(samples):
    probe = SpeedProbe()
    for when, seconds in samples:
        probe.times.append(when)
        probe.samples.append(seconds)
    return probe


def test_scale_uses_the_median_of_the_samples_in_the_window():
    probe = probe_with([(10.0, 0.004), (10.2, 0.002), (10.4, 0.003), (20.0, 1.0)])
    assert probe.scale_at(10.2) == pytest.approx(REFERENCE_S / 0.003)


def test_scale_falls_back_to_the_nearest_sample():
    probe = probe_with([(10.0, 0.004), (20.0, 0.002)])
    assert probe.scale_at(18.0) == pytest.approx(REFERENCE_S / 0.002)
    assert 18.0 - 10.0 > WINDOW_S


def test_a_probe_without_samples_refuses_to_scale():
    with pytest.raises(ValueError):
        SpeedProbe().scale_at(0.0)


def test_a_sample_is_a_timed_round_trip_and_the_service_is_stopped():
    with SpeedProbe() as probe:
        service = probe._proc
        probe.sample()
        probe.sample()
    assert len(probe.samples) == len(probe.times) == 2
    assert all(sample > 0 for sample in probe.samples)
    assert probe.spent_s > 0
    assert service.poll() is not None


def test_cpu_clock_reads_a_process_cpu_time():
    assert cpu_clock(os.getpid()) > 0
