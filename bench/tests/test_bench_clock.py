"""Reference-second timing: scaling by the probe, and clean-up of the timer."""

import signal
import time

import pytest

import clock


def test_timed_scales_own_time_by_probe_speed(monkeypatch):
    # a probe that reads twice the reference: the machine runs at half speed
    monkeypatch.setattr(clock, "probe", lambda: 2 * clock.REFERENCE_PROBE_S)
    result, t = clock.timed(lambda x: (time.sleep(0.12), x)[1], 7)
    assert result == 7
    assert t.own_s >= 0.12
    assert t.ref_s == pytest.approx(t.own_s / 2)


def test_timed_probes_during_the_call_and_restores_the_timer(monkeypatch):
    calls = []
    real_probe = clock.probe
    monkeypatch.setattr(clock, "probe", lambda: calls.append(1) or real_probe())
    handler = signal.getsignal(signal.SIGALRM)
    _, t = clock.timed(time.sleep, 4 * clock.PERIOD_S)
    # one probe before, one after, and at least two from the timer
    assert len(calls) >= 4
    assert t.own_s > 0 and t.ref_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_timed_restores_the_timer_when_the_call_raises():
    handler = signal.getsignal(signal.SIGALRM)

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        clock.timed(boom)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
