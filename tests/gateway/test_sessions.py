"""Monitor session manager: feeds, long-poll, idle reaping."""

import threading
import time

import numpy as np
import pytest

from repro.baselines import SpectralMaskingSeparator
from repro.errors import ConfigurationError, DataError
from repro.gateway import GatewayConfig, array_from_wire
from repro.gateway.sessions import (
    MonitorSessionManager,
    SessionConflict,
    UnknownSession,
)
from repro.service import SeparationService
from repro.tfo import make_sheep_recording
from repro.tfo.ppg import WAVELENGTHS


@pytest.fixture(scope="module")
def recording():
    return make_sheep_recording(
        "sheep1", duration_s=120.0, sampling_hz=20.0, seed=3,
    )


@pytest.fixture(scope="module")
def geometry(recording):
    n_fft, hop = SpectralMaskingSeparator().stft_geometry(
        recording.sampling_hz, recording.signals.n_samples
    )
    overlap = n_fft + hop
    return overlap + 20 * hop, overlap


@pytest.fixture(scope="module")
def ac_means(recording):
    return {
        wl: float(np.mean(
            recording.signals.ppg[wl] - recording.signals.dc[wl]
        ))
        for wl in WAVELENGTHS
    }


def create_request(recording, geometry, ac_means, **overrides):
    segment, overlap = geometry
    request = {
        "method": "spectral-masking",
        "sampling_hz": recording.sampling_hz,
        "segment_samples": segment,
        "overlap_samples": overlap,
        "ac_mean": {str(wl): ac_means[wl] for wl in WAVELENGTHS},
    }
    request.update(overrides)
    return request


def push_body(recording, start, stop):
    tracks = recording.f0_tracks()
    return {
        "ppg": {str(wl): list(recording.signals.ppg[wl][start:stop])
                for wl in WAVELENGTHS},
        "dc": {str(wl): list(recording.signals.dc[wl][start:stop])
               for wl in WAVELENGTHS},
        "f0_tracks": {s: list(tr[start:stop])
                      for s, tr in tracks.items()},
    }


@pytest.fixture()
def manager():
    mgr = MonitorSessionManager(GatewayConfig(session_idle_timeout_s=5.0))
    yield mgr
    mgr.close()


class TestLifecycle:
    def test_create_push_finish(self, manager, recording, geometry,
                                ac_means):
        state = manager.create(
            create_request(recording, geometry, ac_means)
        )
        sid = state["session_id"]
        assert state["finished"] is False
        n = recording.signals.n_samples
        for start in range(0, n, 300):
            update = manager.push(
                sid, push_body(recording, start, min(n, start + 300))
            )
            assert update["n_pushed"] >= start
        result = manager.finish(sid)
        assert result["session_id"] == sid
        assert result["n_samples"] == n
        # Idempotent finish returns the same payload.
        assert manager.finish(sid) is result
        manager.delete(sid)
        with pytest.raises(UnknownSession):
            manager.state(sid)

    def test_streamed_equals_offline_outside_spans(
        self, manager, recording, geometry, ac_means,
    ):
        state = manager.create(
            create_request(recording, geometry, ac_means)
        )
        sid = state["session_id"]
        n = recording.signals.n_samples
        pieces = {wl: [] for wl in WAVELENGTHS}
        for start in range(0, n, 257):  # deliberately odd chunking
            update = manager.push(
                sid, push_body(recording, start, min(n, start + 257))
            )
            for wl in WAVELENGTHS:
                if "estimates" in update:
                    pieces[wl].append(
                        array_from_wire(update["estimates"][str(wl)], "est")
                    )
        result = manager.finish(sid)
        tracks = recording.f0_tracks()
        with SeparationService("spectral-masking") as service:
            for wl in WAVELENGTHS:
                if result.get("final_estimates"):
                    pieces[wl].append(array_from_wire(
                        result["final_estimates"][str(wl)], "final"
                    ))
                streamed = np.concatenate(pieces[wl])
                ac = (recording.signals.ppg[wl]
                      - recording.signals.dc[wl] - ac_means[wl])
                offline = service.separate(
                    mixed=ac, sampling_hz=recording.sampling_hz,
                    f0_tracks=tracks,
                ).estimates["fetal"]
                keep = np.ones(n, dtype=bool)
                for lo, hi in result["crossfade_spans"][str(wl)]:
                    keep[lo:hi] = False
                assert streamed.shape == offline.shape
                assert np.array_equal(streamed[keep], offline[keep])

    def test_push_after_finish_conflicts(self, manager, recording,
                                         geometry, ac_means):
        sid = manager.create(
            create_request(recording, geometry, ac_means)
        )["session_id"]
        manager.push(sid, push_body(recording, 0, 2000))
        manager.finish(sid)
        with pytest.raises(SessionConflict, match="finished"):
            manager.push(sid, push_body(recording, 0, 100))

    def test_draws_flow_into_result(self, manager, recording, geometry,
                                    ac_means):
        rec = recording
        sid = manager.create(
            create_request(rec, geometry, ac_means)
        )["session_id"]
        manager.add_draws(sid, {"draws": [
            {"time_s": float(t), "sao2": float(s)}
            for t, s in zip(rec.draw_times_s, rec.draw_sao2)
        ]})
        n = rec.signals.n_samples
        for start in range(0, n, 400):
            manager.push(sid, push_body(rec, start, min(n, start + 400)))
        result = manager.finish(sid)
        assert len(result["draws"]) == rec.n_draws


class TestValidation:
    def test_unknown_session(self, manager):
        with pytest.raises(UnknownSession, match="sess-000042"):
            manager.push("sess-000042", {})

    def test_unknown_create_key(self, manager, recording, geometry,
                                ac_means):
        with pytest.raises(DataError, match="unknown key"):
            manager.create(create_request(
                recording, geometry, ac_means, segment="oops",
            ))

    def test_method_spec_exclusive(self, manager, recording, geometry,
                                   ac_means):
        with pytest.raises(ConfigurationError, match="exactly one"):
            manager.create(create_request(
                recording, geometry, ac_means,
                spec={"method": "spectral-masking"},
            ))

    def test_missing_required_keys(self, manager):
        with pytest.raises(DataError, match="missing required"):
            manager.create({"method": "spectral-masking"})

    def test_bad_push_body(self, manager, recording, geometry, ac_means):
        sid = manager.create(
            create_request(recording, geometry, ac_means)
        )["session_id"]
        with pytest.raises(DataError, match="unknown key"):
            manager.push(sid, {"ppg": {}, "dc": {}, "f0": {}})
        with pytest.raises(DataError):
            manager.push(sid, {"ppg": {"740": "xx"}, "dc": {},
                               "f0_tracks": {}})


class TestLongPoll:
    def test_returns_immediately_when_updates_exist(
        self, manager, recording, geometry, ac_means,
    ):
        sid = manager.create(
            create_request(recording, geometry, ac_means)
        )["session_id"]
        manager.push(sid, push_body(recording, 0, 500))
        manager.push(sid, push_body(recording, 500, 1000))
        out = manager.updates(sid, since=0, timeout_s=5.0)
        assert [u["index"] for u in out["updates"]] == [0, 1]
        assert out["next_since"] == 2
        out2 = manager.updates(sid, since=2, timeout_s=0.0)
        assert out2["updates"] == []

    def test_blocks_until_push_arrives(self, manager, recording,
                                       geometry, ac_means):
        sid = manager.create(
            create_request(recording, geometry, ac_means)
        )["session_id"]
        got = {}

        def poll():
            got["out"] = manager.updates(sid, since=0, timeout_s=10.0)

        waiter = threading.Thread(target=poll)
        waiter.start()
        time.sleep(0.1)
        manager.push(sid, push_body(recording, 0, 500))
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        assert len(got["out"]["updates"]) == 1

    def test_bounded_log_reports_eviction(self, recording, geometry,
                                          ac_means):
        manager = MonitorSessionManager(GatewayConfig(max_updates_kept=4))
        try:
            sid = manager.create(
                create_request(recording, geometry, ac_means)
            )["session_id"]
            for start in range(0, 2400, 300):
                manager.push(sid, push_body(recording, start, start + 300))
            out = manager.updates(sid, since=0, timeout_s=0.0)
            assert len(out["updates"]) == 4  # only the tail is retained
            assert out["first_index"] == 4  # client sees it missed 0..3
        finally:
            manager.close()


class TestReaping:
    def test_idle_sessions_reaped(self, recording, geometry, ac_means):
        manager = MonitorSessionManager(
            GatewayConfig(session_idle_timeout_s=1.0)
        )
        try:
            sid = manager.create(
                create_request(recording, geometry, ac_means)
            )["session_id"]
            assert manager.reap_idle() == []  # freshly touched
            assert manager.reap_idle(
                now=time.monotonic() + 5.0
            ) == [sid]
            assert manager.n_reaped == 1
            with pytest.raises(UnknownSession, match="reaped"):
                manager.state(sid)
        finally:
            manager.close()

    def test_reaping_ends_the_session(self, recording, geometry, ac_means):
        manager = MonitorSessionManager(
            GatewayConfig(session_idle_timeout_s=1.0)
        )
        try:
            sid = manager.create(
                create_request(recording, geometry, ac_means)
            )["session_id"]
            monitor = manager._sessions[sid].monitor
            got = {}

            def poll():
                got["out"] = manager.updates(sid, since=0, timeout_s=4.0)

            waiter = threading.Thread(target=poll)
            waiter.start()
            time.sleep(0.3)
            t0 = time.monotonic()
            assert manager.reap_idle(now=time.monotonic() + 5.0) == [sid]
            waiter.join(timeout=10.0)
            assert not waiter.is_alive()
            assert time.monotonic() - t0 < 2.0
            assert got["out"]["finished"] is True
            signals = recording.signals
            with pytest.raises(RuntimeError, match="closed"):
                monitor.push(
                    {wl: signals.ppg[wl][:100] for wl in WAVELENGTHS},
                    {wl: signals.dc[wl][:100] for wl in WAVELENGTHS},
                    {s: tr[:100] for s, tr in recording.f0_tracks().items()},
                )
        finally:
            manager.close()

    def test_active_sessions_survive(self, recording, geometry, ac_means):
        manager = MonitorSessionManager(
            GatewayConfig(session_idle_timeout_s=3600.0)
        )
        try:
            sid = manager.create(
                create_request(recording, geometry, ac_means)
            )["session_id"]
            manager.push(sid, push_body(recording, 0, 500))
            assert manager.reap_idle() == []
            assert manager.session_ids() == [sid]
        finally:
            manager.close()


class TestEnding:
    """``delete`` and ``close`` end a session the way reaping does."""

    @pytest.mark.parametrize("how", ["delete", "close"])
    def test_ending_wakes_waiters_and_closes_the_monitor(
        self, recording, geometry, ac_means, how,
    ):
        manager = MonitorSessionManager(
            GatewayConfig(session_idle_timeout_s=3600.0)
        )
        try:
            sid = manager.create(
                create_request(recording, geometry, ac_means)
            )["session_id"]
            monitor = manager._sessions[sid].monitor
            got = {}

            def poll():
                got["out"] = manager.updates(sid, since=0, timeout_s=4.0)

            waiter = threading.Thread(target=poll)
            waiter.start()
            time.sleep(0.3)
            t0 = time.monotonic()
            if how == "delete":
                assert manager.delete(sid)["deleted"] is True
            else:
                manager.close()
            waiter.join(timeout=10.0)
            assert not waiter.is_alive()
            assert time.monotonic() - t0 < 2.0
            assert got["out"]["finished"] is True
            with pytest.raises(UnknownSession):
                manager.updates(sid, since=0, timeout_s=0.0)
            signals = recording.signals
            with pytest.raises(RuntimeError, match="closed"):
                monitor.push(
                    {wl: signals.ppg[wl][:100] for wl in WAVELENGTHS},
                    {wl: signals.dc[wl][:100] for wl in WAVELENGTHS},
                    {s: tr[:100] for s, tr in recording.f0_tracks().items()},
                )
        finally:
            manager.close()
