"""Unit tests for multiplexed streaming sessions."""

import pytest

from repro.api.cache import TraceCache
from repro.api.engine import AnalysisEngine
from repro.api.spec import AnalysisSpec
from repro.errors import ConfigurationError
from repro.serve.protocol import NotFoundError, ProtocolError
from repro.serve.sessions import SessionManager
from repro.stream.spec import StreamSpec

#: A perfectly periodic live feed: per-SL means never move, so the
#: identification converges as soon as patience allows.
CYCLE = [
    {"seq_len": 10, "time_s": 0.1},
    {"seq_len": 20, "time_s": 0.2},
    {"seq_len": 30, "time_s": 0.3},
    {"seq_len": 40, "time_s": 0.4},
]


def stream_spec(**kwargs) -> StreamSpec:
    kwargs.setdefault("cadence", 20)
    kwargs.setdefault("patience", 3)
    return StreamSpec(
        analysis=AnalysisSpec(network="gnmt", scale=0.02), **kwargs
    )


@pytest.fixture()
def manager() -> SessionManager:
    return SessionManager(AnalysisEngine(cache=TraceCache()))


class TestLiveSessions:
    def test_periodic_feed_converges(self, manager):
        session = manager.create(stream_spec())
        snapshot = session.snapshot()
        assert snapshot["state"] == "open"
        assert snapshot["replay"] is False
        assert snapshot["iterations_consumed"] == 0

        for _ in range(20):
            snapshot = session.feed_records({"records": CYCLE * 5})
            if snapshot["converged"]:
                break
        assert snapshot["converged"] is True
        assert snapshot["checks"] >= 3
        assert snapshot["last_check"]["stable_checks"] >= 3

        result = session.finish()
        assert result["converged"] is True
        assert result["iterations_consumed"] == snapshot["iterations_consumed"]
        assert {point["seq_len"] for point in result["points"]} <= {
            10, 20, 30, 40,
        }
        assert session.snapshot()["state"] == "finished"

    def test_finish_is_idempotent(self, manager):
        session = manager.create(stream_spec())
        session.feed_records({"records": CYCLE * 25})
        assert session.finish() == session.finish()

    def test_feed_after_finish_rejected(self, manager):
        session = manager.create(stream_spec())
        session.feed_records({"records": CYCLE})
        session.finish()
        with pytest.raises(ConfigurationError, match="finished"):
            session.feed_records({"records": CYCLE})

    def test_bad_chunk_consumes_nothing(self, manager):
        """A chunk with one bad record is refused whole, and the session
        stays usable: the next good chunk and finish() succeed."""
        session = manager.create(stream_spec(cadence=4))
        bad = [{"seq_len": 10, "time_s": 0.1}, {"seq_len": 20, "time_s": float("nan")}]
        with pytest.raises(ConfigurationError, match="records\\[1\\]: time_s") as refused:
            session.feed_records({"records": bad})
        assert "\n" not in str(refused.value)
        assert session.snapshot()["iterations_consumed"] == 0

        snapshot = session.feed_records({"records": CYCLE * 2})
        assert snapshot["iterations_consumed"] == 8
        assert session.finish()["iterations_consumed"] == 8

    def test_finish_before_any_feed_rejected(self, manager):
        session = manager.create(stream_spec())
        with pytest.raises(ConfigurationError):
            session.finish()

    def test_advance_rejected_for_live_sessions(self, manager):
        session = manager.create(stream_spec())
        with pytest.raises(ProtocolError, match="live"):
            session.advance(10)


class TestReplaySessions:
    def test_replay_draws_from_the_cached_epoch(self, manager):
        session = manager.create(stream_spec(), replay=True)
        snapshot = session.snapshot()
        assert snapshot["replay"] is True
        epoch = snapshot["epoch_iterations"]
        assert epoch > 0
        assert snapshot["cursor"] == 0

        snapshot = session.advance(epoch)
        assert snapshot["cursor"] == epoch
        assert snapshot["iterations_consumed"] == epoch
        result = session.finish()
        assert result["iterations_consumed"] == epoch

    def test_advance_clamps_to_the_epoch(self, manager):
        session = manager.create(stream_spec(), replay=True)
        epoch = session.snapshot()["epoch_iterations"]
        snapshot = session.advance(epoch + 1000)
        assert snapshot["cursor"] == epoch

    def test_exhausted_replay_rejects_more(self, manager):
        session = manager.create(stream_spec(), replay=True)
        session.advance(session.snapshot()["epoch_iterations"])
        with pytest.raises(ConfigurationError, match="exhausted"):
            session.advance(1)

    def test_records_rejected_for_replay_sessions(self, manager):
        session = manager.create(stream_spec(), replay=True)
        with pytest.raises(ProtocolError, match="replay"):
            session.feed_records({"records": CYCLE})

    def test_advance_must_be_positive(self, manager):
        session = manager.create(stream_spec(), replay=True)
        with pytest.raises(ProtocolError, match=">= 1"):
            session.advance(0)

    def test_concurrent_replay_sessions_share_one_simulation(self):
        engine = AnalysisEngine(cache=TraceCache())
        manager = SessionManager(engine)
        first = manager.create(stream_spec(), replay=True)
        second = manager.create(stream_spec(), replay=True)
        stats = engine.cache.stats()
        assert stats["misses"] == 1  # one simulation for both sessions
        assert stats["hits"] >= 1

        # Cursors advance independently.
        first.advance(8)
        assert first.snapshot()["cursor"] == 8
        assert second.snapshot()["cursor"] == 0


class TestSessionManager:
    def test_ids_and_lookup(self, manager):
        first = manager.create(stream_spec())
        second = manager.create(stream_spec())
        assert (first.id, second.id) == ("s-1", "s-2")
        assert manager.get("s-2") is second
        assert [s.id for s in manager.sessions()] == ["s-1", "s-2"]

    def test_unknown_session_raises(self, manager):
        with pytest.raises(NotFoundError, match="s-9"):
            manager.get("s-9")

    def test_close_removes(self, manager):
        session = manager.create(stream_spec())
        manager.close(session.id)
        with pytest.raises(NotFoundError):
            manager.get(session.id)
        with pytest.raises(NotFoundError):
            manager.close(session.id)

    def test_session_cap(self):
        manager = SessionManager(AnalysisEngine(), max_sessions=1)
        manager.create(stream_spec())
        with pytest.raises(ConfigurationError, match="session table full"):
            manager.create(stream_spec())

    def test_bad_cap_rejected(self):
        with pytest.raises(ConfigurationError, match="max_sessions"):
            SessionManager(AnalysisEngine(), max_sessions=0)

    def test_snapshot_counts(self, manager):
        live = manager.create(stream_spec())
        manager.create(stream_spec(), replay=True)
        for _ in range(20):
            if live.feed_records({"records": CYCLE * 5})["converged"]:
                break
        snapshot = manager.snapshot()
        assert snapshot["open"] == 2
        assert snapshot["opened_total"] == 2
        assert snapshot["converged"] == 1
