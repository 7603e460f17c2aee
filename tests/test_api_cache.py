"""Unit tests for the content-addressed trace cache."""

import threading

import pytest

from repro.api.cache import TraceCache, trace_nbytes
from repro.cli import main

from tests.conftest import dump_v1, make_trace


def small_trace(time_s: float = 1.0) -> object:
    return make_trace([(10, time_s), (20, 2 * time_s)])


def halve(path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def empty(path) -> None:
    path.write_bytes(b"")


#: The two corruptions a crash or a full disk leaves behind.
CORRUPTIONS = {"halved": halve, "emptied": empty}


class TestKeying:
    def test_stable(self):
        fingerprint = {"network": "gnmt", "scale": 0.1}
        assert TraceCache.key_for(fingerprint) == TraceCache.key_for(fingerprint)

    def test_key_order_irrelevant(self):
        assert TraceCache.key_for({"a": 1, "b": 2}) == TraceCache.key_for(
            {"b": 2, "a": 1}
        )

    def test_value_sensitive(self):
        assert TraceCache.key_for({"a": 1}) != TraceCache.key_for({"a": 2})


class TestMemory:
    def test_miss_then_hit(self):
        cache = TraceCache()
        assert cache.get("k") is None
        assert cache.stats() == {
            "hits": 0, "misses": 1, "entries": 0, "evictions": 0, "bytes": 0,
        }
        trace = small_trace()
        cache.put("k", trace)
        assert cache.get("k") is trace
        assert cache.stats() == {
            "hits": 1, "misses": 1, "entries": 1, "evictions": 0,
            "bytes": trace_nbytes(trace),
        }

    def test_get_or_compute_runs_once(self):
        cache = TraceCache()
        calls = []

        def compute():
            calls.append(1)
            return small_trace()

        first = cache.get_or_compute("k", compute)
        second = cache.get_or_compute("k", compute)
        assert first is second
        assert len(calls) == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_contains_and_len(self):
        cache = TraceCache()
        assert "k" not in cache
        cache.put("k", small_trace())
        assert "k" in cache
        assert len(cache) == 1

    def test_clear(self):
        cache = TraceCache()
        cache.put("k", small_trace())
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "hits": 0, "misses": 0, "entries": 0, "evictions": 0, "bytes": 0,
        }


class TestDisk:
    def test_round_trip_across_instances(self, tmp_path):
        writer = TraceCache(tmp_path)
        trace = small_trace(0.5)
        writer.put("deadbeef", trace)
        assert (tmp_path / "deadbeef.npt").exists()

        reader = TraceCache(tmp_path)
        restored = reader.get("deadbeef")
        assert restored is not None
        assert reader.stats()["hits"] == 1
        assert restored.total_time_s == trace.total_time_s
        assert [r.seq_len for r in restored.records] == [10, 20]

    def test_disk_hit_populates_memory(self, tmp_path):
        TraceCache(tmp_path).put("k", small_trace())
        cache = TraceCache(tmp_path)
        first = cache.get("k")
        second = cache.get("k")
        assert first is second  # second hit served from memory

    def test_contains_consults_disk(self, tmp_path):
        TraceCache(tmp_path).put("k", small_trace())
        assert "k" in TraceCache(tmp_path)

    def test_clear_keeps_disk(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("k", small_trace())
        cache.clear()
        assert cache.get("k") is not None

    @pytest.mark.parametrize("writer", [dump_v1, lambda t, p: t.save(p, version=2)])
    def test_legacy_json_entry_is_a_miss(self, tmp_path, writer):
        legacy = tmp_path / "k.json"
        writer(small_trace(0.5), legacy)
        cache = TraceCache(tmp_path)
        assert "k" not in cache
        assert cache.get("k") is None
        trace = cache.get_or_compute("k", lambda: small_trace(0.5))
        assert trace.records == small_trace(0.5).records
        assert cache.stats()["misses"] == 2
        assert (tmp_path / "k.npt").exists()
        assert legacy.exists()  # left alone, not quarantined
        assert not (tmp_path / "k.json.corrupt").exists()


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
class TestCorruptArtefacts:
    """A torn or emptied ``.npt`` never poisons its key: a bare ``get``
    reports a miss, and ``get_or_compute`` sets the file aside as
    ``{key}.npt.corrupt`` and computes again."""

    def test_bare_get_reports_a_miss(self, tmp_path, corruption):
        TraceCache(tmp_path).put("k", small_trace())
        CORRUPTIONS[corruption](tmp_path / "k.npt")
        cache = TraceCache(tmp_path)
        assert cache.get("k") is None
        assert cache.stats()["misses"] == 1
        assert (tmp_path / "k.npt").exists()
        assert not (tmp_path / "k.npt.corrupt").exists()

    def test_get_or_compute_recomputes(self, tmp_path, corruption):
        TraceCache(tmp_path).put("k", small_trace(0.5))
        CORRUPTIONS[corruption](tmp_path / "k.npt")
        trace = TraceCache(tmp_path).get_or_compute("k", lambda: small_trace(0.5))
        assert trace.total_time_s == small_trace(0.5).total_time_s
        assert (tmp_path / "k.npt.corrupt").exists()
        # The recomputed artefact replaced the corrupt one.
        again = TraceCache(tmp_path).get("k")
        assert again is not None
        assert again.records == small_trace(0.5).records

    def test_next_cli_run_gives_the_same_answer(self, tmp_path, capsys, corruption):
        args = ["analyze", "--network", "gnmt", "--scale", "0.02",
                "--cache-dir", str(tmp_path), "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        artefacts = sorted(tmp_path.glob("*.npt"))
        assert artefacts
        for path in artefacts:
            CORRUPTIONS[corruption](path)
        assert main(args) == 0
        assert capsys.readouterr().out == first
        for path in artefacts:
            assert path.with_name(f"{path.name}.corrupt").exists()
        # ...and the run after that loads the rewritten artefacts.
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestEviction:
    def test_rejects_nonpositive_budgets(self):
        with pytest.raises(ValueError):
            TraceCache(max_bytes=0)
        with pytest.raises(ValueError):
            TraceCache(max_entries=-1)

    def test_byte_accounting_tracks_entries(self):
        cache = TraceCache()
        one, two = small_trace(), small_trace(2.0)
        cache.put("a", one)
        cache.put("b", two)
        assert cache.bytes == trace_nbytes(one) + trace_nbytes(two)
        # Re-putting a key replaces its accounting, not double-counts it.
        cache.put("a", one)
        assert cache.bytes == trace_nbytes(one) + trace_nbytes(two)

    def test_lru_eviction_by_entries(self):
        cache = TraceCache(max_entries=2)
        cache.put("a", small_trace())
        cache.put("b", small_trace())
        cache.get("a")  # refresh a: b is now least recently used
        cache.put("c", small_trace())
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2

    def test_lru_eviction_by_bytes(self):
        entry = trace_nbytes(small_trace())
        cache = TraceCache(max_bytes=2 * entry)
        cache.put("a", small_trace())
        cache.put("b", small_trace())
        assert cache.stats()["evictions"] == 0
        cache.put("c", small_trace())
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["bytes"] <= 2 * entry
        assert "a" not in cache

    def test_oversized_entry_is_not_admitted(self):
        trace = small_trace()
        cache = TraceCache(max_bytes=max(1, trace_nbytes(trace) // 2))
        cache.put("huge", trace)
        assert len(cache) == 0
        assert cache.stats()["bytes"] == 0
        assert cache.stats()["evictions"] == 1

    def test_evicted_entry_reloads_from_disk(self, tmp_path):
        cache = TraceCache(tmp_path, max_entries=1)
        cache.put("a", small_trace())
        cache.put("b", small_trace())  # evicts a from memory only
        assert cache.stats()["evictions"] == 1
        assert cache.get("a") is not None  # disk hit re-admits
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 0


class TestBinaryStorage:
    """Disk tier observability and the mmap-backed artefact lifecycle."""

    def test_storage_stats_memory_only(self):
        cache = TraceCache()
        assert cache.storage_stats() == {
            "directory": None,
            "disk_entries": {"binary": 0},
            "cold_loads": {},
        }

    def test_cold_loads_counted_per_format(self, tmp_path):
        TraceCache(tmp_path).put("aa", small_trace())
        small_trace().save(tmp_path / "bb.json", version=2)  # legacy artefact
        cache = TraceCache(tmp_path)
        assert cache.get("aa") is not None
        assert cache.get("bb") is None
        stats = cache.storage_stats()
        assert stats["directory"] == str(tmp_path)
        assert stats["disk_entries"] == {"binary": 1}
        assert list(stats["cold_loads"]) == ["binary"]
        entry = stats["cold_loads"]["binary"]
        assert entry["count"] == 1
        assert entry["seconds"] >= 0.0
        assert entry["max_s"] >= entry["seconds"] / entry["count"]
        # Memory hits are not cold loads.
        cache.get("aa")
        assert cache.storage_stats()["cold_loads"]["binary"]["count"] == 1

    def test_disk_entry_reports_real_file_size(self, tmp_path):
        writer = TraceCache(tmp_path)
        writer.put("k", small_trace())
        reader = TraceCache(tmp_path)
        loaded = reader.get("k")
        assert trace_nbytes(loaded) == (tmp_path / "k.npt").stat().st_size
        assert reader.stats()["bytes"] == (tmp_path / "k.npt").stat().st_size

    def test_loaded_trace_outlives_eviction_and_unlink(self, tmp_path):
        TraceCache(tmp_path).put("a", small_trace())
        cache = TraceCache(tmp_path, max_entries=1)
        trace = cache.get("a")  # mmap-backed cold load
        assert trace.frame().storage is not None
        cache.put("b", small_trace())  # evicts a from memory
        assert cache.stats()["evictions"] == 1
        (tmp_path / "a.npt").unlink()  # POSIX: the mapping pins the pages
        assert [r.seq_len for r in trace.records] == [10, 20]
        assert trace.frame().time_s.sum() == 3.0

    def test_clear_resets_cold_load_counters(self, tmp_path):
        TraceCache(tmp_path).put("k", small_trace())
        cache = TraceCache(tmp_path)
        cache.get("k")
        assert cache.storage_stats()["cold_loads"]
        cache.clear()
        assert cache.storage_stats()["cold_loads"] == {}

    def test_fcntl_free_hosts_still_coordinate(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.util.filelock.fcntl", None)
        cache = TraceCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return small_trace()

        first = cache.get_or_compute("k", compute)
        assert (tmp_path / "k.npt").exists()
        second = TraceCache(tmp_path).get_or_compute("k", compute)
        assert len(calls) == 1  # second instance hit the artefact
        assert first.total_time_s == second.total_time_s


class TestCounterThreadSafety:
    def test_concurrent_hits_count_exactly(self):
        cache = TraceCache()
        cache.put("k", small_trace())
        rounds, threads = 200, 8

        def hammer():
            for _ in range(rounds):
                assert cache.get("k") is not None
                cache.get("missing")

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        stats = cache.stats()
        assert stats["hits"] == rounds * threads
        assert stats["misses"] == rounds * threads

    def test_concurrent_eviction_accounting_is_exact(self):
        entry = trace_nbytes(small_trace())
        cache = TraceCache(max_bytes=3 * entry)

        def churn(worker: int):
            for index in range(50):
                cache.put(f"w{worker}-{index}", small_trace())

        pool = [threading.Thread(target=churn, args=(w,)) for w in range(4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        stats = cache.stats()
        # Whatever interleaving happened, the books must balance:
        # resident bytes equal the per-entry size times entries, and
        # every non-resident put was counted as an eviction.
        assert stats["bytes"] == entry * stats["entries"]
        assert stats["evictions"] == 200 - stats["entries"]
        assert stats["bytes"] <= 3 * entry
