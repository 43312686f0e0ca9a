"""Tests for the on-disk sweep result cache."""

import pickle
import struct
import warnings
import zlib

import pytest

from repro.sweep.cache import CORRUPT_DIR, ResultCache
from repro.sweep.executor import execute_job
from repro.sweep.spec import EstimatorSpec, JobSpec, PredictorSpec


def make_job(**overrides) -> JobSpec:
    options = dict(
        predictor=PredictorSpec.of("tage", size="16K"),
        estimator=EstimatorSpec.of("tage"),
        trace="FP-1",
        n_branches=600,
    )
    options.update(overrides)
    return JobSpec(**options)


class TestResultCache:
    def test_miss_on_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(make_job()) is None
        assert make_job() not in cache
        assert len(cache) == 0

    def test_store_then_load_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        executed = execute_job(job)
        cache.store(job, executed)

        assert job in cache
        assert len(cache) == 1
        loaded = cache.load(job)
        assert loaded is not None
        assert loaded.from_cache and not executed.from_cache
        assert loaded.row() == executed.row()
        assert loaded.result.class_table() == executed.result.class_table()

    def test_identical_spec_hash_hits_fresh_cache_instance(self, tmp_path):
        # A *new* ResultCache over the same directory and an equal-by-value
        # JobSpec must hit: the key is the canonical spec hash, not object
        # identity.
        job = make_job()
        ResultCache(tmp_path).store(job, execute_job(job))
        twin = make_job()
        assert twin.spec_hash() == job.spec_hash()
        assert ResultCache(tmp_path).load(twin) is not None

    def test_different_job_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.store(job, execute_job(job))
        assert cache.load(make_job(n_branches=601)) is None
        assert cache.load(make_job(trace="INT-1")) is None
        assert cache.load(make_job(seed=9)) is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.store(job, execute_job(job))
        cache.path(job).write_bytes(b"not a pickle")
        assert cache.load(job) is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_membership_is_loadability_not_existence(self, tmp_path):
        # Regression: __contains__ used to answer path.exists() while
        # load() rejected corrupt pickles, so a poisoned entry claimed
        # membership it could not honour.
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.store(job, execute_job(job))
        assert job in cache
        cache.path(job).write_bytes(b"not a pickle")
        assert cache.path(job).exists()
        assert job not in cache
        assert cache.load(job) is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_membership_consistent_with_load_on_truncated_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.store(job, execute_job(job))
        payload = cache.path(job).read_bytes()
        cache.path(job).write_bytes(payload[: len(payload) // 2])
        assert (job in cache) == (cache.load(job) is not None)
        assert job not in cache

    def test_corrupt_entry_quarantined_with_warning(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.store(job, execute_job(job))
        entry = cache.path(job)
        entry.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning) as caught:
            assert cache.load(job) is None
        # The warning names the job's spec hash and the evidence moved
        # to the .corrupt/ sibling for post-mortem.
        assert job.spec_hash() in str(caught[0].message)
        assert not entry.exists()
        quarantined = tmp_path / CORRUPT_DIR / entry.name
        assert quarantined.read_bytes() == b"not a pickle"
        # Second load: plain miss, no second warning (nothing to move).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load(job) is None

    def test_store_after_quarantine_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        executed = execute_job(job)
        cache.store(job, executed)
        cache.path(job).write_bytes(b"")
        with pytest.warns(RuntimeWarning):
            assert cache.load(job) is None
        cache.store(job, executed)
        loaded = cache.load(job)
        assert loaded is not None and loaded.row() == executed.row()

    def test_missing_entry_is_not_quarantined(self, tmp_path):
        # A plain miss must not warn or create .corrupt/.
        cache = ResultCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load(make_job()) is None
        assert not (tmp_path / CORRUPT_DIR).exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for trace in ("FP-1", "INT-1"):
            job = make_job(trace=trace)
            cache.store(job, execute_job(job))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestCrcTrailer:
    """Each entry is the pickle plus a CRC-32 of it; ``load`` checks the
    CRC before it unpickles, so a flipped bit is never served."""

    def test_plain_pickle_load_still_reads_an_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        executed = execute_job(job)
        path = cache.store(job, executed)
        assert path == cache.path(job)
        data = path.read_bytes()
        assert data[-4:] == zlib.crc32(data[:-4]).to_bytes(4, "little")
        with path.open("rb") as handle:
            assert pickle.load(handle).row() == executed.row()

    def test_flipped_payload_bit_is_a_miss_and_a_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        executed = execute_job(job)
        entry = cache.store(job, executed)
        data = bytearray(entry.read_bytes())
        # Flip the last bit of the pickled ``elapsed`` float: the payload
        # still unpickles, to a different result, so only the CRC can
        # tell the entry is not what was stored.
        encoded = b"G" + struct.pack(">d", executed.elapsed)
        at = data.index(encoded) + len(encoded) - 1
        data[at] ^= 0x01
        entry.write_bytes(bytes(data))
        assert pickle.loads(bytes(data[:-4])).elapsed != executed.elapsed

        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            assert cache.load(job) is None
        assert not entry.exists()
        assert (tmp_path / CORRUPT_DIR / entry.name).read_bytes() == data

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_missing_trailer_is_a_miss_and_a_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        executed = execute_job(job)
        cache.path(job).parent.mkdir(parents=True, exist_ok=True)
        cache.path(job).write_bytes(pickle.dumps(executed))
        assert cache.load(job) is None
        assert (tmp_path / CORRUPT_DIR / cache.path(job).name).exists()


class TestGroup:
    def test_entries_appear_when_the_group_exits(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [make_job(trace=trace) for trace in ("FP-1", "INT-1")]
        results = [execute_job(job) for job in jobs]
        with cache.group():
            for job, result in zip(jobs, results):
                cache.store(job, result)
            assert len(cache) == 0
        assert len(cache) == 2
        assert sorted(path.suffix for path in tmp_path.iterdir()) == [".pkl"] * 2
        for job, result in zip(jobs, results):
            assert cache.load(job).row() == result.row()

    def test_an_exception_discards_the_group(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        with pytest.raises(RuntimeError, match="boom"):
            with cache.group():
                cache.store(job, execute_job(job))
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []
        assert cache.load(job) is None

    def test_groups_do_not_nest(self, tmp_path):
        cache = ResultCache(tmp_path)
        with cache.group():
            with pytest.raises(RuntimeError, match="nest"):
                with cache.group():
                    pass
