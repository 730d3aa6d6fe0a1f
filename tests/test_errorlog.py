"""Tests for the memory-error log (paper §3's administrator log)."""

import pytest

from repro.core.errorlog import MemoryErrorLog
from repro.errors import AccessKind, ErrorKind, MemoryErrorEvent


def make_event(site="f", offset=10, access=AccessKind.WRITE, kind=ErrorKind.OUT_OF_BOUNDS,
               request_id=None):
    return MemoryErrorEvent(
        kind=kind,
        access=access,
        unit_name="buf#1",
        unit_size=8,
        offset=offset,
        length=1,
        site=site,
        request_id=request_id,
    )


class TestRecording:
    def test_record_and_len(self):
        log = MemoryErrorLog()
        log.record(make_event())
        assert len(log) == 1

    def test_total_recorded_counts_all(self):
        log = MemoryErrorLog(capacity=2)
        for _ in range(5):
            log.record(make_event())
        assert log.total_recorded == 5
        assert len(log) == 2
        assert log.dropped == 3

    def test_clear(self):
        log = MemoryErrorLog()
        log.record(make_event())
        log.clear()
        assert len(log) == 0
        assert log.total_recorded == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryErrorLog(capacity=0)

    def test_eviction_keeps_newest(self):
        log = MemoryErrorLog(capacity=2)
        log.record(make_event(site="a"))
        log.record(make_event(site="b"))
        log.record(make_event(site="c"))
        assert [event.site for event in log.events()] == ["b", "c"]


class TestQueries:
    def test_count_by_site(self):
        log = MemoryErrorLog()
        log.record(make_event(site="prescan"))
        log.record(make_event(site="prescan"))
        log.record(make_event(site="wakeup"))
        assert log.count_by_site()["prescan"] == 2

    def test_count_by_kind(self):
        log = MemoryErrorLog()
        log.record(make_event(kind=ErrorKind.OUT_OF_BOUNDS))
        log.record(make_event(kind=ErrorKind.USE_AFTER_FREE))
        assert log.count_by_kind()[ErrorKind.OUT_OF_BOUNDS] == 1

    def test_read_write_counts(self):
        log = MemoryErrorLog()
        log.record(make_event(access=AccessKind.READ))
        log.record(make_event(access=AccessKind.WRITE))
        log.record(make_event(access=AccessKind.WRITE))
        assert log.count_reads() == 1
        assert log.count_writes() == 2

    def test_most_common_sites(self):
        log = MemoryErrorLog()
        for _ in range(3):
            log.record(make_event(site="hot"))
        log.record(make_event(site="cold"))
        assert log.most_common_sites(1)[0][0] == "hot"

    def test_summary_mentions_totals(self):
        log = MemoryErrorLog()
        log.record(make_event())
        assert "1 error" in log.summary()

    def test_iteration(self):
        log = MemoryErrorLog()
        log.record(make_event())
        assert list(log)[0].unit_name == "buf#1"

    def test_event_describe_contains_offset_and_unit(self):
        event = make_event(offset=12)
        text = event.describe()
        assert "12" in text and "buf#1" in text
