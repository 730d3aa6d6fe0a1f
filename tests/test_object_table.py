"""Tests for the Jones & Kelly object table."""

import pytest

from repro.memory.data_unit import UnitKind, make_unit
from repro.memory.object_table import ObjectTable


def unit(base, size, name="u"):
    return make_unit(name=name, base=base, size=size, kind=UnitKind.HEAP)


class TestRegistration:
    def test_register_and_find(self):
        table = ObjectTable()
        u = table.register(unit(100, 16))
        assert table.find(100) is u
        assert table.find(115) is u

    def test_find_outside_returns_none(self):
        table = ObjectTable()
        table.register(unit(100, 16))
        assert table.find(116) is None
        assert table.find(99) is None

    def test_overlapping_registration_rejected(self):
        table = ObjectTable()
        table.register(unit(100, 16))
        with pytest.raises(ValueError):
            table.register(unit(110, 16))
        with pytest.raises(ValueError):
            table.register(unit(90, 16))

    def test_adjacent_units_allowed(self):
        table = ObjectTable()
        table.register(unit(100, 16))
        table.register(unit(116, 16))
        assert len(table) == 2

    def test_unregister_marks_dead_and_removes(self):
        table = ObjectTable()
        u = table.register(unit(100, 16))
        table.unregister(u)
        assert table.find(100) is None
        assert not u.alive

    def test_unregister_unknown_raises(self):
        table = ObjectTable()
        with pytest.raises(KeyError):
            table.unregister(unit(100, 16))

    def test_retired_units_found_for_uaf_attribution(self):
        table = ObjectTable()
        u = table.register(unit(100, 16))
        table.unregister(u)
        assert table.find_retired(105) is u


class TestLookup:
    def test_lookup_counter_increments(self):
        table = ObjectTable()
        table.register(unit(100, 16))
        before = table.lookups
        table.find(100)
        table.find(200)
        assert table.lookups == before + 2

    def test_many_units_lookup_correctness(self):
        table = ObjectTable()
        units = [table.register(unit(i * 32, 16, name=f"u{i}")) for i in range(100)]
        for i, u in enumerate(units):
            assert table.find(i * 32 + 8) is u
            assert table.find(i * 32 + 20) is None

    def test_live_units_sorted_by_base(self):
        table = ObjectTable()
        table.register(unit(200, 8))
        table.register(unit(100, 8))
        bases = [u.base for u in table.live_units()]
        assert bases == sorted(bases)

    def test_iteration(self):
        table = ObjectTable()
        table.register(unit(100, 8))
        assert len(list(table)) == 1
