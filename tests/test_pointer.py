"""Tests for fat pointers (Ruwase & Lam style intended referents)."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.data_unit import NULL_UNIT, UnitKind, make_unit
from repro.memory.pointer import FatPointer
from repro.minic import ast_nodes as ast
from repro.minic.interpreter import TypedPointer


def make_ptr(size=16, base=1000):
    unit = make_unit(name="buf", base=base, size=size, kind=UnitKind.HEAP)
    return FatPointer(unit)


class TestBasics:
    def test_address_combines_base_and_offset(self):
        ptr = make_ptr(base=1000)
        assert (ptr + 5).address == 1005

    def test_null_pointer(self):
        null = FatPointer.null()
        assert null.is_null
        assert null.referent is NULL_UNIT
        assert not null.in_bounds

    def test_in_bounds_inside(self):
        ptr = make_ptr(size=8)
        assert ptr.in_bounds
        assert (ptr + 7).in_bounds

    def test_in_bounds_false_at_end(self):
        ptr = make_ptr(size=8)
        assert not (ptr + 8).in_bounds

    def test_in_bounds_false_when_negative(self):
        ptr = make_ptr()
        assert not (ptr - 1).in_bounds

    def test_in_bounds_false_when_dead(self):
        ptr = make_ptr()
        ptr.referent.alive = False
        assert not ptr.in_bounds

    def test_remaining(self):
        ptr = make_ptr(size=10)
        assert (ptr + 3).remaining() == 7
        assert (ptr + 12).remaining() == 0
        assert (ptr - 2).remaining() == 0  # negative offsets have no safe span

    def test_remaining_zero_for_dead_unit(self):
        ptr = make_ptr(size=10)
        ptr.referent.alive = False
        assert ptr.remaining() == 0

    def test_to_unit_constructor(self):
        unit = make_unit(name="x", base=50, size=4, kind=UnitKind.STACK)
        assert FatPointer.to_unit(unit, 2).address == 52


class TestArithmetic:
    def test_addition_preserves_referent(self):
        ptr = make_ptr()
        moved = ptr + 100
        assert moved.referent is ptr.referent
        assert moved.offset == 100

    def test_subtraction_of_int(self):
        ptr = make_ptr()
        assert (ptr + 10 - 4).offset == 6

    def test_pointer_difference(self):
        ptr = make_ptr()
        assert (ptr + 10) - (ptr + 4) == 6

    def test_out_of_bounds_pointers_are_representable(self):
        """Holding (not dereferencing) an OOB pointer is legal, as Pine/MC rely on."""
        ptr = make_ptr(size=4)
        way_out = ptr + 1000
        assert way_out.offset == 1000
        assert way_out.referent is ptr.referent


class TestComparisons:
    def test_ordering_by_address(self):
        ptr = make_ptr()
        assert ptr < ptr + 1
        assert ptr + 2 > ptr
        assert ptr <= ptr
        assert ptr >= ptr

    def test_comparison_across_units_uses_addresses(self):
        a = FatPointer(make_unit(name="a", base=100, size=4, kind=UnitKind.HEAP))
        b = FatPointer(make_unit(name="b", base=200, size=4, kind=UnitKind.HEAP))
        assert a < b

    def test_out_of_bounds_comparison_does_not_raise(self):
        """The paper §4.1 notes Pine and MC compare out-of-bounds pointers."""
        ptr = make_ptr(size=4)
        assert (ptr + 100) > ptr

    def test_same_unit(self):
        ptr = make_ptr()
        other = FatPointer(make_unit(name="o", base=5000, size=4, kind=UnitKind.HEAP))
        assert ptr.same_unit(ptr + 3)
        assert not ptr.same_unit(other)

    def test_equality_is_structural(self):
        ptr = make_ptr()
        assert ptr + 1 == ptr + 1
        assert ptr + 1 != ptr + 2


class TestFastConstruction:
    """Arithmetic results go through the one-step ``frozen_record``
    constructor; they must be indistinguishable from pointers built
    directly."""

    steps = st.integers(min_value=-4096, max_value=4096)

    @staticmethod
    def assert_same(built, expected):
        assert type(built) is type(expected)
        assert built == expected
        assert hash(built) == hash(expected)
        assert repr(built) == repr(expected)

    @settings(max_examples=200, deadline=None)
    @given(start=steps, delta=steps)
    def test_arithmetic_equals_constructor(self, start, delta):
        unit = make_unit(name="buf", base=0x2000, size=64, kind=UnitKind.HEAP)
        ptr = FatPointer(unit, start)
        self.assert_same(ptr + delta, FatPointer(unit, start + delta))
        self.assert_same(ptr - delta, FatPointer(unit, start - delta))

    @settings(max_examples=200, deadline=None)
    @given(start=steps, elements=steps, elem_size=st.sampled_from([1, 2, 4, 8, 12]),
           typed=st.booleans())
    def test_offset_by_equals_constructor(self, start, elements, elem_size, typed):
        unit = make_unit(name="arr", base=0x3000, size=48, kind=UnitKind.STACK)
        ctype = ast.CType("int", pointer_depth=1) if typed else None
        ptr = TypedPointer(FatPointer(unit, start), elem_size, ctype)
        self.assert_same(
            ptr.offset_by(elements),
            TypedPointer(FatPointer(unit, start + elements * elem_size), elem_size, ctype),
        )

    def test_results_stay_frozen(self):
        unit = make_unit(name="buf", base=0x2000, size=8, kind=UnitKind.HEAP)
        for ptr in (FatPointer(unit) + 1, FatPointer(unit) - 1):
            with pytest.raises(dataclasses.FrozenInstanceError):
                ptr.offset = 0
        typed = TypedPointer(FatPointer(unit), 4).offset_by(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            typed.elem_size = 1
        assert not hasattr(typed, "__dict__")

    @pytest.mark.parametrize("round_trip", [
        lambda value: pickle.loads(pickle.dumps(value)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_round_trips_keep_offset_and_referent(self, round_trip):
        unit = make_unit(name="buf", base=0x2000, size=8, kind=UnitKind.HEAP, serial=41)
        ptr = FatPointer(unit) + 5
        back = round_trip(ptr)
        assert back.offset == 5
        assert back.referent.label() == unit.label() == "buf#41"
        assert back.address == ptr.address
        typed = TypedPointer(FatPointer(unit), 4).offset_by(-3)
        back = round_trip(typed)
        assert (back.pointer.offset, back.elem_size) == (-12, 4)
        assert back.pointer.referent.label() == "buf#41"
