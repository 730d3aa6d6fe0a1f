"""JSONL serialization round-trips and the fork-pool spill/merge path."""

import copy
import dataclasses
import io
import json
import pickle
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.policy import AccessDecision, DecisionAction
from repro.errors import (
    AccessKind,
    BoundsCheckViolation,
    ErrorKind,
    MemoryErrorEvent,
    RequestOutcome,
)
from repro.harness.engine import ENGINE, ScenarioSpec
from repro.memory.data_unit import NULL_UNIT, UnitKind, make_unit
from repro.memory.pointer import FatPointer
from repro.minic import ast_nodes as ast
from repro.minic.interpreter import TypedPointer
from repro.telemetry import (
    AllocFree,
    CounterSink,
    Discard,
    EVENT_TYPES,
    FaultInjected,
    InvalidAccess,
    Manufacture,
    Redirect,
    RequestEnd,
    RequestQuarantined,
    RequestStart,
    RollbackPerformed,
    ScenarioEnd,
    ScenarioStart,
    SnapshotTaken,
    TelemetrySession,
    from_record,
    iter_records,
    summarize_trace,
    to_record,
)

# ---------------------------------------------------------------------------
# Hypothesis strategies: one per event type, composed into "any event".
# ---------------------------------------------------------------------------

text = st.text(max_size=24)
request_ids = st.none() | st.integers(min_value=0, max_value=10**9)
counts = st.integers(min_value=0, max_value=10**9)
offsets = st.integers(min_value=-(10**9), max_value=10**9)
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
outcomes = st.sampled_from([outcome.value for outcome in RequestOutcome])

memory_errors = st.builds(
    MemoryErrorEvent,
    kind=st.sampled_from(ErrorKind),
    access=st.sampled_from(AccessKind),
    unit_name=text,
    unit_size=counts,
    offset=offsets,
    length=counts,
    site=text,
    request_id=request_ids,
)

run_counts = st.integers(min_value=1, max_value=10**6)
strides = st.integers(min_value=-4, max_value=4)

events = st.one_of(
    st.builds(InvalidAccess, error=memory_errors, count=run_counts, stride=strides),
    st.builds(Discard, length=counts, site=text, request_id=request_ids,
              stored=st.booleans(), count=run_counts),
    st.builds(Manufacture, length=counts, site=text, request_id=request_ids,
              count=run_counts),
    st.builds(Redirect, offset=offsets, redirect_offset=offsets, length=counts,
              access=st.sampled_from(["read", "write"]), site=text,
              request_id=request_ids, count=run_counts),
    st.builds(AllocFree, op=st.sampled_from(["malloc", "free"]), unit_name=text,
              size=counts, base=counts, request_id=request_ids),
    st.builds(RequestStart, request_id=counts, kind=text, is_attack=st.booleans()),
    st.builds(RequestEnd, request_id=counts, kind=text, outcome=outcomes,
              is_attack=st.booleans(), elapsed_seconds=finite_floats,
              memory_errors=counts,
              error_sites=st.lists(st.tuples(text, counts), max_size=4).map(tuple)),
    st.builds(ScenarioStart, scenario_id=counts, server=text, policy=text,
              workload=text, scale=finite_floats),
    st.builds(ScenarioEnd, scenario_id=counts, seconds=finite_floats),
    st.builds(SnapshotTaken, index=counts, blocks=counts, delta_bytes=counts,
              request_id=request_ids),
    st.builds(RollbackPerformed, snapshot_index=counts, request_id=request_ids,
              kind=text, is_attack=st.booleans(), blocks_restored=counts,
              to_boot_image=st.booleans(),
              backoff_virtual_seconds=finite_floats),
    st.builds(RequestQuarantined, request_id=counts, kind=text,
              is_attack=st.booleans(), attempts=run_counts),
    st.builds(FaultInjected, kind=st.sampled_from(["abort", "alloc-fail",
                                                   "corrupt"]),
              request_id=request_ids, address=counts, length=counts,
              point=st.sampled_from(["before", "after"])),
)


# ---------------------------------------------------------------------------
# Every frozen_record class: construction, copying, immutability, fields.
# ---------------------------------------------------------------------------

#: Objects that compare by identity (data units, exceptions).  Round trips
#: carry them by reference, so a record holding one can compare equal to
#: its copy, the way a record is compared within one process.
SHARED = [
    NULL_UNIT,
    make_unit(name="buf", base=0x2000, size=16, kind=UnitKind.HEAP),
    make_unit(name="frame", base=0x9000, size=8, kind=UnitKind.STACK),
]
SHARED.append(BoundsCheckViolation(MemoryErrorEvent(
    ErrorKind.OUT_OF_BOUNDS, AccessKind.WRITE, "buf", 16, 16, 1)))

pointers = st.builds(FatPointer, referent=st.sampled_from(SHARED[:3]), offset=offsets)
record_values = st.one_of(
    events,
    memory_errors,
    st.builds(AccessDecision, action=st.sampled_from(DecisionAction),
              data=st.none() | st.binary(max_size=8),
              exception=st.none() | st.just(SHARED[3]),
              redirect_offset=st.none() | offsets),
    pointers,
    st.builds(TypedPointer, pointer=pointers, elem_size=st.integers(1, 16),
              ctype=st.none() | st.just(ast.CType("int", pointer_depth=1))),
)

#: Field names and defaults of every frozen_record class, as they were
#: before the classes shared one constructor (a bare name has no default).
RECORD_FIELDS = {
    MemoryErrorEvent: ("kind", "access", "unit_name", "unit_size", "offset", "length",
                       ("site", ""), ("request_id", None)),
    AccessDecision: ("action", ("data", None), ("exception", None),
                     ("redirect_offset", None)),
    FatPointer: ("referent", ("offset", 0)),
    TypedPointer: ("pointer", ("elem_size", 1), ("ctype", None)),
    InvalidAccess: ("error", ("count", 1), ("stride", 1)),
    Discard: ("length", ("site", ""), ("request_id", None), ("stored", False), ("count", 1)),
    Manufacture: ("length", ("site", ""), ("request_id", None), ("count", 1)),
    Redirect: ("offset", "redirect_offset", "length", ("access", "read"), ("site", ""),
               ("request_id", None), ("count", 1)),
    AllocFree: ("op", "unit_name", "size", "base", ("request_id", None)),
    RequestStart: ("request_id", "kind", ("is_attack", False)),
    RequestEnd: ("request_id", "kind", "outcome", ("is_attack", False),
                 ("elapsed_seconds", 0.0), ("memory_errors", 0), ("error_sites", ())),
    ScenarioStart: ("scenario_id", "server", "policy", "workload", ("scale", 1.0)),
    ScenarioEnd: ("scenario_id", ("seconds", 0.0)),
    SnapshotTaken: ("index", ("blocks", 0), ("delta_bytes", 0), ("request_id", None)),
    RollbackPerformed: ("snapshot_index", ("request_id", None), ("kind", ""),
                        ("is_attack", False), ("blocks_restored", 0),
                        ("to_boot_image", False), ("backoff_virtual_seconds", 0.0)),
    RequestQuarantined: ("request_id", "kind", ("is_attack", False), ("attempts", 0)),
    FaultInjected: ("kind", ("request_id", None), ("address", 0), ("length", 0),
                    ("point", "")),
}


class _SharedPickler(pickle.Pickler):
    def persistent_id(self, obj):
        for index, shared in enumerate(SHARED):
            if obj is shared:
                return index
        return None


class _SharedUnpickler(pickle.Unpickler):
    def persistent_load(self, pid):
        return SHARED[pid]


def _pickle_round_trip(value):
    buffer = io.BytesIO()
    _SharedPickler(buffer).dump(value)
    buffer.seek(0)
    return _SharedUnpickler(buffer).load()


def _assert_same(built, expected):
    assert type(built) is type(expected)
    assert built == expected
    assert hash(built) == hash(expected)
    assert repr(built) == repr(expected)


class TestRecordTypes:
    def test_every_event_type_is_covered(self):
        assert set(EVENT_TYPES.values()) <= set(RECORD_FIELDS)

    @pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda cls: cls.__name__)
    def test_field_names_and_defaults_are_unchanged(self, cls):
        got = tuple(
            spec.name if spec.default is dataclasses.MISSING else (spec.name, spec.default)
            for spec in dataclasses.fields(cls)
        )
        assert got == RECORD_FIELDS[cls]
        # Slotted: instances carry no per-instance ``__dict__``.
        assert cls.__slots__ == tuple(spec.name for spec in dataclasses.fields(cls))

    @settings(max_examples=300, deadline=None)
    @given(value=record_values)
    def test_construction_forms_agree(self, value):
        cls = type(value)
        specs = dataclasses.fields(cls)
        values = {spec.name: getattr(value, spec.name) for spec in specs}
        _assert_same(cls(*values.values()), value)
        _assert_same(cls(**values), value)
        # Leave out every argument whose value is its default (compared by
        # type and repr, so -0.0 is not taken for a default 0.0).
        defaults = {spec.name: spec.default for spec in specs}
        omitted = {name: field_value for name, field_value in values.items()
                   if type(defaults[name]) is not type(field_value)
                   or repr(defaults[name]) != repr(field_value)}
        _assert_same(cls(**omitted), value)
        _assert_same(dataclasses.replace(value), value)

    @settings(max_examples=300, deadline=None)
    @given(value=record_values)
    def test_pickle_and_deepcopy_round_trips(self, value):
        _assert_same(_pickle_round_trip(value), value)
        memo = {id(shared): shared for shared in SHARED}
        _assert_same(copy.deepcopy(value, memo), value)

    @settings(max_examples=100, deadline=None)
    @given(value=record_values, data=st.data())
    def test_fields_cannot_be_assigned(self, value, data):
        name = data.draw(st.sampled_from([spec.name for spec in dataclasses.fields(value)]))
        before = getattr(value, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0)
        assert getattr(value, name) is before


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(event=events)
    def test_every_event_round_trips_through_json(self, event):
        """Acceptance: serialize -> JSON text -> deserialize is the identity."""
        restored = from_record(json.loads(json.dumps(to_record(event))))
        assert restored == event

    @settings(max_examples=50, deadline=None)
    @given(event=events)
    def test_session_stamps_are_ignored_on_read(self, event):
        record = to_record(event)
        record["scope"] = {"server": "pine", "policy": "standard"}
        record["scenario"] = 3
        assert from_record(record) == event

    def test_registry_names_are_bijective(self):
        # Every registered type must round-trip its tag, so no event type can
        # be exported without a parse path.
        assert len(EVENT_TYPES) == 13
        assert len(set(EVENT_TYPES.values())) == len(EVENT_TYPES)

    def test_unknown_event_tag_is_rejected(self):
        try:
            from_record({"event": "mystery"})
        except ValueError as exc:
            assert "mystery" in str(exc)
        else:  # pragma: no cover - defensive
            raise AssertionError("expected ValueError")


class TestSummaryRunWeighting:
    def test_flood_summarizes_identically_per_byte_or_as_runs(self):
        """The same flood exported as per-byte records or as one run record
        produces identical summary queries (count-weighted aggregation)."""
        from repro.errors import MemoryErrorEvent
        from repro.telemetry import InvalidAccess, summarize_records

        def records(batched):
            scope = {"server": "pine", "policy": "failure-oblivious"}
            if batched:
                stream = [
                    InvalidAccess(error=MemoryErrorEvent(
                        kind=ErrorKind.OUT_OF_BOUNDS, access=AccessKind.WRITE,
                        unit_name="buf#1", unit_size=8, offset=8, length=1,
                        site="flood"), count=500, stride=1),
                    Discard(length=500, count=500, site="flood"),
                ]
            else:
                stream = [
                    InvalidAccess(error=MemoryErrorEvent(
                        kind=ErrorKind.OUT_OF_BOUNDS, access=AccessKind.WRITE,
                        unit_name="buf#1", unit_size=8, offset=8 + i, length=1,
                        site="flood"))
                    for i in range(500)
                ] + [Discard(length=1, site="flood") for _ in range(500)]
            return [dict(to_record(event), scope=scope) for event in stream]

        batched = summarize_records(records(batched=True))
        per_byte = summarize_records(records(batched=False))
        assert batched.invalid_total == per_byte.invalid_total == 500
        assert batched.by_type == per_byte.by_type
        assert batched.invalid_by_site == per_byte.invalid_by_site
        assert batched.discarded_bytes == per_byte.discarded_bytes == 500
        assert batched.servers == per_byte.servers
        assert batched.policies == per_byte.policies
        # Only the raw record count shrinks — the point of batching.
        assert batched.total_events < per_byte.total_events


class TestSessionSpillMerge:
    ATTACK_SPECS = [
        ScenarioSpec(server="pine", policy="failure-oblivious",
                     workload="attack", scale=0.1),
        ScenarioSpec(server="apache", policy="failure-oblivious",
                     workload="attack", scale=0.1),
        ScenarioSpec(server="mutt", policy="bounds-check",
                     workload="attack", scale=0.1),
    ]

    def _export(self, tmp_path, name, workers):
        out = tmp_path / f"{name}.jsonl"
        with TelemetrySession(str(tmp_path / f"spill-{name}")) as session:
            ENGINE.run_many(self.ATTACK_SPECS, workers=workers)
            written = session.merge(str(out))
        assert written > 0
        return out

    def test_fork_pool_merge_equals_serial_run(self, tmp_path):
        """Acceptance: a --workers > 1 export re-summarizes identically."""
        serial = self._export(tmp_path, "serial", workers=None)
        forked = self._export(tmp_path, "forked", workers=2)
        assert summarize_trace(str(serial)) == summarize_trace(str(forked))

    def test_merge_orders_events_by_scenario(self, tmp_path):
        out = self._export(tmp_path, "ordered", workers=2)
        scenario_ids = [record["scenario"] for record in iter_records(str(out))]
        assert scenario_ids == sorted(scenario_ids)
        assert set(scenario_ids) == {0, 1, 2}

    def test_merged_records_all_parse_back(self, tmp_path):
        out = self._export(tmp_path, "parse", workers=2)
        count = 0
        for record in iter_records(str(out)):
            event = from_record(record)
            assert to_record(event)["event"] == record["event"]
            count += 1
        assert count > 0

    def test_scenario_events_bracket_each_scenario(self, tmp_path):
        out = self._export(tmp_path, "bracket", workers=None)
        per_scenario = {}
        for record in iter_records(str(out)):
            per_scenario.setdefault(record["scenario"], []).append(record["event"])
        for scenario_id, tags in per_scenario.items():
            assert tags[0] == "scenario-start"
            assert tags[-1] == "scenario-end"

    def test_scope_stamps_server_and_policy(self, tmp_path):
        out = self._export(tmp_path, "scoped", workers=None)
        scoped = [r for r in iter_records(str(out)) if "scope" in r]
        assert scoped, "expected scoped (bus-emitted) records"
        servers = {r["scope"]["server"] for r in scoped}
        assert servers == {"pine", "apache", "mutt"}

    def test_cleanup_removes_spill_files(self, tmp_path):
        session = TelemetrySession(str(tmp_path / "spills"))
        with session:
            ENGINE.run(self.ATTACK_SPECS[0])
            session.merge(str(tmp_path / "out.jsonl"))
        assert session.spill_paths()
        session.cleanup()
        assert session.spill_paths() == []

    def test_request_traces_disambiguate_colliding_worker_ids(self, tmp_path):
        """Forked workers reuse request ids; the scenario stamp keeps traces apart."""
        from repro.telemetry import request_traces

        out = self._export(tmp_path, "collide", workers=2)
        traces = request_traces(iter_records(str(out)))
        for trace in traces:
            end = trace["end"]
            if end is None:
                continue
            # Every event grouped under a trace must come from its scenario.
            for record in trace["events"]:
                assert record["scenario"] == trace["scenario"]
            assert end["request_id"] == trace["request_id"]
        # Each scenario has its own startup trace; with id collisions across
        # workers these would have been merged into one.
        startups = [t for t in traces if t["end"] and t["end"]["kind"] == "__startup__"]
        assert len(startups) == len(self.ATTACK_SPECS)

    def test_nested_sessions_are_rejected(self, tmp_path):
        with TelemetrySession(str(tmp_path / "one")):
            try:
                with TelemetrySession(str(tmp_path / "two")):
                    pass
            except RuntimeError as exc:
                assert "already active" in str(exc)
            else:  # pragma: no cover - defensive
                raise AssertionError("expected RuntimeError")


class TestDamagedSpills:
    """A worker killed mid-write leaves a partial last line in its spill; the
    merge must skip it (warning once per file) and keep everything else."""

    def _spill(self, session, name, lines):
        path = str(Path(session.directory) / f"spill-{name}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(lines))
        return path

    @staticmethod
    def _line(scenario, request_id):
        record = to_record(RequestEnd(request_id=request_id, kind="get", outcome="served"))
        record["scenario"] = scenario
        return json.dumps(record) + "\n"

    def test_truncated_last_line_is_skipped_with_one_warning(self, tmp_path):
        session = TelemetrySession(str(tmp_path / "spills"))
        damaged = self._spill(session, "1", [
            self._line(1, 10), self._line(1, 11), '{"event": "request-e',
        ])
        self._spill(session, "2", [self._line(0, 20)])
        out = tmp_path / "merged.jsonl"
        with pytest.warns(UserWarning) as caught:
            written = session.merge(str(out))
        assert len(caught) == 1  # the clean spill does not warn
        message = str(caught[0].message)
        assert damaged in message and "skipped 1 " in message
        assert written == 3
        records = list(iter_records(str(out)))
        assert [(r["scenario"], r["request_id"]) for r in records] == \
            [(0, 20), (1, 10), (1, 11)]

    def test_damaged_lines_mid_file_keep_block_order(self, tmp_path):
        """Lines around a damaged one still merge in scenario order, and a
        complete record missing its newline stays a line of its own."""
        session = TelemetrySession(str(tmp_path / "spills"))
        self._spill(session, "1", [
            self._line(2, 1), "not json\n", "[1, 2]\n", self._line(2, 2),
            self._line(0, 3).rstrip("\n"),
        ])
        self._spill(session, "2", [self._line(1, 4)])
        out = tmp_path / "merged.jsonl"
        with pytest.warns(UserWarning, match="skipped 2 unparseable"):
            written = session.merge(str(out))
        assert written == 4
        records = list(iter_records(str(out)))
        assert [(r["scenario"], r["request_id"]) for r in records] == \
            [(0, 3), (1, 4), (2, 1), (2, 2)]


class TestStridedRunExport:
    def test_apache_capture_overflow_exports_one_strided_run(self, tmp_path, capsys):
        """The ten out-of-bounds capture offsets of a failure-oblivious
        Apache attack are one 4-byte-stride run record in the export, and
        the offline summary of the export equals the live counters."""
        out = tmp_path / "apache.jsonl"
        profile = ENGINE.profile("apache")
        with TelemetrySession(str(tmp_path / "spill")) as session:
            server = ENGINE.build_server("apache", "failure-oblivious", plant_attack=True)
            live = server.add_telemetry_sink(CounterSink())
            server.start()
            result = server.process(profile.make_attack_request())
            session.merge(str(out))
        assert result.outcome.value == "rejected-by-error-handling"
        runs = [record for record in iter_records(str(out))
                if record["event"] == "invalid-access"]
        assert [(run["stride"], run["count"], run["offset"], run["length"])
                for run in runs] == [(4, 10, 80, 4)]
        assert summarize_trace(str(out)).counters == live
        assert live.invalid_total == 10
        assert main(["trace", "summary", str(out)]) == 0
        assert "invalid" in capsys.readouterr().out

