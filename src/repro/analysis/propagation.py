"""Error propagation distance measurement (paper §1.2).

The paper explains the success of failure-oblivious computing by the short
error propagation distances of servers:

    "an error in the computation for one request tends to have little or no
    effect on the computation for subsequent requests"

and distinguishes *data* propagation (corrupted state affecting later results)
from *control-flow* propagation (failing to return to the read-next-request
loop).  This module measures both for our simulated servers:

* **control-flow distance** — after a request that attempted memory errors,
  how many subsequent requests elapse before the server is again processing
  requests normally (0 if the very next request is handled; infinite if the
  server died).
* **data distance** — after such a request, how many subsequent legitimate
  requests produce responses that differ from a reference run of the same
  legitimate requests on a server that never saw the attack.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.harness.engine import ENGINE
from repro.servers.base import Request
from repro.telemetry.events import InvalidAccess
from repro.telemetry.sinks import Sink


class TraceRecorder(Sink):
    """Correlate invalid accesses with request traces from the event stream.

    Replaces the pre-telemetry bookkeeping that re-derived request/error
    correlation from each :class:`~repro.errors.RequestResult`: the recorder
    simply watches the server's bus and indexes
    :class:`~repro.telemetry.events.InvalidAccess` events by the request
    (trace) id stamped on them.  A run record counts as the ``count``
    events it stands for, so the tallies do not depend on whether a flood
    was published as singles or as runs.
    """

    def __init__(self) -> None:
        self.invalid_by_request: Counter = Counter()

    def emit(self, event: object) -> None:
        if isinstance(event, InvalidAccess) and event.error.request_id is not None:
            self.invalid_by_request[event.error.request_id] += event.count

    def had_errors(self, request_id: int) -> bool:
        """True if the trace for ``request_id`` attempted any memory error."""
        return self.invalid_by_request[request_id] > 0


@dataclass
class PropagationReport:
    """Propagation distances observed for one server under one policy."""

    server: str
    policy: str
    error_requests: int
    control_distances: List[float] = field(default_factory=list)
    data_distances: List[float] = field(default_factory=list)

    @property
    def max_control_distance(self) -> float:
        """Largest observed control-flow propagation distance."""
        return max(self.control_distances, default=0.0)

    @property
    def max_data_distance(self) -> float:
        """Largest observed data propagation distance."""
        return max(self.data_distances, default=0.0)

    @property
    def short_propagation(self) -> bool:
        """True if no error's effects reached beyond the request that triggered it."""
        return self.max_control_distance == 0.0 and self.max_data_distance == 0.0


def _response_signature(result) -> object:
    """A comparable digest of a request's user-visible result."""
    if result.response is None:
        return ("no-response", result.outcome.value)
    return (result.outcome.value, result.response.status, bytes(result.response.body))


def measure_propagation(
    server_name: str,
    policy_name: str,
    requests: Sequence[Request],
    scale: float = 0.25,
) -> PropagationReport:
    """Measure propagation distances over an interleaved attack/legitimate stream.

    The same legitimate subsequence is run on a *reference* server (same
    policy, same configuration, no attack requests); differences between the
    observed and reference responses after an error are the data propagation.
    """
    # Reference run: only the legitimate requests, on a pristine server.
    reference = ENGINE.build_server(server_name, policy_name, plant_attack=True, scale=scale)
    reference.start()
    reference_results: Dict[int, object] = {}
    legit_positions = [i for i, request in enumerate(requests) if not request.is_attack]
    for position in legit_positions:
        result = reference.process(_clone_request(requests[position]))
        reference_results[position] = _response_signature(result)

    # Observed run: the full stream, attacks included.  Error/request
    # correlation comes from the telemetry stream, not per-result bookkeeping:
    # the recorder indexes InvalidAccess events by their trace (request) id.
    observed = ENGINE.build_server(server_name, policy_name, plant_attack=True, scale=scale)
    recorder = observed.add_telemetry_sink(TraceRecorder())
    observed.start()
    observed_results: Dict[int, object] = {}
    trace_ids: Dict[int, int] = {}
    dead_from: Optional[int] = None
    for position, request in enumerate(requests):
        if not observed.alive:
            dead_from = position if dead_from is None else dead_from
            break
        clone = _clone_request(request)
        trace_ids[position] = clone.request_id
        result = observed.process(clone)
        if not request.is_attack:
            observed_results[position] = _response_signature(result)
    error_positions: List[int] = [
        position for position, trace_id in sorted(trace_ids.items())
        if recorder.had_errors(trace_id)
    ]

    report = PropagationReport(
        server=server_name,
        policy=policy_name,
        error_requests=len(error_positions),
    )
    for error_position in error_positions:
        report.control_distances.append(
            _control_distance(error_position, observed_results, dead_from, len(requests))
        )
        report.data_distances.append(
            _data_distance(error_position, observed_results, reference_results)
        )
    return report


def _clone_request(request: Request) -> Request:
    """Requests get fresh ids per run so error-log attribution stays unambiguous."""
    return Request(kind=request.kind, payload=dict(request.payload), is_attack=request.is_attack)


def _control_distance(
    error_position: int,
    observed: Dict[int, object],
    dead_from: Optional[int],
    total: int,
) -> float:
    """Requests after the error before normal processing resumes (inf if never)."""
    if dead_from is not None and dead_from > error_position:
        return math.inf
    later_positions = sorted(p for p in observed if p > error_position)
    if dead_from is not None:
        return math.inf
    if not later_positions:
        return 0.0
    # The server processed the next legitimate request; control flow returned
    # immediately, so the distance is 0.
    return 0.0


def _data_distance(
    error_position: int,
    observed: Dict[int, object],
    reference: Dict[int, object],
) -> float:
    """Number of subsequent legitimate requests whose results differ from the reference."""
    distance = 0
    for position in sorted(p for p in observed if p > error_position):
        if position not in reference:
            continue
        if observed[position] != reference[position]:
            distance += 1
        else:
            break
    return float(distance)
