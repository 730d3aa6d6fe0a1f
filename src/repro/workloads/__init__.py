"""Workload and attack generators for the five evaluated servers.

The paper's methodology (§4.1) needs two kinds of input per server:

* a *benign* workload both the Standard and Failure Oblivious builds execute
  successfully, used to measure request processing times (Figures 2-6); and
* an *attack* input that triggers the server's documented memory error, used
  for the security/resilience and stability experiments.

:mod:`repro.workloads.benign` provides the former, :mod:`repro.workloads.attacks`
the latter, and :mod:`repro.workloads.streams` composes them into the mixed,
long-running request streams used by the stability and throughput experiments.
"""

from repro.workloads.attacks import (
    apache_attack_request,
    apache_vulnerable_config,
    midnight_commander_attack_request,
    midnight_commander_blank_line_config,
    mutt_attack_folder_name,
    mutt_attack_request,
    pine_attack_message,
    pine_poisoned_mailbox,
    sendmail_attack_address,
    sendmail_attack_request,
    attack_request_for,
)
from repro.workloads.benign import (
    apache_requests,
    midnight_commander_requests,
    mutt_requests,
    pine_requests,
    sendmail_requests,
    benign_requests_for,
)
from repro.workloads.streams import RequestStream, mixed_stream, throughput_stream

__all__ = [
    "apache_attack_request",
    "apache_vulnerable_config",
    "midnight_commander_attack_request",
    "midnight_commander_blank_line_config",
    "mutt_attack_folder_name",
    "mutt_attack_request",
    "pine_attack_message",
    "pine_poisoned_mailbox",
    "sendmail_attack_address",
    "sendmail_attack_request",
    "attack_request_for",
    "apache_requests",
    "midnight_commander_requests",
    "mutt_requests",
    "pine_requests",
    "sendmail_requests",
    "benign_requests_for",
    "RequestStream",
    "mixed_stream",
    "throughput_stream",
]
