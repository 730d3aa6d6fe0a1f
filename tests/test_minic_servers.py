"""Tests for the in-VM server scenarios hosting compiled mini-C programs.

``minic-pine`` and ``minic-sendmail`` run the paper's vulnerable C functions
(:mod:`repro.minic.programs`) through the mini-C front end and span-lowering
pass inside a live :class:`~repro.servers.base.Server`, registered through
the same plugin path as ``examples/custom_server_plugin.py``.  The tests pin
the paper's three-build contrast, the program's own §4.1 error handling
under failure-oblivious execution, checkpoint-restart fidelity of the
interpreter state, and the fleet-soak clone path.
"""

from __future__ import annotations

import pytest

from repro.errors import RequestOutcome
from repro.fleet.scheduler import InstanceSpec, run_fleet
from repro.servers.base import Request
from repro.servers.minic_host import (
    MiniCPineServer,
    MiniCSendmailServer,
    pine_attack_mailbox,
    sendmail_attack_sender,
)
from repro.servers.profile import get_profile
from tests.conftest import POLICY_CLASSES

SURVIVING = ("failure-oblivious", "boundless", "redirect")


def make_pine(policy_name, mailbox=None):
    config = {"mailbox": mailbox} if mailbox is not None else {}
    server = MiniCPineServer(POLICY_CLASSES[policy_name], config=config)
    return server, server.start()


def make_sendmail(policy_name):
    server = MiniCSendmailServer(POLICY_CLASSES[policy_name])
    return server, server.start()


def deliver(sender):
    return Request(kind="deliver", payload={"sender": sender, "body": b"hi"})


# ---------------------------------------------------------------------------
# Benign behaviour: the compiled programs serve requests under every build
# ---------------------------------------------------------------------------


class TestBenignBehaviour:
    def test_pine_serves_under_every_policy(self, any_policy_name):
        server, boot = make_pine(any_policy_name)
        assert boot.outcome is RequestOutcome.SERVED, any_policy_name
        listing = server.process(Request(kind="list"))
        assert listing.outcome is RequestOutcome.SERVED
        assert b"carol@example.net" in listing.response.body
        assert b"Alice Adams  lunch" in listing.response.body
        read = server.process(Request(kind="read", payload={"index": 0}))
        assert read.outcome is RequestOutcome.SERVED
        assert read.response.body.startswith(b"From: ")
        lookup = server.process(Request(kind="lookup", payload={"mailbox": b"carol"}))
        assert lookup.outcome is RequestOutcome.SERVED

    def test_pine_index_lines_are_clipped_by_strncat(self):
        server, _ = make_pine(
            "failure-oblivious",
            mailbox=[{"personal": b"P" * 60, "mailbox": b"p", "host": b"h",
                      "subject": b"S" * 70, "body": b""}],
        )
        listing = server.process(Request(kind="list"))
        assert listing.outcome is RequestOutcome.SERVED
        # strncat clips from/subject into the fixed 80-byte line buffer.
        line = listing.response.body.split(b"\n")[1]
        assert b"P" * 24 in line and b"P" * 25 not in line
        assert b"S" * 40 in line and b"S" * 41 not in line

    def test_pine_unknown_lookup_is_an_ordinary_rejection(self, any_policy_name):
        server, _ = make_pine(any_policy_name)
        result = server.process(Request(kind="lookup", payload={"mailbox": b"zelda"}))
        assert result.outcome is RequestOutcome.REJECTED_BY_ERROR_HANDLING

    def test_sendmail_delivers_under_every_policy(self, any_policy_name):
        server, boot = make_sendmail(any_policy_name)
        assert boot.outcome is RequestOutcome.SERVED
        result = server.process(deliver(b"alice@example.org"))
        assert result.outcome is RequestOutcome.SERVED
        assert result.response.body.startswith(b"From: alice@example.org")
        stat = server.process(Request(kind="stat"))
        assert stat.outcome is RequestOutcome.SERVED
        assert b"delivered 1" in stat.response.body
        assert b"remote 1" in stat.response.body

    def test_sendmail_balanced_comments_survive_everywhere(self, any_policy_name):
        server, _ = make_sendmail(any_policy_name)
        result = server.process(deliver(b"alice(home desk)@example.org"))
        assert result.outcome is RequestOutcome.SERVED
        assert b"(home desk)" in result.response.body


# ---------------------------------------------------------------------------
# The attack: three builds, three behaviours (paper §2)
# ---------------------------------------------------------------------------


class TestPineAttack:
    """The est_size quoting overflow fires while booting the poisoned mailbox."""

    def test_standard_build_crashes(self):
        _, boot = make_pine("standard", mailbox=pine_attack_mailbox())
        assert boot.outcome is RequestOutcome.CRASHED

    def test_bounds_check_build_terminates(self):
        _, boot = make_pine("bounds-check", mailbox=pine_attack_mailbox())
        assert boot.outcome is RequestOutcome.TERMINATED_BY_CHECK

    @pytest.mark.parametrize("policy", SURVIVING)
    def test_surviving_builds_keep_serving(self, policy):
        server, boot = make_pine(policy, mailbox=pine_attack_mailbox())
        assert boot.outcome is RequestOutcome.SERVED, policy
        # The overflow happened and was attributed to the vulnerable site.
        assert server.ctx.error_log.count_by_site().get("minic_pine.addr_string", 0) > 0
        # Legitimate traffic continues: the paper's acceptability argument.
        read = server.process(Request(kind="read", payload={"index": 0}))
        assert read.outcome is RequestOutcome.SERVED
        lookup = server.process(Request(kind="lookup", payload={"mailbox": b"attacker"}))
        assert lookup.outcome is RequestOutcome.SERVED

    def test_failure_oblivious_overflow_is_write_only(self):
        server, _ = make_pine("failure-oblivious", mailbox=pine_attack_mailbox())
        assert server.ctx.error_log.count_writes() > 0
        server.ctx.heap.verify_heap()  # discarded writes left the heap intact


class TestSendmailAttack:
    """The crackaddr walk: the program's own length check rejects what the
    failure-oblivious build survives (§4.1's anticipated-error story)."""

    def test_bounds_check_build_terminates(self):
        server, _ = make_sendmail("bounds-check")
        result = server.process(deliver(sendmail_attack_sender()))
        assert result.outcome is RequestOutcome.TERMINATED_BY_CHECK

    @pytest.mark.parametrize("policy", SURVIVING)
    def test_surviving_builds_reject_via_program_logic(self, policy):
        server, _ = make_sendmail(policy)
        attack = server.process(deliver(sendmail_attack_sender()))
        # crackaddr survives the overflow, then format_header's post-parse
        # length check rejects the address: sendmail's own 552 response.
        assert attack.outcome is RequestOutcome.REJECTED_BY_ERROR_HANDLING, policy
        follow_up = server.process(deliver(b"bob@example.org"))
        assert follow_up.outcome is RequestOutcome.SERVED
        stat = server.process(Request(kind="stat"))
        assert b"rejected 1" in stat.response.body

    def test_standard_build_corruption_is_deferred(self):
        """Unchecked, the overflow silently corrupts neighbouring state: the
        attack request itself returns (the length check still fires), and the
        damage surfaces on a later request — the paper's worst case."""
        server, _ = make_sendmail("standard")
        first = server.process(deliver(sendmail_attack_sender()))
        second = server.process(deliver(b"bob@example.org"))
        outcomes = {first.outcome, second.outcome}
        assert RequestOutcome.SERVED not in outcomes or not server.alive
        assert any(
            outcome in (RequestOutcome.CRASHED, RequestOutcome.EXPLOITED,
                        RequestOutcome.HUNG)
            for outcome in outcomes
        )

    def test_error_log_attributes_the_overflow(self):
        server, _ = make_sendmail("failure-oblivious")
        server.process(deliver(sendmail_attack_sender()))
        assert server.ctx.error_log.count_by_site().get(
            "minic_sendmail.crackaddr", 0) > 0


# ---------------------------------------------------------------------------
# Checkpoint restarts: the frozen interpreter state re-binds on restore
# ---------------------------------------------------------------------------


class TestCheckpointRestart:
    def test_pine_restart_recovers_interpreter_state(self):
        server, _ = make_pine("failure-oblivious", mailbox=pine_attack_mailbox())
        server.process(Request(kind="list"))
        result = server.restart()
        assert result.outcome is RequestOutcome.SERVED
        # The restored instance's struct-pointer handles and globals resolve
        # against the restored object table: the linked-list walk still works.
        lookup = server.process(Request(kind="lookup", payload={"mailbox": b"alice"}))
        assert lookup.outcome is RequestOutcome.SERVED
        read = server.process(Request(kind="read", payload={"index": 0}))
        assert read.outcome is RequestOutcome.SERVED
        assert read.response.body.startswith(b"From: ")

    def test_sendmail_crash_restart_loop(self):
        server, _ = make_sendmail("standard")
        server.process(deliver(sendmail_attack_sender()))
        server.process(deliver(b"bob@example.org"))
        if not server.alive:
            restart = server.restart()
            assert restart.outcome is RequestOutcome.SERVED
        result = server.process(deliver(b"carol@example.net"))
        assert result.outcome is RequestOutcome.SERVED

    def test_servers_share_one_compiled_program(self):
        """Each source is compiled once: servers, clones and restarts under
        any build run the same Program object."""
        first, _ = make_pine("failure-oblivious")
        second, _ = make_pine("bounds-check")
        assert second.program is first.program
        clone = MiniCPineServer(POLICY_CLASSES["failure-oblivious"])
        clone.adopt_image(first.boot_image)
        first.restart()
        assert clone.program is first.program
        assert first.program is second.program
        sendmail, _ = make_sendmail("failure-oblivious")
        assert sendmail.program is not first.program

    def test_restarted_globals_point_at_restored_bytes(self):
        server, _ = make_pine("failure-oblivious")
        server.restart()
        # global_string reads through the thawed global slot.
        server.process(Request(kind="list"))
        assert server.global_string("line")


# ---------------------------------------------------------------------------
# Profile registration: the zero-harness-edit plugin path
# ---------------------------------------------------------------------------


class TestProfiles:
    @pytest.mark.parametrize("name", ["minic-pine", "minic-sendmail"])
    def test_registered_with_attack_scenario(self, name):
        profile = get_profile(name)
        assert profile.figure_rows
        attack = profile.attack_request()
        assert attack.is_attack
        assert profile.follow_ups()

    def test_benchmark_config_scales_the_mailbox(self):
        profile = get_profile("minic-pine")
        small = profile.benchmark_config(0.5)["mailbox"]
        large = profile.benchmark_config(4.0)["mailbox"]
        assert len(large) > len(small) >= 3


# ---------------------------------------------------------------------------
# Fleet soaks: pre-fork clones of the compiled programs
# ---------------------------------------------------------------------------


class TestFleetSoak:
    def test_minic_fleet_matches_the_paper_contrast(self):
        specs = [
            InstanceSpec("minic-pine", "failure-oblivious", count=2, attack_every=6),
            InstanceSpec("minic-pine", "bounds-check", count=1, attack_every=6),
            InstanceSpec("minic-sendmail", "failure-oblivious", count=2, attack_every=6),
        ]
        result = run_fleet(specs, total_requests=90, seed=11, workers=0)
        by_group = {}
        for tally in result.instances:
            by_group.setdefault((tally.server, tally.policy), []).append(tally)

        for tally in by_group[("minic-pine", "failure-oblivious")]:
            assert tally.availability == 1.0
            assert tally.attacks_survived == tally.attack_requests > 0
            assert tally.error_sites.get("minic_pine.addr_string", 0) > 0

        # The checked build dies booting the planted mailbox: boot-fatal,
        # every arrival dropped.
        assert result.boot_fatal["minic-pine/bounds-check"]
        for tally in by_group[("minic-pine", "bounds-check")]:
            assert tally.availability == 0.0
            assert tally.dropped == tally.requests

        for tally in by_group[("minic-sendmail", "failure-oblivious")]:
            assert tally.availability == 1.0
            assert tally.server_deaths == 0
            assert tally.error_sites.get("minic_sendmail.crackaddr", 0) > 0

    def test_standard_sendmail_dies_and_restarts_in_the_fleet(self):
        specs = [InstanceSpec("minic-sendmail", "standard", count=1, attack_every=8)]
        result = run_fleet(specs, total_requests=48, seed=7, workers=0)
        tally = result.instances[0]
        assert tally.server_deaths > 0
        assert tally.restarts >= tally.server_deaths
        assert tally.legitimate_served > 0
