"""Tests for the benign workload and attack payload generators."""

import pytest

from repro.harness.engine import ENGINE
from repro.servers import SERVER_CLASSES
from repro.servers.base import Request
from repro.servers.profile import get_profile
from repro.workloads.attacks import (
    attack_request_for,
    midnight_commander_attack_archive,
    mutt_attack_folder_name,
    pine_attack_message,
    sendmail_attack_address,
)
from repro.workloads.benign import (
    FIGURE_ROWS,
    benign_requests_for,
    midnight_commander_vfs_files,
    mutt_benchmark_folders,
    pine_benchmark_mailbox,
)


class TestBenignGenerators:
    @pytest.mark.parametrize("server_name", sorted(SERVER_CLASSES))
    def test_every_server_has_figure_rows(self, server_name):
        assert FIGURE_ROWS[server_name], server_name

    @pytest.mark.parametrize("server_name", sorted(SERVER_CLASSES))
    def test_generators_produce_requested_count(self, server_name):
        for kind in FIGURE_ROWS[server_name]:
            requests = benign_requests_for(server_name, kind, 3)
            assert len(requests) == 3
            assert all(isinstance(request, Request) for request in requests)
            assert not any(request.is_attack for request in requests)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            benign_requests_for("pine", "frobnicate")

    def test_unknown_server_rejected(self):
        with pytest.raises(KeyError):
            benign_requests_for("nginx", "small")

    def test_figure_rows_match_paper(self):
        assert FIGURE_ROWS["pine"] == ["read", "compose", "move"]
        assert FIGURE_ROWS["apache"] == ["small", "large"]
        assert FIGURE_ROWS["sendmail"] == ["recv_small", "recv_large", "send_small", "send_large"]
        assert FIGURE_ROWS["midnight-commander"] == ["copy", "move", "mkdir", "delete"]
        assert FIGURE_ROWS["mutt"] == ["read", "move"]

    def test_sendmail_body_sizes_match_paper(self):
        small = benign_requests_for("sendmail", "recv_small", 1)[0]
        large = benign_requests_for("sendmail", "recv_large", 1)[0]
        assert len(small.payload["body"]) == 4
        assert len(large.payload["body"]) == 4096

    def test_mc_move_requests_alternate_direction(self):
        requests = benign_requests_for("midnight-commander", "move", 2)
        assert requests[0].payload["source"] != requests[1].payload["source"]

    def test_mc_vfs_files_sizes(self):
        files = midnight_commander_vfs_files(directory_bytes=1024, file_count=4,
                                             delete_file_bytes=256)
        data_files = [p for p in files if "/data/" in p]
        assert len(data_files) == 4
        assert len(files["/home/user/big-download.iso"]) == 256

    def test_benchmark_mailboxes_sized_for_repetitions(self):
        assert len(pine_benchmark_mailbox(40)) == 40
        assert len(mutt_benchmark_folders(40)[b"INBOX"]) == 40


class TestAttackGenerators:
    @pytest.mark.parametrize("server_name", sorted(SERVER_CLASSES))
    def test_attack_request_defined_for_every_server(self, server_name):
        request = attack_request_for(server_name)
        assert request.is_attack

    @pytest.mark.parametrize("server_name", sorted(SERVER_CLASSES))
    def test_attack_config_defined_for_every_server(self, server_name):
        attack_config = get_profile(server_name).make_attack_config()
        assert isinstance(attack_config, dict)
        server = ENGINE.build_server(server_name, "standard", plant_attack=True)
        assert attack_config.items() <= server.config.items()

    def test_unknown_server_attack_rejected(self):
        with pytest.raises(KeyError):
            attack_request_for("nginx")
        with pytest.raises(KeyError):
            get_profile("nginx")

    def test_pine_attack_from_field_has_quoted_characters(self):
        message = pine_attack_message(quoted_characters=10)
        assert message["from"].count(b'"') == 10

    def test_sendmail_attack_alternates_ff_and_backslash(self):
        address = sendmail_attack_address(pairs=3)
        assert address[:6] == b"\xff\\\xff\\\xff\\"

    def test_mutt_attack_name_is_control_characters(self):
        name = mutt_attack_folder_name(10)
        assert len(name) == 10 and set(name) == {1}

    def test_mc_attack_archive_has_absolute_symlinks(self):
        entries = midnight_commander_attack_archive(links=4)
        symlinks = [entry for entry in entries if entry.is_symlink]
        assert len(symlinks) == 4
        assert all(entry.target.startswith("/") for entry in symlinks)

    def test_apache_attack_url_matches_vulnerable_rule(self):
        import re

        from repro.servers.apache import VULNERABLE_RULE

        request = attack_request_for("apache")
        assert re.match(VULNERABLE_RULE.pattern, request.payload["url"])
