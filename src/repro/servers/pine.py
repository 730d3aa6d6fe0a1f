"""Pine 4.44 and its From-field quoting heap overflow (paper §4.2).

When Pine builds the message index it copies each message's ``From`` field
into a heap-allocated display buffer, inserting a ``\\`` before every character
that needs quoting.  The routine that computes the buffer length fails to
account for the worst-case growth, so a ``From`` field containing many quoted
characters overflows the buffer.

Build behaviour reproduced here:

* Standard — the overflow corrupts the heap and Pine dies with a segmentation
  violation while loading the mail file, before the user can interact at all.
* Bounds Check — the first invalid store terminates Pine during
  initialization; the user cannot read any mail until the offending message is
  removed with some other tool.
* Failure Oblivious — the out-of-bounds stores are discarded (the displayed
  From field is truncated, invisibly, because the index only shows a prefix);
  selecting the message takes a different, correct code path, and the user can
  read, forward, and process all their mail (§4.2.2).
"""

from __future__ import annotations

from typing import Dict, List

from repro.servers.base import Request, Response, Server, ServerError

#: Characters Pine quotes in the From field when building the index display.
QUOTED_CHARS = frozenset(b'"\\()')

#: Number of quoted characters the buggy length estimate implicitly assumes.
#: The real bug is an incorrect worst-case formula; four slack bytes plays the
#: same role: ordinary From fields fit, heavily quoted ones overflow.
LENGTH_ESTIMATE_SLACK = 4

#: Width of the From column in the message index display.
INDEX_FROM_WIDTH = 20

#: Default mailbox used when the configuration does not supply one.
DEFAULT_MAILBOX: List[Dict[str, bytes]] = [
    {"from": b"alice@example.org", "subject": b"lunch", "body": b""},
    {"from": b'"Bob B." <bob@example.org>', "subject": b"report", "body": b"draft attached"},
    {"from": b"carol@example.org", "subject": b"hello", "body": b""},
]


class PineServer(Server):
    """The Pine mail user agent with the From-quoting bug.

    Request kinds
    -------------
    ``read``
        payload ``{"index": int}`` — display the selected message (the paper's
        *Read* request uses an empty message).
    ``compose``
        no payload — bring up the composition screen.
    ``move``
        payload ``{"index": int, "target": str}`` — move a message between
        folders (the paper's *Move* request moves an empty message).
    ``list``
        no payload — redisplay the message index (runs the vulnerable path
        again for every message).

    Configuration keys
    ------------------
    ``mailbox``
        List of message dicts (``from``/``subject``/``body`` bytes).  Putting a
        message whose From field has many quoted characters in here is the
        attack of §4.2.
    ``folders``
        Additional folder names (targets for ``move``).
    """

    name = "pine"

    # -- lifecycle -----------------------------------------------------------------

    def startup(self) -> None:
        """Load the mail file and build the message index (the vulnerable step)."""
        mailbox = self.config.get("mailbox", DEFAULT_MAILBOX)
        self.folders: Dict[str, List[Dict[str, bytes]]] = {
            "inbox": [dict(m) for m in mailbox],
        }
        for extra in self.config.get("folders", ["saved-messages"]):
            self.folders.setdefault(extra, [])
        self.index_lines: List[bytes] = []
        self._build_message_index()

    def handle(self, request: Request) -> Response:
        if request.kind == "read":
            return self._handle_read(request)
        if request.kind == "compose":
            return self._handle_compose(request)
        if request.kind == "move":
            return self._handle_move(request)
        if request.kind == "list":
            self._build_message_index()
            return Response.ok(body=b"\n".join(self.index_lines), detail="index rebuilt")
        raise ServerError(f"unknown pine request kind {request.kind!r}")

    # -- the vulnerable path: building the index display -----------------------------

    def _build_message_index(self) -> None:
        """Quote every From field into a display buffer (paper §4.2.1)."""
        self.index_lines = []
        for number, message in enumerate(self.folders["inbox"], start=1):
            display_from = self._quote_from_field(message["from"])
            line = b"%3d  %-*s  %s" % (
                number,
                INDEX_FROM_WIDTH,
                display_from[:INDEX_FROM_WIDTH],
                message["subject"],
            )
            self.index_lines.append(line)

    def _quote_from_field(self, from_field: bytes) -> bytes:
        """Copy the From field into an undersized heap buffer, quoting as it goes.

        The length estimate below is the bug: it assumes only a handful of
        characters will need quoting, whereas the safe worst case is
        ``2 * len(from_field) + 1``.
        """
        ctx = self.ctx
        ctx.set_site("pine.quote_from_field")
        source = ctx.alloc_c_string(from_field, name="from_field")
        estimated = len(from_field) + LENGTH_ESTIMATE_SLACK + 1
        display = ctx.malloc(estimated, name="from_display_buf")
        src = source
        dst = display
        while True:
            byte = ctx.mem.read_byte(src)
            if byte == 0:
                break
            if byte in QUOTED_CHARS:
                ctx.mem.write_byte(dst, ord("\\"))
                dst = dst + 1
            ctx.mem.write_byte(dst, byte)
            dst = dst + 1
            src = src + 1
        ctx.mem.write_byte(dst, 0)
        quoted = ctx.read_c_string(display)
        ctx.free(display)
        ctx.free(source)
        ctx.set_site("")
        return quoted

    def _quote_from_field_correct(self, from_field: bytes) -> bytes:
        """The correct translation used when a message is selected (§4.2.2)."""
        ctx = self.ctx
        ctx.set_site("pine.quote_from_field_correct")
        source = ctx.alloc_c_string(from_field, name="from_field")
        display = ctx.malloc(2 * len(from_field) + 1, name="from_display_full")
        src = source
        dst = display
        while True:
            byte = ctx.mem.read_byte(src)
            if byte == 0:
                break
            if byte in QUOTED_CHARS:
                ctx.mem.write_byte(dst, ord("\\"))
                dst = dst + 1
            ctx.mem.write_byte(dst, byte)
            dst = dst + 1
            src = src + 1
        ctx.mem.write_byte(dst, 0)
        quoted = ctx.read_c_string(display)
        ctx.free(display)
        ctx.free(source)
        ctx.set_site("")
        return quoted

    # -- benign request handlers (the Figure 2 workload) --------------------------------

    def _handle_read(self, request: Request) -> Response:
        index = int(request.payload.get("index", 0))
        inbox = self.folders["inbox"]
        if not 0 <= index < len(inbox):
            raise ServerError("no such message")
        message = inbox[index]
        # Selecting a message takes the correct translation path (§4.2.2).
        full_from = self._quote_from_field_correct(message["from"])
        body = message.get("body", b"")
        display = self._render_screen(
            [b"From: " + full_from, b"Subject: " + message["subject"], b"", body]
        )
        return Response.ok(body=display, detail="message displayed")

    def _handle_compose(self, request: Request) -> Response:
        template = [
            b"To      : ",
            b"Cc      : ",
            b"Attchmnt: ",
            b"Subject : ",
            b"----- Message Text -----",
            b"",
        ]
        display = self._render_screen(template)
        return Response.ok(body=display, detail="compose screen")

    def _handle_move(self, request: Request) -> Response:
        index = int(request.payload.get("index", 0))
        target = str(request.payload.get("target", "saved-messages"))
        inbox = self.folders["inbox"]
        if not 0 <= index < len(inbox):
            raise ServerError("no such message")
        if target not in self.folders:
            raise ServerError(f"no such folder {target!r}")
        message = inbox.pop(index)
        # Folder writes append the message through a small simulated buffer,
        # the analogue of writing it to the folder file.
        serialized = (
            b"From: " + message["from"] + b"\nSubject: " + message["subject"] + b"\n\n"
            + message.get("body", b"") + b"\n"
        )
        self._spool_bytes(serialized)
        self.folders[target].append(message)
        self._build_message_index()
        return Response.ok(detail=f"moved message {index} to {target}")

    # -- display helpers -------------------------------------------------------------

    def _render_screen(self, lines: List[bytes]) -> bytes:
        """Assemble a screen image byte by byte through simulated memory."""
        ctx = self.ctx
        ctx.set_site("pine.render_screen")
        text = b"\n".join(lines) + b"\n"
        buf = ctx.malloc(len(text) + 1, name="screen_buffer")
        ctx.mem.write_each(buf, text + b"\x00")
        rendered = ctx.read_c_string(buf)
        ctx.free(buf)
        ctx.set_site("")
        return rendered

    def _spool_bytes(self, data: bytes) -> None:
        """Write folder data through a fixed-size spool buffer in chunks."""
        ctx = self.ctx
        ctx.set_site("pine.spool")
        spool = ctx.malloc(256, name="spool_buffer")
        for start in range(0, len(data), 256):
            chunk = data[start : start + 256]
            ctx.mem.write(spool, chunk)
        ctx.free(spool)
        ctx.set_site("")


# ---------------------------------------------------------------------------
# Experiment profile (Figure 2 and §4.2.2)
# ---------------------------------------------------------------------------
# The workload builders are imported lazily inside these functions because the
# workload modules import server modules at import time (for the documented
# buffer-size constants); a module-level import here would be circular.

from repro.servers.profile import ServerProfile, register_profile  # noqa: E402


def _benchmark_config(scale: float) -> Dict[str, object]:
    from repro.workloads.benign import pine_benchmark_mailbox

    return {"mailbox": pine_benchmark_mailbox(max(int(64 * scale), 32))}


def _benign_request(kind: str, index: int) -> Request:
    from repro.workloads.benign import pine_requests

    return pine_requests(kind, 1)[0]


def _attack_config() -> Dict[str, object]:
    from repro.workloads.attacks import pine_poisoned_mailbox

    return {"mailbox": pine_poisoned_mailbox()}


def _attack_request() -> Request:
    # The error trigger lives in the poisoned mailbox planted at boot;
    # re-listing the index runs the vulnerable quoting path over it again.
    return Request(kind="list", payload={}, is_attack=True)


def _follow_ups() -> List[Request]:
    return [Request(kind="read", payload={"index": 0}), Request(kind="compose")]


PROFILE = register_profile(
    ServerProfile(
        name="pine",
        server_cls=PineServer,
        figure_rows=("read", "compose", "move"),
        figure_number=2,
        benchmark_config=_benchmark_config,
        request_factory=_benign_request,
        attack_config=_attack_config,
        attack_request=_attack_request,
        follow_ups=_follow_ups,
        description="Pine 4.44 From-field quoting heap overflow (§4.2)",
    )
)
