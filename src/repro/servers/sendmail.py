"""Sendmail 8.11.6 and its prescan address-parsing stack overflow (paper §4.4).

The ``prescan`` procedure copies a mail address into a fixed-size
stack-allocated buffer one character at a time, treating ``\\`` specially and
using a lookahead character.  Through a sign-extension quirk, an address that
alternates the byte 0xFF (which becomes the integer -1) with ``\\`` characters
makes prescan skip the bounds check and write arbitrarily many ``\\``
characters beyond the end of the buffer.

Build behaviour reproduced here:

* Standard — the out-of-bounds writes corrupt the call stack; the process dies
  (the real error is known to be exploitable for code injection).
* Bounds Check — unusable: the daemon commits a *benign* memory error every
  time it wakes up to check for work (§4.4.4), so this build terminates during
  initialization before it can process anything.
* Failure Oblivious — the out-of-bounds writes are discarded, prescan returns,
  the following "address too long" check fails, Sendmail's standard error
  logic rejects the address (550), and the daemon continues with the next
  command.
"""

from __future__ import annotations

from typing import Dict, List

from repro.servers.base import Request, Response, Server, ServerError

#: Size of prescan's stack buffer.  The real MAXNAME is larger; what matters
#: for the reproduction is that legitimate addresses fit and the crafted
#: ``\\``/0xFF sequence does not.
PRESCAN_BUFFER_SIZE = 64

#: Size of the line buffer used when spooling message bodies.
SPOOL_CHUNK = 128


class SendmailServer(Server):
    """The Sendmail mail transfer agent with the prescan bug.

    Request kinds
    -------------
    ``receive``
        payload ``{"sender": bytes, "recipient": bytes, "body": bytes}`` — a
        remote agent delivers a message to a local user (the paper's *Receive*
        requests).
    ``send``
        payload ``{"sender": bytes, "recipient": bytes, "body": bytes}`` — a
        local user submits a message for onward delivery (*Send* requests).
    ``wakeup``
        no payload — the daemon wakes up to check for queued work; this is the
        operation that commits a benign memory error on every execution.

    Configuration keys
    ------------------
    ``local_users``
        Recipient local parts accepted for delivery.
    ``wakeup_before_requests``
        If True (default), every receive/send is preceded by a daemon wake-up,
        reproducing the steady stream of benign errors seen in §4.4.4.
    """

    name = "sendmail"

    # -- lifecycle -----------------------------------------------------------------

    def startup(self) -> None:
        self.local_users = set(self.config.get("local_users", [b"root", b"postmaster", b"user"]))
        self.wakeup_before_requests = bool(self.config.get("wakeup_before_requests", True))
        self.delivered: List[Dict[str, bytes]] = []
        self.queued: List[Dict[str, bytes]] = []
        self.rejected = 0
        # The daemon performs an initial queue check as it starts; this is the
        # benign error that disables the Bounds Check build (§4.4.4).
        self._daemon_wakeup()

    def handle(self, request: Request) -> Response:
        if request.kind == "wakeup":
            self._daemon_wakeup()
            return Response.ok(detail="queue checked")
        if request.kind == "receive":
            return self._handle_transfer(request, direction="receive")
        if request.kind == "send":
            return self._handle_transfer(request, direction="send")
        raise ServerError(f"unknown sendmail request kind {request.kind!r}")

    # -- the benign wake-up error (§4.4.4) ----------------------------------------------

    def _daemon_wakeup(self) -> None:
        """Check the work queue, committing a one-byte out-of-bounds read.

        The queue-directory scan keeps a small buffer of flag characters and
        reads one element past its end when the queue is empty — a harmless
        error under the Standard build, a fatal one under Bounds Check, and a
        logged-and-ignored one under Failure Oblivious.
        """
        ctx = self.ctx
        ctx.set_site("sendmail.daemon_wakeup")
        flags = ctx.malloc(4, name="queue_flags")
        for i in range(4):
            ctx.mem.write_byte(flags + i, ord("."))
        # Off-by-one scan: <= instead of < walks one byte past the buffer.
        seen = []
        for i in range(4 + 1):
            seen.append(ctx.mem.read_byte(flags + i))
        ctx.free(flags)
        ctx.set_site("")

    # -- message transfer ------------------------------------------------------------

    def _handle_transfer(self, request: Request, direction: str) -> Response:
        if self.wakeup_before_requests:
            self._daemon_wakeup()
        sender = request.payload.get("sender", b"")
        recipient = request.payload.get("recipient", b"")
        body = request.payload.get("body", b"")
        parsed_sender = self._parse_address(sender)
        parsed_recipient = self._parse_address(recipient)
        if direction == "receive":
            local_part = parsed_recipient.split(b"@", 1)[0]
            if local_part not in self.local_users:
                raise ServerError(f"550 unknown user {local_part!r}")
            spooled = self._spool_body(body)
            self.delivered.append(
                {"from": parsed_sender, "to": parsed_recipient, "body": spooled}
            )
            return Response.ok(detail=f"delivered to {local_part.decode()!r}")
        spooled = self._spool_body(body)
        self.queued.append({"from": parsed_sender, "to": parsed_recipient, "body": spooled})
        return Response.ok(detail="queued for relay")

    def _parse_address(self, address: bytes) -> bytes:
        """Parse an address via prescan, then apply the length check (§4.4.2)."""
        parsed, attempted_length = self._prescan(address)
        if attempted_length >= PRESCAN_BUFFER_SIZE:
            # The anticipated error case the failure-oblivious build lands in:
            # Sendmail's standard error processing rejects the address.
            self.rejected += 1
            raise ServerError("553 address too long")
        if not parsed:
            self.rejected += 1
            raise ServerError("553 malformed address")
        return parsed

    def _prescan(self, address: bytes) -> tuple:
        """The vulnerable copy loop: returns (parsed address, attempted length).

        The loop mirrors the structure described in §4.4.1: a lookahead
        character, special treatment of ``\\``, and a path that skips both the
        store of the lookahead character *and* its bounds check, later storing
        a ``\\`` without any check.
        """
        ctx = self.ctx
        mem = ctx.mem
        ctx.set_site("sendmail.prescan")
        source = ctx.alloc_c_string(address, name="addr_input")
        with ctx.stack_frame("prescan"):
            buf = ctx.stack_buffer("pvpbuf", PRESCAN_BUFFER_SIZE)
            ctx.seal_frame()
            write_offset = 0
            attempted_length = 0
            read_index = 0
            length = len(address)
            backslash_run = 0
            while read_index < length:
                raw = mem.read_byte(source + read_index)
                read_index += 1
                attempted_length += 1
                # Sign extension of a char assigned to an int: 0xFF becomes -1,
                # the "no lookahead character" sentinel.
                lookahead = raw - 256 if raw >= 0x80 else raw
                if lookahead == ord("\\"):
                    backslash_run += 1
                else:
                    backslash_run = 0
                skips_check = lookahead == -1 or (
                    lookahead == ord("\\") and backslash_run % 2 == 1
                )
                if skips_check:
                    # The buggy path: the block that stores the lookahead
                    # character (and checks the buffer bound) is skipped, and a
                    # ``\\`` is stored without any check.
                    mem.write_byte(buf + write_offset, ord("\\"))
                    write_offset += 1
                    continue
                if write_offset >= PRESCAN_BUFFER_SIZE - 1:
                    # The legitimate bounds check on the normal path refuses
                    # the store but keeps scanning the rest of the address.
                    continue
                mem.write_byte(buf + write_offset, raw)
                write_offset += 1
            terminator_offset = min(write_offset, PRESCAN_BUFFER_SIZE - 1)
            mem.write_byte(buf + terminator_offset, 0)
            parsed = bytes(
                mem.read(buf, terminator_offset)
            ) if terminator_offset > 0 else b""
        ctx.free(source)
        ctx.set_site("")
        return parsed, max(attempted_length, write_offset)

    def _spool_body(self, body: bytes) -> bytes:
        """Copy the message body through a fixed spool buffer, line style.

        This is the per-byte work that dominates the request processing time
        of Figure 4's large rows.  Each byte costs a pointer step and an
        accessor call under every build; the checked builds add the bounds
        check on top, which is why the measured slowdowns in
        ``benchmarks/results.txt`` are only 1.14-1.27x.  A modeled column from
        per-request counters is ROADMAP item 1.
        """
        ctx = self.ctx
        mem = ctx.mem
        ctx.set_site("sendmail.spool_body")
        chunk_buf = ctx.malloc(SPOOL_CHUNK, name="spool_chunk")
        out = bytearray()
        for start in range(0, len(body), SPOOL_CHUNK - 1):
            chunk = body[start : start + SPOOL_CHUNK - 1]
            cursor = chunk_buf
            for byte in chunk:
                mem.write_byte(cursor, byte)
                cursor = cursor + 1
            mem.write_byte(cursor, 0)
            out += ctx.read_c_string(chunk_buf)
        ctx.free(chunk_buf)
        ctx.set_site("")
        return bytes(out)


# ---------------------------------------------------------------------------
# Experiment profile (Figure 4 and §4.4.2)
# ---------------------------------------------------------------------------
# Workload builders are imported lazily: the workload modules import this
# module at import time (for the prescan buffer constant).

from repro.servers.profile import ServerProfile, register_profile  # noqa: E402


def _benign_request(kind: str, index: int) -> Request:
    from repro.workloads.benign import sendmail_requests

    return sendmail_requests(kind, 1)[0]


def _attack_request() -> Request:
    from repro.workloads.attacks import sendmail_attack_request

    return sendmail_attack_request()


def _follow_ups() -> List[Request]:
    from repro.workloads.benign import sendmail_requests

    return sendmail_requests("recv_small", 1)


PROFILE = register_profile(
    ServerProfile(
        name="sendmail",
        server_cls=SendmailServer,
        figure_rows=("recv_small", "recv_large", "send_small", "send_large"),
        figure_number=4,
        request_factory=_benign_request,
        # The attack arrives entirely in the request; no configuration change
        # is needed to plant the trigger.
        attack_request=_attack_request,
        follow_ups=_follow_ups,
        description="Sendmail 8.11.6 prescan address-parsing stack overflow (§4.4)",
    )
)
