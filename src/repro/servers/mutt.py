"""Mutt 1.4 and its ``utf8_to_utf7`` heap overflow (paper §2, §4.6, Figure 1).

When Mutt opens a mailbox with an IMAP address it converts the folder name
from UTF-8 to modified UTF-7.  The conversion buffer is allocated at
``u8len * 2 + 1`` bytes, but the conversion can expand the name by up to a
factor of 7/3, so a crafted folder name overflows the heap buffer.

The Python reimplementation below is a line-for-line port of the Figure 1
routine, with every load and store routed through the simulated memory
accessor; which of the three builds you get is decided purely by the policy
the server was constructed with:

* Standard — the overflow smashes the heap allocator's top-chunk header and
  the process dies on the next allocation (a segmentation-violation analogue).
* Bounds Check — the first out-of-bounds store terminates the process before
  the user interface appears.
* Failure Oblivious — the out-of-bounds stores are discarded, the truncated
  name is sent to the IMAP server, the server answers "no such folder", and
  Mutt's ordinary error handling rejects the request and keeps running.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.memory.pointer import FatPointer
from repro.servers.base import Request, Response, Server, ServerError

#: Modified UTF-7 base64 alphabet (RFC 3501 uses ',' instead of '/').
B64_CHARS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+,"

#: Default folders available on the simulated IMAP server.
DEFAULT_FOLDERS: Dict[bytes, List[Dict[str, bytes]]] = {
    b"INBOX": [
        {"from": b"alice@example.org", "subject": b"status", "body": b""},
        {"from": b"bob@example.org", "subject": b"meeting", "body": b"see agenda"},
    ],
    b"archive": [],
}


class ImapServerStub:
    """The remote IMAP server Mutt talks to.

    Only the behaviour the paper's scenario needs is modelled: SELECT of a
    folder by its UTF-7 encoded name, returning either the message list or a
    "no such folder" error code that Mutt's error handling consumes.
    """

    def __init__(self, folders: Dict[bytes, List[Dict[str, bytes]]]) -> None:
        # The IMAP server knows folders by their UTF-7 names.  All default
        # folder names are ASCII, so their UTF-7 form equals their UTF-8 form.
        self._folders = {name: list(messages) for name, messages in folders.items()}

    def select(self, utf7_name: bytes) -> Optional[List[Dict[str, bytes]]]:
        """Return the folder's messages, or None if the folder does not exist."""
        return self._folders.get(utf7_name)

    def append(self, utf7_name: bytes, message: Dict[str, bytes]) -> bool:
        """Append a message to a folder; False if the folder does not exist."""
        if utf7_name not in self._folders:
            return False
        self._folders[utf7_name].append(message)
        return True

    def remove(self, utf7_name: bytes, index: int) -> Optional[Dict[str, bytes]]:
        """Remove and return a message by index, or None on any error."""
        messages = self._folders.get(utf7_name)
        if messages is None or not 0 <= index < len(messages):
            return None
        return messages.pop(index)


class MuttServer(Server):
    """The Mutt mail user agent with the Figure 1 conversion bug.

    Request kinds
    -------------
    ``open_folder``
        payload ``{"folder": bytes}`` — UTF-8 folder name to SELECT.  A name
        with many control characters triggers the overflow (§4.6.1).
    ``read``
        payload ``{"index": int}`` — display a message from the current folder.
    ``move``
        payload ``{"index": int, "target": bytes}`` — move a message to another
        folder (both names must be benign).

    Configuration keys
    ------------------
    ``folders``
        Mapping of folder name to message list for the IMAP stub.
    ``startup_folder``
        Folder opened while Mutt starts (the stability experiment configures
        an attack name here, which is why the Bounds Check build "terminates
        before the user interface comes up").
    """

    name = "mutt"

    # -- lifecycle -----------------------------------------------------------------

    def startup(self) -> None:
        folders = self.config.get("folders", DEFAULT_FOLDERS)
        self.imap = ImapServerStub(folders)
        self.current_folder_name: Optional[bytes] = None
        self.current_messages: List[Dict[str, bytes]] = []
        startup_folder = self.config.get("startup_folder", b"INBOX")
        self._open_folder(startup_folder)

    def handle(self, request: Request) -> Response:
        if request.kind == "open_folder":
            return self._handle_open(request)
        if request.kind == "read":
            return self._handle_read(request)
        if request.kind == "move":
            return self._handle_move(request)
        raise ServerError(f"unknown mutt request kind {request.kind!r}")

    # -- request handlers -------------------------------------------------------------

    def _handle_open(self, request: Request) -> Response:
        folder = request.payload["folder"]
        self._open_folder(folder)
        return Response.ok(detail=f"opened {folder!r} ({len(self.current_messages)} messages)")

    def _handle_read(self, request: Request) -> Response:
        index = int(request.payload.get("index", 0))
        if not self.current_messages or not 0 <= index < len(self.current_messages):
            raise ServerError("no such message")
        message = self.current_messages[index]
        display = self._format_message(message)
        return Response.ok(body=display, detail="message displayed")

    def _handle_move(self, request: Request) -> Response:
        index = int(request.payload.get("index", 0))
        target = request.payload["target"]
        if not self.current_messages or not 0 <= index < len(self.current_messages):
            raise ServerError("no such message")
        target_utf7 = self._convert_folder_name(target)
        if self.imap.select(target_utf7) is None:
            raise ServerError("target folder does not exist")
        message = self.current_messages.pop(index)
        self.imap.remove(self._current_utf7, index)
        self.imap.append(target_utf7, message)
        return Response.ok(detail=f"moved message {index} to {target!r}")

    # -- folder opening (the vulnerable path) -------------------------------------------

    def _open_folder(self, utf8_name: bytes) -> None:
        """SELECT a folder: convert its name to UTF-7 and ask the IMAP server."""
        utf7_name = self._convert_folder_name(utf8_name)
        messages = self.imap.select(utf7_name)
        if messages is None:
            # The anticipated error case: the IMAP server's error code is
            # handled by Mutt's standard error-handling logic (§4.6.2).
            raise ServerError(f"IMAP server: no such folder {utf7_name[:40]!r}")
        self.current_folder_name = utf8_name
        self._current_utf7 = utf7_name
        self.current_messages = list(messages)

    def _convert_folder_name(self, utf8_name: bytes) -> bytes:
        """Run the Figure 1 conversion over simulated memory and read the result back."""
        ctx = self.ctx
        ctx.set_site("mutt.utf8_to_utf7")
        u8 = ctx.alloc_c_string(utf8_name, name="imap_folder_utf8")
        result = utf8_to_utf7(ctx, u8, len(utf8_name))
        ctx.set_site("")
        if result is None or result.is_null:
            raise ServerError("invalid UTF-8 in folder name")
        utf7 = ctx.read_c_string(result)
        ctx.free(result)
        ctx.free(u8)
        return utf7

    # -- display formatting (benign memory work measured by Figure 6) --------------------

    def _format_message(self, message: Dict[str, bytes]) -> bytes:
        """Build the pager display for one message through simulated memory."""
        ctx = self.ctx
        ctx.set_site("mutt.format_message")
        header = b"From: " + message["from"] + b"\nSubject: " + message["subject"] + b"\n\n"
        text = header + message.get("body", b"") + b"\n"
        buf = ctx.malloc(len(text) + 1, name="pager_buffer")
        ctx.mem.write_each(buf, text + b"\x00")
        display = ctx.read_c_string(buf)
        ctx.free(buf)
        ctx.set_site("")
        return display


def utf8_to_utf7(ctx, u8: FatPointer, u8len: int) -> Optional[FatPointer]:
    """Figure 1 of the paper: convert UTF-8 to modified UTF-7.

    The allocation below reproduces the bug verbatim: ``u8len * 2 + 1`` is not
    enough for inputs whose conversion expands by more than a factor of two.
    Every ``*p++ = ...`` store goes through the policy-mediated accessor, so
    the consequences of the overflow depend entirely on the build variant.

    Returns a pointer to the converted, heap-allocated name, or ``None`` for
    the ``goto bail`` paths (invalid UTF-8).
    """
    mem = ctx.mem
    # The following allocation is too small; a safe length would be u8len*4+1.
    buf = ctx.malloc(u8len * 2 + 1, name="utf7_buf")
    p = buf
    b = 0
    k = 0
    base64 = False

    def bail() -> None:
        ctx.free(buf)

    while u8len:
        c = mem.read_byte(u8)
        if c < 0x80:
            ch, n = c, 0
        elif c < 0xC2:
            bail()
            return None
        elif c < 0xE0:
            ch, n = c & 0x1F, 1
        elif c < 0xF0:
            ch, n = c & 0x0F, 2
        elif c < 0xF8:
            ch, n = c & 0x07, 3
        elif c < 0xFC:
            ch, n = c & 0x03, 4
        elif c < 0xFE:
            ch, n = c & 0x01, 5
        else:
            bail()
            return None
        u8 = u8 + 1
        u8len -= 1
        if n > u8len:
            bail()
            return None
        for i in range(n):
            trail = mem.read_byte(u8 + i)
            if (trail & 0xC0) != 0x80:
                bail()
                return None
            ch = (ch << 6) | (trail & 0x3F)
        if n > 1 and not (ch >> (n * 5 + 1)):
            bail()
            return None
        u8 = u8 + n
        u8len -= n

        if ch < 0x20 or ch >= 0x7F:
            if not base64:
                mem.write_byte(p, ord("&"))
                p = p + 1
                base64 = True
                b = 0
                k = 10
            if ch & ~0xFFFF:
                ch = 0xFFFE
            mem.write_byte(p, B64_CHARS[b | (ch >> k)])
            p = p + 1
            k -= 6
            while k >= 0:
                mem.write_byte(p, B64_CHARS[(ch >> k) & 0x3F])
                p = p + 1
                k -= 6
            b = (ch << (-k)) & 0x3F
            k += 16
        else:
            if base64:
                if k > 10:
                    mem.write_byte(p, B64_CHARS[b])
                    p = p + 1
                mem.write_byte(p, ord("-"))
                p = p + 1
                base64 = False
            mem.write_byte(p, ch)
            p = p + 1
            if ch == ord("&"):
                mem.write_byte(p, ord("-"))
                p = p + 1

    if base64:
        if k > 10:
            mem.write_byte(p, B64_CHARS[b])
            p = p + 1
        mem.write_byte(p, ord("-"))
        p = p + 1
    mem.write_byte(p, 0)
    p = p + 1
    buf = ctx.realloc(buf, p - buf, name="utf7_buf")
    return buf


# ---------------------------------------------------------------------------
# Experiment profile (Figure 6 and §4.6.2)
# ---------------------------------------------------------------------------
# Workload builders are imported lazily to keep the servers -> workloads
# import graph acyclic (the workload modules import server modules).

from repro.servers.profile import ServerProfile, register_profile  # noqa: E402


def _benchmark_config(scale: float) -> Dict[str, object]:
    from repro.workloads.benign import mutt_benchmark_folders

    return {"folders": mutt_benchmark_folders(max(int(64 * scale), 32))}


def _benign_request(kind: str, index: int) -> Request:
    from repro.workloads.benign import mutt_requests

    return mutt_requests(kind, 1)[0]


def _attack_config() -> Dict[str, object]:
    from repro.workloads.attacks import mutt_attack_config

    return mutt_attack_config()


def _attack_request() -> Request:
    from repro.workloads.attacks import mutt_attack_request

    return mutt_attack_request()


def _follow_ups() -> List[Request]:
    return [
        Request(kind="open_folder", payload={"folder": b"INBOX"}),
        Request(kind="read", payload={"index": 0}),
    ]


PROFILE = register_profile(
    ServerProfile(
        name="mutt",
        server_cls=MuttServer,
        figure_rows=("read", "move"),
        figure_number=6,
        benchmark_config=_benchmark_config,
        request_factory=_benign_request,
        attack_config=_attack_config,
        attack_request=_attack_request,
        follow_ups=_follow_ups,
        description="Mutt 1.4 utf8_to_utf7 heap overflow (§4.6, Figure 1)",
    )
)
