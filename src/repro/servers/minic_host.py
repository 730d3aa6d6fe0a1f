"""In-VM server scenarios: the paper's vulnerable C functions, hosted live.

The five reimplemented servers translate the paper's overflow sites into
Python calls against the memory substrate.  This module closes the remaining
gap to the paper's methodology: the vulnerable functions are *compiled* —
the mini-C sources in :mod:`repro.minic.programs` are parsed, idiom-lowered
onto the span fast path, and interpreted inside the simulated address space —
and a thin :class:`MiniCServer` host turns each compiled program into a
request-serving process that plugs into every experiment shape through the
standard :class:`~repro.servers.profile.ServerProfile` registry (the same
zero-harness-edit path as ``examples/custom_server_plugin.py``).

Two scenarios are registered:

* ``minic-pine`` — Pine's ``est_size`` From-quoting overflow (§4.2) over a
  ``struct address`` linked list.
* ``minic-sendmail`` — the Sendmail ``crackaddr``-style comment-balancing
  buffer walk, rejected post-parse by the program's own length check under
  failure-oblivious execution.

Checkpoint restarts and pre-fork fleet clones work for these servers too:
the interpreter's Python-side state (global variable slots, the struct
pointer-handle registry, interned string literals, captured output) is
frozen into the process image as pure data — pointers become
``(base, offset)`` pairs — and re-bound to the restored object table on
restore, so a clone or a post-crash restart resumes with every mini-C
global pointing at the restored memory bytes.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

from repro.memory.pointer import FatPointer
from repro.minic.interpreter import (
    FunctionRef,
    MiniCRuntimeError,
    NULL_POINTER,
    Program,
    ProgramInstance,
    TypedPointer,
    VarSlot,
)
from repro.minic.lower import compile_program
from repro.minic.programs import PINE_EST_SIZE_SOURCE, SENDMAIL_CRACKADDR_SOURCE
from repro.servers.base import Request, Response, Server, ServerError
from repro.servers.profile import ServerProfile, register_profile


# ---------------------------------------------------------------------------
# Freezing interpreter state into process images
# ---------------------------------------------------------------------------

def _freeze_value(value: object) -> tuple:
    """Encode one interpreter value as pure (picklable, ctx-free) data."""
    if isinstance(value, FunctionRef):
        return ("fn", value.name)
    if isinstance(value, TypedPointer):
        if value.is_null:
            return ("null",)
        pointer = value.pointer
        return ("ptr", pointer.referent.base, pointer.offset,
                value.elem_size, value.ctype)
    return ("int", int(value))


_compile_once = functools.cache(compile_program)


class MiniCServer(Server):
    """A server whose request handlers are functions of a mini-C program.

    Subclasses set :attr:`source` and implement :meth:`boot` — the program
    initialization calls — plus the request handlers, which call into the
    program with :meth:`call`.  Every memory access the program performs is
    mediated by the server's bound policy, so the same source behaves like
    the Standard, Bounds Check, or Failure Oblivious build of the paper.
    """

    name = "minic"

    #: The mini-C translation unit this server runs; subclasses override.
    source: str = ""

    #: The compiled program and its live instance are bound to ``self.ctx``
    #: and are re-derived on restore, so they stay out of the deep-copied
    #: process image alongside the context itself.
    _IMAGE_EXCLUDED_FIELDS = Server._IMAGE_EXCLUDED_FIELDS | {
        "program", "instance",
    }

    #: Key under which the frozen interpreter state rides in the image.
    _MINIC_STATE_KEY = "__minic_interpreter_state__"

    # -- lifecycle ---------------------------------------------------------------

    def compile(self) -> Program:
        """The span-lowered :class:`Program` for :attr:`source`.

        A ``Program`` is immutable and instantiates against any build, so
        each source is compiled once per process and shared by every server
        (and every clone and restart) that runs it.
        """
        return _compile_once(self.source)

    def startup(self) -> None:
        self.program = self.compile()
        self.instance = self.program.instantiate(ctx=self.ctx)
        self.boot()

    def boot(self) -> None:
        """Subclass hook: run the program's initialization calls."""

    # -- calling into the program ---------------------------------------------------

    def call(self, function: str, *args):
        """Call a program function, mapping VM errors to anticipated rejections.

        A :class:`~repro.minic.interpreter.MiniCRuntimeError` is the program
        hitting a condition its own logic treats as fatal-but-handled (a null
        struct pointer decoded from a corrupted handle, ``abort()``); the
        server converts it into its ordinary error response.  Memory faults
        (segmentation violations, bounds-check terminations, loop-guard
        hangs) propagate to the lifecycle classifier unchanged.
        """
        try:
            return self.instance.call(function, *args)
        except MiniCRuntimeError as exc:
            raise ServerError(f"{self.name}: {exc}") from exc

    def global_string(self, name: str) -> bytes:
        """Read the NUL-terminated string a program global points at."""
        slot = self.instance.globals.get(name)
        if slot is None or not isinstance(slot.value, TypedPointer):
            raise ServerError(f"{self.name}: global {name!r} is not a string")
        return self.instance.read_string(slot.value)

    # -- checkpoint / restore ---------------------------------------------------------

    def _capture_state(self) -> Dict[str, object]:
        state = super()._capture_state()
        state[self._MINIC_STATE_KEY] = self._freeze_instance()
        return state

    def _freeze_instance(self) -> Optional[Dict[str, object]]:
        instance = self.__dict__.get("instance")
        if instance is None:
            return None
        return {
            "globals": {
                name: (_freeze_value(slot.value), slot.type)
                for name, slot in instance.globals.items()
            },
            "handles": {
                handle: _freeze_value(value)
                for handle, value in instance._handles.items()
            },
            "next_handle": instance._next_handle,
            "strings": {
                data: _freeze_value(pointer)
                for data, pointer in instance._string_cache.items()
            },
            "output": bytes(instance.output),
        }

    def restore_handler_state(self, state: Dict[str, object]) -> None:
        # Both restore paths (an image restore and a supervisor rollback)
        # come through here once the memory context is back, so the thawed
        # pointers bind to the restored object table's units.
        super().restore_handler_state(state)
        snapshot = self.__dict__.pop(self._MINIC_STATE_KEY, None)
        if snapshot is None:
            # The checkpointed boot died before the program was instantiated;
            # drop any instance left over from a previous life.
            self.__dict__.pop("instance", None)
            return
        if "program" not in self.__dict__:
            self.program = self.compile()
        # Re-binding the saved pointers is no program access, so the table
        # lookups it makes are not charged.
        lookups = self.ctx.table.lookups
        self.instance = self._thaw_instance(snapshot)
        self.ctx.table.lookups = lookups

    def _thaw_value(self, frozen: tuple):
        tag = frozen[0]
        if tag == "int":
            return frozen[1]
        if tag == "fn":
            return FunctionRef(frozen[1])
        if tag == "null":
            return NULL_POINTER
        _, base, offset, elem_size, ctype = frozen
        unit = self.ctx.table.find(base)
        if unit is None or unit.base != base:
            unit = self.ctx.table.find_retired(base)
        if unit is None or unit.base != base:
            # The unit does not exist in the restored image (it died before
            # the checkpoint and fell off the retired window): degrade to
            # NULL, the same story as a corrupted pointer handle.
            return NULL_POINTER
        return TypedPointer(FatPointer(unit, offset), elem_size, ctype)

    def _thaw_instance(self, snapshot: Dict[str, object]) -> ProgramInstance:
        """Re-bind a frozen interpreter snapshot to the restored context.

        ``ProgramInstance.__init__`` is bypassed deliberately: running the
        global initializers would allocate fresh units in memory that the
        image restore has already populated.
        """
        instance = ProgramInstance.__new__(ProgramInstance)
        instance.unit = self.program.unit
        instance.ctx = self.ctx
        instance.globals = {
            name: VarSlot(value=self._thaw_value(frozen), type=ctype)
            for name, (frozen, ctype) in snapshot["globals"].items()
        }
        instance.output = bytearray(snapshot["output"])
        instance._string_cache = {
            data: self._thaw_value(frozen)
            for data, frozen in snapshot["strings"].items()
        }
        instance._handles = {
            handle: self._thaw_value(frozen)
            for handle, frozen in snapshot["handles"].items()
        }
        instance._handle_ids = {
            value: handle for handle, value in instance._handles.items()
        }
        instance._next_handle = snapshot["next_handle"]
        return instance


# ---------------------------------------------------------------------------
# Scenario 1: Pine's est_size From-quoting overflow (§4.2), compiled
# ---------------------------------------------------------------------------

#: Benign default mailbox.  Personal names contain no quotable characters,
#: so the buggy estimate happens to suffice — exactly the situation that let
#: the real bug survive in Pine for years.
DEFAULT_PINE_MAILBOX: List[Dict[str, bytes]] = [
    {"personal": b"Alice Adams", "mailbox": b"alice", "host": b"example.org",
     "subject": b"lunch", "body": b""},
    {"personal": b"", "mailbox": b"bob", "host": b"example.org",
     "subject": b"report", "body": b"draft attached"},
    {"personal": b"Carol Cho", "mailbox": b"carol", "host": b"example.net",
     "subject": b"hello", "body": b""},
]


def pine_attack_mailbox() -> List[Dict[str, bytes]]:
    """A mailbox whose From field drives the est_size overflow (§4.2).

    Every ``\\`` in the personal name is doubled by quoting but charged only
    once by the estimate, so this message overruns its display buffer by one
    byte per backslash.
    """
    poisoned = {
        "personal": b"\\" * 48,
        "mailbox": b"attacker",
        "host": b"evil.test",
        "subject": b"you have won",
        "body": b"",
    }
    return list(DEFAULT_PINE_MAILBOX) + [poisoned]


class MiniCPineServer(MiniCServer):
    """Pine's From-quoting overflow running as compiled mini-C.

    Request kinds
    -------------
    ``list``
        Rebuild the message index: one ``est_size``-sized buffer receives the
        quoted form of the whole address list (the vulnerable path).
    ``read``
        payload ``{"index": int}`` — display one message through the
        worst-case-correct translation (§4.2.2).
    ``lookup``
        payload ``{"mailbox": bytes}`` — walk the ``struct address`` list
        comparing mailbox names (exercises the pointer-handle registry).

    Configuration: ``mailbox`` is a list of message dicts with ``personal``/
    ``mailbox``/``host``/``subject``/``body`` byte strings.
    """

    name = "minic-pine"
    source = PINE_EST_SIZE_SOURCE

    def boot(self) -> None:
        self.messages: List[Dict[str, bytes]] = []
        for message in self.config.get("mailbox", DEFAULT_PINE_MAILBOX):
            self._add_message(dict(message))
        self.index_lines: List[bytes] = []
        self._build_index()

    def _add_message(self, message: Dict[str, bytes]) -> None:
        personal = bytes(message.get("personal", b""))
        self.call(
            "abook_add",
            personal if personal else 0,
            bytes(message["mailbox"]),
            bytes(message["host"]),
        )
        self.messages.append(message)

    def _quoted_list(self, function: str) -> bytes:
        """Quote the whole address book through ``addr_string``/`..._safe``."""
        pointer = self.call(function)
        quoted = self.instance.read_string(pointer)
        self.call("release", pointer)
        return quoted

    def _build_index(self) -> None:
        """The vulnerable index build: est_size buffer + per-line clipping."""
        self.ctx.set_site("minic_pine.addr_string")
        try:
            quoted = self._quoted_list("addr_string")
        finally:
            self.ctx.set_site("")
        lines = [b"Mail index: " + quoted[:60]]
        for number, message in enumerate(self.messages, start=1):
            display_from = message.get("personal") or (
                message["mailbox"] + b"@" + message["host"]
            )
            self.call("index_line", bytes(display_from), bytes(message["subject"]))
            lines.append(b"%3d  %s" % (number, self.global_string("line")))
        self.index_lines = lines

    def handle(self, request: Request) -> Response:
        if request.kind == "list":
            self._build_index()
            return Response.ok(body=b"\n".join(self.index_lines), detail="index rebuilt")
        if request.kind == "read":
            index = int(request.payload.get("index", 0))
            if not 0 <= index < len(self.messages):
                raise ServerError("no such message")
            message = self.messages[index]
            self.ctx.set_site("minic_pine.addr_string_safe")
            try:
                quoted = self._quoted_list("addr_string_safe")
            finally:
                self.ctx.set_site("")
            body = message.get("body", b"")
            return Response.ok(
                body=b"From: " + quoted + b"\nSubject: " + message["subject"]
                + b"\n\n" + body,
                detail="message displayed",
            )
        if request.kind == "lookup":
            mailbox = bytes(request.payload.get("mailbox", b""))
            found = self.call("abook_has", mailbox)
            if not found:
                raise ServerError(f"no address book entry for {mailbox!r}")
            return Response.ok(detail="found")
        raise ServerError(f"unknown minic-pine request kind {request.kind!r}")


# ---------------------------------------------------------------------------
# Scenario 2: the Sendmail crackaddr-style comment walk, compiled
# ---------------------------------------------------------------------------

#: Retained spool entries (the newest ones; a soak must not grow unboundedly).
SPOOL_KEEP = 64


def sendmail_attack_sender(opens: int = 400) -> bytes:
    """An address that is mostly comment-opens: each one is written to the
    parse buffer without a bounds check, walking the cursor past its end."""
    return b"attacker" + b"(" * opens


class MiniCSendmailServer(MiniCServer):
    """The crackaddr comment-balancing walk running as compiled mini-C.

    Request kinds
    -------------
    ``deliver``
        payload ``{"sender": bytes, "body": bytes}`` — parse the sender with
        ``crackaddr`` and spool the rendered header line.  The program's own
        post-parse length check turns a failure-obliviously survived overflow
        into a ``552`` rejection, the paper's §4.1 story.
    ``stat``
        no payload — report spool and rejection counters.
    """

    name = "minic-sendmail"
    source = SENDMAIL_CRACKADDR_SOURCE

    def boot(self) -> None:
        self.spooled: List[bytes] = []
        self.delivered = 0
        self.rejected = 0
        self.remote = 0

    def handle(self, request: Request) -> Response:
        if request.kind == "deliver":
            return self._handle_deliver(request)
        if request.kind == "stat":
            stats = (
                f"delivered {self.delivered} rejected {self.rejected} "
                f"remote {self.remote}"
            )
            return Response.ok(body=stats.encode("ascii"), detail="stats")
        raise ServerError(f"unknown minic-sendmail request kind {request.kind!r}")

    def _handle_deliver(self, request: Request) -> Response:
        sender = bytes(request.payload.get("sender", b""))
        body = bytes(request.payload.get("body", b""))
        self.ctx.set_site("minic_sendmail.crackaddr")
        try:
            length = self.call("format_header", sender, self.delivered + 1)
        finally:
            self.ctx.set_site("")
        if length < 0:
            self.rejected += 1
            raise ServerError("552 address too long")
        self.remote += int(self.call("is_remote", sender))
        header = self.global_string("header")
        self.spooled.append(header + b"\r\n" + body)
        del self.spooled[:-SPOOL_KEEP]
        self.delivered += 1
        return Response.ok(body=header, detail="spooled")


# ---------------------------------------------------------------------------
# Profiles: the zero-harness-edit plugin path
# ---------------------------------------------------------------------------

def _pine_benchmark_config(scale: float) -> Dict[str, object]:
    count = max(int(12 * scale), 3)
    mailbox = [
        dict(DEFAULT_PINE_MAILBOX[i % len(DEFAULT_PINE_MAILBOX)])
        for i in range(count)
    ]
    return {"mailbox": mailbox}


def _pine_request(kind: str, index: int) -> Request:
    if kind == "read":
        return Request(kind="read", payload={"index": 0})
    if kind == "lookup":
        return Request(kind="lookup", payload={"mailbox": b"alice"})
    return Request(kind="list")


PINE_PROFILE = register_profile(
    ServerProfile(
        name="minic-pine",
        server_cls=MiniCPineServer,
        figure_rows=("read", "list", "lookup"),
        benchmark_config=_pine_benchmark_config,
        request_factory=_pine_request,
        attack_config=lambda: {"mailbox": pine_attack_mailbox()},
        attack_request=lambda: Request(kind="list", is_attack=True),
        follow_ups=lambda: [
            Request(kind="read", payload={"index": 0}),
            Request(kind="lookup", payload={"mailbox": b"alice"}),
        ],
        description="Pine est_size From-quoting overflow, compiled mini-C (§4.2)",
    )
)


def _sendmail_request(kind: str, index: int) -> Request:
    if kind == "stat":
        return Request(kind="stat")
    return Request(
        kind="deliver",
        payload={"sender": b"alice@example.org", "body": b"hello there"},
    )


SENDMAIL_PROFILE = register_profile(
    ServerProfile(
        name="minic-sendmail",
        server_cls=MiniCSendmailServer,
        figure_rows=("deliver", "stat"),
        request_factory=_sendmail_request,
        attack_request=lambda: Request(
            kind="deliver",
            payload={"sender": sendmail_attack_sender(), "body": b""},
            is_attack=True,
        ),
        follow_ups=lambda: [
            Request(kind="deliver",
                    payload={"sender": b"bob@example.org", "body": b"follow-up"}),
            Request(kind="stat"),
        ],
        description="Sendmail crackaddr comment-balancing walk, compiled mini-C",
    )
)
