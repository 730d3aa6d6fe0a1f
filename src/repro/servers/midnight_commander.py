"""Midnight Commander 4.5.55: tgz symlink handling and the uninitialized stack buffer (§4.5).

Midnight Commander converts absolute symbolic links inside tgz archives into
links relative to the start of the archive.  It builds the relative link name
with ``strcat`` in a stack-allocated buffer that is never initialized, so the
component names of successive links simply accumulate; once their combined
length exceeds the buffer, ``strcat`` writes past its end.

Two further behaviours from the paper are reproduced:

* the configuration-file parser commits a memory error for every blank line in
  the configuration file (§4.5.4), which is what disables the Bounds Check
  build until the blank lines are removed; and
* the ``/``-search loop of §3, which scans past the end of a buffer looking
  for a ``/`` character and therefore only terminates under failure-oblivious
  execution if the manufactured value sequence eventually produces ``/``.

Build behaviour:

* Standard — the ``strcat`` overflow corrupts the stack and the process dies
  with a segmentation violation when it opens the malicious archive.
* Bounds Check — terminates at the first invalid access (and, with a blank
  line in the configuration, terminates during start-up).
* Failure Oblivious — discards the out-of-bounds writes; the subsequent lookup
  of the link target fails, which is an anticipated case displayed to the user
  as a dangling link, and the file manager keeps working (§4.5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import InfiniteLoopGuard
from repro.memory.cstring import strcat, write_c_string
from repro.servers.base import Request, Response, Server, ServerError

#: Size of the stack buffer in which relative link names are accumulated.
LINKNAME_BUFFER_SIZE = 128

#: Block size for file copies (Copy/Move of Figure 5 are dominated by these).
COPY_CHUNK = 64 * 1024

#: Iteration budget for the ``/``-search loop; generous enough that the paper's
#: manufactured value sequence always finds ``/`` long before the budget is
#: exhausted, but small enough that a degenerate sequence hangs quickly.
SLASH_SCAN_LIMIT = 4096

DEFAULT_CONFIG_TEXT = (
    "[Midnight-Commander]\n"
    "verbose=1\n"
    "pause_after_run=1\n"
    "show_backups=0\n"
    "confirm_delete=1\n"
)


@dataclass
class ArchiveEntry:
    """One entry of a simulated tgz archive."""

    name: str
    is_symlink: bool = False
    target: str = ""
    content: bytes = b""


@dataclass
class SimulatedVfs:
    """A trivially simple virtual file system backing the Figure 5 workload."""

    files: Dict[str, bytes] = field(default_factory=dict)
    directories: set = field(default_factory=set)

    def add_directory(self, path: str) -> None:
        self.directories.add(path.rstrip("/") or "/")

    def add_file(self, path: str, content: bytes) -> None:
        self.files[path] = content
        parent = path.rsplit("/", 1)[0] or "/"
        self.directories.add(parent)

    def exists(self, path: str) -> bool:
        return path in self.files or path.rstrip("/") in self.directories

    def tree(self, prefix: str) -> List[str]:
        """All file paths under a directory prefix."""
        prefix = prefix.rstrip("/") + "/"
        return [p for p in self.files if p.startswith(prefix)]


class MidnightCommanderServer(Server):
    """The Midnight Commander file manager.

    Request kinds
    -------------
    ``open_archive``
        payload ``{"entries": List[ArchiveEntry]}`` — browse a tgz archive,
        converting its symlinks (the vulnerable path).
    ``copy``
        payload ``{"source": str, "target": str}`` — copy a directory tree.
    ``move``
        payload ``{"source": str, "target": str}`` — move a directory tree.
    ``mkdir``
        payload ``{"path": str}`` — create a directory.
    ``delete``
        payload ``{"path": str}`` — delete a file.
    ``find_component``
        payload ``{"name": str}`` — run the §3 ``/``-search loop over the given
        name (used by the manufactured-value-sequence ablation).

    Configuration keys
    ------------------
    ``config_text``
        The ``~/.mc/ini`` analogue parsed during start-up.  Any blank line in
        it triggers the §4.5.4 benign error.
    ``vfs_files``
        Mapping of path to contents used to pre-populate the simulated VFS.
    """

    name = "midnight-commander"

    # -- lifecycle -----------------------------------------------------------------

    def startup(self) -> None:
        self.vfs = SimulatedVfs()
        self.vfs.add_directory("/home/user")
        for path, content in dict(self.config.get("vfs_files", {})).items():
            self.vfs.add_file(path, content)
        config_text = str(self.config.get("config_text", DEFAULT_CONFIG_TEXT))
        self.settings = self._parse_config(config_text)

    def handle(self, request: Request) -> Response:
        handlers = {
            "open_archive": self._handle_open_archive,
            "copy": self._handle_copy,
            "move": self._handle_move,
            "mkdir": self._handle_mkdir,
            "delete": self._handle_delete,
            "find_component": self._handle_find_component,
        }
        handler = handlers.get(request.kind)
        if handler is None:
            raise ServerError(f"unknown midnight commander request kind {request.kind!r}")
        return handler(request)

    # -- configuration parsing (blank-line error, §4.5.4) -------------------------------

    def _parse_config(self, text: str) -> Dict[str, str]:
        """Parse the ini file, committing a one-byte under-read for blank lines."""
        ctx = self.ctx
        mem = ctx.mem
        ctx.set_site("mc.load_setup")
        settings: Dict[str, str] = {}
        for raw_line in text.splitlines():
            line_bytes = raw_line.encode()
            buf = ctx.malloc(len(line_bytes) + 1, name="ini_line")
            write_c_string(mem, buf, line_bytes)
            # Trim trailing whitespace by scanning backwards from the last
            # character.  For a blank line the first probe reads buf[-1],
            # one byte before the start of the allocation.
            end = len(line_bytes)
            while True:
                probe = mem.read_byte(buf + (end - 1))
                if probe not in (ord(" "), ord("\t")) or end < 0:
                    break
                end -= 1
            trimmed = line_bytes[:max(end, 0)]
            ctx.free(buf)
            if not trimmed or trimmed.startswith(b"[") or trimmed.startswith(b"#"):
                continue
            if b"=" in trimmed:
                key, value = trimmed.split(b"=", 1)
                settings[key.decode()] = value.decode()
        ctx.set_site("")
        return settings

    # -- archive browsing (the vulnerable path, §4.5.1) ----------------------------------

    def _handle_open_archive(self, request: Request) -> Response:
        entries: List[ArchiveEntry] = list(request.payload.get("entries", []))
        listing = self._process_archive(entries)
        return Response.ok(body="\n".join(listing).encode(), detail=f"{len(entries)} entries")

    def _process_archive(self, entries: List[ArchiveEntry]) -> List[str]:
        """Convert absolute symlinks to archive-relative links via ``strcat``.

        The link-name buffer below is allocated once for the whole archive and
        never initialized or reset between links, so component names
        accumulate — the documented bug.
        """
        ctx = self.ctx
        mem = ctx.mem
        ctx.set_site("mc.vfs_s_resolve_symlink")
        listing: List[str] = []
        with ctx.stack_frame("tgz_open_archive"):
            linkname = ctx.stack_buffer("linkname", LINKNAME_BUFFER_SIZE)
            ctx.seal_frame()
            for entry in entries:
                if not entry.is_symlink:
                    listing.append(f"{entry.name} ({len(entry.content)} bytes)")
                    continue
                if entry.target.startswith("/"):
                    components = [c for c in entry.target.split("/") if c]
                    for component in components:
                        fragment = ctx.alloc_c_string(
                            b"../" + component.encode(), name="link_component"
                        )
                        strcat(mem, linkname, fragment)
                        ctx.free(fragment)
                # Look up the data for the referenced file.  This always fails
                # (even for the first link), which Midnight Commander treats as
                # an anticipated dangling link (§4.5.2).
                resolved = bytes(mem.read(linkname, min(LINKNAME_BUFFER_SIZE, 64)))
                resolved_name = resolved.split(b"\x00", 1)[0].decode("latin-1")
                if not self.vfs.exists(resolved_name):
                    listing.append(f"{entry.name} -> {entry.target} (dangling)")
                else:  # pragma: no cover - the lookup is documented to always fail
                    listing.append(f"{entry.name} -> {entry.target}")
        ctx.set_site("")
        return listing

    # -- the §3 "/" search loop -----------------------------------------------------------

    def _handle_find_component(self, request: Request) -> Response:
        name = str(request.payload.get("name", ""))
        offset = self._find_slash_past_end(name.encode())
        return Response.ok(detail=f"separator at offset {offset}")

    def _find_slash_past_end(self, name: bytes) -> int:
        """Scan forward from the start of ``name`` until a ``/`` is found.

        For names that contain no ``/`` the scan runs past the end of the
        buffer.  Under failure-oblivious execution the loop terminates only
        because the manufactured value sequence eventually produces the byte
        value of ``/`` (§3); a degenerate all-zero sequence hangs, which the
        iteration budget converts into an observable
        :class:`~repro.errors.InfiniteLoopGuard`.
        """
        ctx = self.ctx
        mem = ctx.mem
        ctx.set_site("mc.find_slash")
        buf = ctx.alloc_c_string(name, name="path_component")
        offset = 0
        try:
            while True:
                if offset > SLASH_SCAN_LIMIT:
                    raise InfiniteLoopGuard(
                        f"/ search scanned {SLASH_SCAN_LIMIT} bytes without finding a separator"
                    )
                if mem.read_byte(buf + offset) == ord("/"):
                    return offset
                offset += 1
        finally:
            ctx.free(buf)
            ctx.set_site("")

    # -- file management requests (the Figure 5 workload) -----------------------------------

    def _handle_copy(self, request: Request) -> Response:
        source = str(request.payload["source"])
        target = str(request.payload["target"])
        copied = 0
        if source in self.vfs.files:
            copied += self._copy_file(source, target)
        else:
            if not self.vfs.exists(source):
                raise ServerError(f"no such file or directory {source!r}")
            self.vfs.add_directory(target)
            for path in self.vfs.tree(source):
                relative = path[len(source):].lstrip("/")
                copied += self._copy_file(path, f"{target.rstrip('/')}/{relative}")
        return Response.ok(detail=f"copied {copied} bytes")

    def _copy_file(self, source: str, target: str) -> int:
        """Copy one file through the simulated copy buffer in chunks."""
        ctx = self.ctx
        ctx.set_site("mc.copy_file")
        content = self.vfs.files[source]
        buf = ctx.malloc(COPY_CHUNK, name="copy_buffer")
        out = bytearray()
        for start in range(0, len(content), COPY_CHUNK):
            chunk = content[start : start + COPY_CHUNK]
            ctx.mem.write(buf, chunk)
            out += ctx.mem.read(buf, len(chunk))
        ctx.free(buf)
        self.vfs.add_file(target, bytes(out))
        ctx.set_site("")
        return len(content)

    def _handle_move(self, request: Request) -> Response:
        source = str(request.payload["source"])
        target = str(request.payload["target"])
        if not self.vfs.exists(source):
            raise ServerError(f"no such file or directory {source!r}")
        moved_files = 0
        if source in self.vfs.files:
            self.vfs.files[target] = self.vfs.files.pop(source)
            moved_files = 1
        else:
            self.vfs.add_directory(target)
            for path in self.vfs.tree(source):
                relative = path[len(source):].lstrip("/")
                self.vfs.files[f"{target.rstrip('/')}/{relative}"] = self.vfs.files.pop(path)
                moved_files += 1
            self.vfs.directories.discard(source.rstrip("/"))
        self._record_operation(f"move {source} -> {target}")
        return Response.ok(detail=f"moved {moved_files} file(s)")

    def _handle_mkdir(self, request: Request) -> Response:
        path = str(request.payload["path"])
        if self.vfs.exists(path):
            raise ServerError(f"directory exists: {path}")
        self.vfs.add_directory(path)
        self._record_operation(f"mkdir {path}")
        return Response.ok(detail=f"created {path}")

    def _handle_delete(self, request: Request) -> Response:
        path = str(request.payload["path"])
        if path not in self.vfs.files:
            raise ServerError(f"no such file {path!r}")
        content = self.vfs.files.pop(path)
        # Deleting scans the directory entry name through a small buffer, the
        # analogue of the unlink path's metadata work.
        self._record_operation(f"delete {path} ({len(content)} bytes)")
        return Response.ok(detail=f"deleted {path}")

    def _record_operation(self, note: str) -> None:
        """Append an entry to the session log through simulated memory."""
        ctx = self.ctx
        ctx.set_site("mc.session_log")
        data = note.encode() + b"\n"
        buf = ctx.malloc(len(data) + 1, name="session_log_entry")
        ctx.mem.write_each(buf, data + b"\x00")
        ctx.free(buf)
        ctx.set_site("")


# ---------------------------------------------------------------------------
# Experiment profile (Figure 5 and §4.5.2)
# ---------------------------------------------------------------------------
# Workload builders are imported lazily: the workload modules import this
# module at import time (for the link-name buffer constant).

from repro.servers.profile import ServerProfile, register_profile  # noqa: E402


def _benchmark_config(scale: float) -> Dict[str, object]:
    from repro.workloads.benign import midnight_commander_vfs_files

    return {
        "vfs_files": midnight_commander_vfs_files(
            directory_bytes=int(2 * 1024 * 1024 * scale),
            file_count=16,
            delete_file_bytes=int(256 * 1024 * scale),
        )
    }


def _benign_request(kind: str, index: int) -> Request:
    from repro.workloads.benign import midnight_commander_requests

    return midnight_commander_requests(kind, 1, unique_suffix=index)[0]


def _attack_request() -> Request:
    from repro.workloads.attacks import midnight_commander_attack_request

    return midnight_commander_attack_request()


def _follow_ups() -> List[Request]:
    return [Request(kind="mkdir", payload={"path": "/home/user/after-attack"})]


def _restore_deleted_file(server: Server, index: int) -> None:
    server.vfs.add_file("/home/user/big-download.iso", b"\xab" * (64 * 1024))


def _ensure_move_source(server: Server, index: int) -> None:
    # The generated move requests alternate direction; make sure the expected
    # source directory exists even after a failed repetition.
    source = "/home/user/data" if index % 2 == 0 else "/home/user/data_moved"
    if not server.vfs.exists(source):
        other = "/home/user/data_moved" if index % 2 == 0 else "/home/user/data"
        for path in server.vfs.tree(other):
            relative = path[len(other):].lstrip("/")
            server.vfs.files[f"{source}/{relative}"] = server.vfs.files.pop(path)
        server.vfs.add_directory(source)


PROFILE = register_profile(
    ServerProfile(
        name="midnight-commander",
        server_cls=MidnightCommanderServer,
        figure_rows=("copy", "move", "mkdir", "delete"),
        figure_number=5,
        benchmark_config=_benchmark_config,
        request_factory=_benign_request,
        reset_hooks={"delete": _restore_deleted_file, "move": _ensure_move_source},
        attack_request=_attack_request,
        follow_ups=_follow_ups,
        description="Midnight Commander 4.5.55 tgz symlink strcat overflow (§4.5)",
    )
)
