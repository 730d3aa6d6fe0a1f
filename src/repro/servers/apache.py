"""Apache 2.0.47, its mod_rewrite capture-offset stack overflow, and the child pool (§4.3).

Apache can be configured with URL rewrite rules whose match patterns contain
parenthesized captures.  While applying a rule, the worker keeps the captured
substring offsets in a stack-allocated buffer with room for ten captures; a
rule with more captures writes the extra offset pairs beyond the end of the
buffer.

Build behaviour reproduced here:

* Standard — the out-of-bounds writes corrupt the worker's stack and the child
  process serving the connection dies with a segmentation violation.
* Bounds Check — the child detects the error and terminates; the pre-fork pool
  replaces it, at a process-management cost that an attacker can exploit to
  depress throughput (§4.3.2).
* Failure Oblivious — the extra offset pairs are discarded.  Because the
  replacement pattern can only reference captures ``$0``–``$9``, the discarded
  offsets are never needed, the rewritten URL is produced correctly, and the
  request (and all subsequent requests) are served normally.

The module also provides :class:`ChildProcessPool`, the simulated pre-fork
MPM used by the throughput-under-attack experiment.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.policy import AccessPolicy
from repro.errors import RequestResult
from repro.memory.shared_image import SharedImageStore
from repro.servers.base import (
    Request,
    Response,
    Server,
    ServerError,
)

#: Number of capture offset pairs the stack buffer has room for (the real
#: AP_MAX_REG_MATCH is 10).
MAX_CAPTURES = 10

#: Bytes per stored capture: two 4-byte offsets (start, end).
CAPTURE_PAIR_SIZE = 8

#: Block size for copying file contents into the response (the analogue of the
#: kernel/file-I/O work that dominates Apache's request time in Figure 3).
#: Apache hands whole buckets to writev/sendfile, so the unit of checked work
#: is large and the per-request checking overhead stays in the low percent.
SEND_CHUNK = 64 * 1024


@dataclass
class RewriteRule:
    """One configured rewrite rule: a match pattern and a replacement."""

    pattern: str
    replacement: str

    def capture_count(self) -> int:
        """Number of offset pairs the rule produces ($0 plus its groups)."""
        return re.compile(self.pattern).groups + 1


#: Default site content: the project home page (the paper's Small request
#: serves a 5 KByte page) and a large download (830 KBytes).
def default_site_files() -> Dict[str, bytes]:
    """Build the default document tree served by the simulated Apache."""
    return {
        "/index.html": (b"<html><body>" + b"research project home page. " * 180 + b"</body></html>"),
        "/download/big.dat": bytes(range(256)) * (830 * 1024 // 256),
        "/docs/readme.txt": b"failure-oblivious computing reproduction\n" * 40,
    }


DEFAULT_REWRITE_RULES: List[RewriteRule] = [
    RewriteRule(pattern=r"^/old/(.*)$", replacement="/docs/$1"),
    RewriteRule(pattern=r"^/project/?$", replacement="/index.html"),
]

#: The vulnerable configuration of §4.3.1: a rule whose pattern has more than
#: ten captures.  A URL matching it overflows the capture-offset buffer.
VULNERABLE_RULE = RewriteRule(
    pattern=r"^/r/(a*)(b*)(c*)(d*)(e*)(f*)(g*)(h*)(i*)(j*)(k*)(l*)(m*)/(.*)$",
    replacement="/docs/$1$2$3",
)


class ApacheServer(Server):
    """One Apache worker (child) process.

    Request kinds
    -------------
    ``get``
        payload ``{"url": str}`` — serve a static file after applying the
        rewrite rules (the vulnerable path runs whenever a rule matches).

    Configuration keys
    ------------------
    ``files``
        Mapping of path to content bytes (the document tree).
    ``rewrite_rules``
        List of :class:`RewriteRule`.  Including :data:`VULNERABLE_RULE` plants
        the documented vulnerability.
    """

    name = "apache"

    # -- lifecycle -----------------------------------------------------------------

    def startup(self) -> None:
        """Parse configuration and build per-child lookup tables.

        Startup deliberately does a realistic amount of work (configuration
        parsing through simulated memory, rule compilation, MIME table
        construction) because the cost of restarting a child after a crash is
        exactly what the throughput experiment measures.
        """
        self.files: Dict[str, bytes] = dict(self.config.get("files") or default_site_files())
        rules = self.config.get("rewrite_rules")
        self.rewrite_rules: List[RewriteRule] = list(rules) if rules is not None else list(
            DEFAULT_REWRITE_RULES
        )
        self._compiled_rules = [
            (re.compile(rule.pattern), rule) for rule in self.rewrite_rules
        ]
        self._parse_configuration_text()
        self.requests_served = 0

    def _parse_configuration_text(self) -> None:
        """Scan a httpd.conf-like text through simulated memory (startup cost)."""
        ctx = self.ctx
        ctx.set_site("apache.read_config")
        lines = [f"RewriteRule {rule.pattern} {rule.replacement}" for rule in self.rewrite_rules]
        lines += [f"# document {path} ({len(data)} bytes)" for path, data in self.files.items()]
        lines += ["KeepAlive On", "MaxClients 150", "Timeout 300"] * 20
        text = ("\n".join(lines) + "\n").encode()
        conf = ctx.malloc(len(text) + 1, name="httpd_conf")
        # A per-byte loop on purpose, unlike the request paths' byte copies
        # (``MemoryAccessor.write_each``): its wall time is part of the boot
        # that the reboot-per-death baselines time (see ``startup``).
        cursor = conf
        for byte in text:
            ctx.mem.write_byte(cursor, byte)
            cursor = cursor + 1
        ctx.mem.write_byte(cursor, 0)
        # Tokenize the configuration (byte scan) to model directive parsing.
        directives = 0
        scan = conf
        for _ in range(len(text)):
            if ctx.mem.read_byte(scan) == ord("\n"):
                directives += 1
            scan = scan + 1
        self._directive_count = directives
        ctx.free(conf)
        ctx.set_site("")

    def handle(self, request: Request) -> Response:
        if request.kind == "get":
            return self._handle_get(request)
        raise ServerError(f"unknown apache request kind {request.kind!r}")

    # -- request processing ---------------------------------------------------------

    def _handle_get(self, request: Request) -> Response:
        url = str(request.payload["url"])
        target = self._apply_rewrite_rules(url)
        content = self.files.get(target)
        if content is None:
            raise ServerError(f"404 not found: {target}")
        body = self._send_file(content)
        self.requests_served += 1
        return Response.ok(body=body, detail=f"200 OK {target} ({len(content)} bytes)")

    def _apply_rewrite_rules(self, url: str) -> str:
        """Apply the first matching rewrite rule (the vulnerable path, §4.3.1)."""
        for compiled, rule in self._compiled_rules:
            match = compiled.match(url)
            if match is None:
                continue
            return self._substitute(rule, match, url)
        return url

    def _substitute(self, rule: RewriteRule, match: "re.Match", url: str) -> str:
        """Store capture offsets in the fixed-size stack buffer, then substitute.

        The buffer has room for :data:`MAX_CAPTURES` offset pairs; a rule with
        more captures writes the extra pairs beyond its end — the documented
        memory error.
        """
        ctx = self.ctx
        mem = ctx.mem
        ctx.set_site("apache.rewrite_captures")
        ncaptures = match.re.groups + 1
        # Start and end of every capture (a group that did not take part
        # stores (0, 0)), as the handler's 4-byte ints.
        values: List[int] = []
        for i in range(ncaptures):
            span = match.span(i)
            values += span if span != (-1, -1) else (0, 0)
        encoded = b"".join(value.to_bytes(4, "little", signed=True) for value in values)
        with ctx.stack_frame("try_rewrite"):
            offsets = ctx.stack_buffer("regmatch", MAX_CAPTURES * CAPTURE_PAIR_SIZE)
            ctx.seal_frame()
            # One int at a time, as the handler's loop stores them; the pairs
            # past the buffer's tenth are the overflow.
            mem.write_each(offsets, encoded, 4)
            # Only the first ten pairs are ever read back, because replacement
            # patterns can only name $0 through $9 (§4.3.2).
            raw = mem.read_each(offsets, 2 * min(ncaptures, MAX_CAPTURES), 4)
        ctx.set_site("")
        ints = [int.from_bytes(raw[at:at + 4], "little", signed=True)
                for at in range(0, len(raw), 4)]
        stored = list(zip(ints[::2], ints[1::2]))
        result = rule.replacement
        for i, (start, end) in enumerate(stored):
            if f"${i}" in result:
                result = result.replace(f"${i}", url[start:end])
        return result

    def _send_file(self, content: bytes) -> bytes:
        """Copy the file through the response buffer in kernel-sized chunks.

        Chunked block copies keep the per-byte checking overhead low, which is
        why the Apache rows of Figure 3 show only a few percent slowdown.
        """
        ctx = self.ctx
        ctx.set_site("apache.send_file")
        buf = ctx.malloc(SEND_CHUNK, name="brigade_buffer")
        sent = bytearray()
        for start in range(0, len(content), SEND_CHUNK):
            chunk = content[start : start + SEND_CHUNK]
            ctx.mem.write(buf, chunk)
            sent += ctx.mem.read(buf, len(chunk))
        ctx.free(buf)
        ctx.set_site("")
        return bytes(sent)


class ChildProcessPool:
    """The pre-fork MPM: a pool of worker children behind one master.

    The master dispatches each request to an idle child.  When a child dies
    (crash, bounds-check termination, or exploit), the master forks a
    replacement before the next request can be served by that slot, and the
    replacement's startup cost is charged to the observed service time —
    reproducing the throughput collapse the Bounds Check and Standard builds
    suffer while under attack (§4.3.2).

    Like the real pre-fork MPM, the pool boots *one* template process and
    forks every worker from it: the first child runs ``startup()`` and its
    post-boot :class:`~repro.servers.base.ProcessImage` seeds all siblings
    and every replacement child.  A cloned child is observably identical to
    a booted one — the restart equivalence suite proves it — but costs a
    memory restore instead of a full configuration parse.

    A child keeps no per-request results, so one that serves for as long
    as the pool does holds only its process state.

    The master reaps a dead child before forking its replacement: the dead
    child's context exits (:meth:`~repro.memory.context.MemoryContext.exit`),
    unmapping its segments as the kernel frees a dead process's pages.  The
    reap comes first so the replacement's fresh segments reuse the pages it
    gives back instead of faulting in new ones.  The dead child's error log
    and counters stay readable.  :meth:`close` and ``Server.stop()`` do not
    reap, because their children and servers stay readable for post-mortem
    queries of their memory.  ``restart_from_scratch()`` does not either: it
    is the from-scratch boot the restart and soak speed-up gates divide by,
    and a reap would let that boot reuse freed pages and move the gates.
    """

    def __init__(
        self,
        policy_factory: Callable[[], AccessPolicy],
        pool_size: int = 4,
        config: Optional[Dict[str, object]] = None,
    ) -> None:
        self.policy_factory = policy_factory
        self.pool_size = pool_size
        self.config = dict(config or {})
        self.children: List[ApacheServer] = []
        self.child_deaths = 0
        self.restart_seconds = 0.0
        self._next_child = 0
        self._template_image = None
        # One shared-memory copy of the template image for every child and
        # replacement fork (mirrors the fleet scheduler; degrades to plain
        # bytes when shared memory is unavailable).  Released by close().
        self._image_store = SharedImageStore()
        for _ in range(pool_size):
            self.children.append(self._fork_child())

    def _fork_child(self) -> ApacheServer:
        child = ApacheServer(self.policy_factory, config=self.config)
        if self._template_image is None:
            # The template's boot image is captured straight into the shared
            # store, so the template child restarts from the shared copy too.
            child.start(store=self._image_store)
            self._template_image = child.boot_image
        else:
            child.adopt_image(self._template_image)
        return child

    def close(self) -> None:
        """Release the shared template image (idempotent).

        Children stay usable for queries afterwards, but no further
        replacement fork may restore from the template.
        """
        self._template_image = None
        self._image_store.close()

    def dispatch(self, request: Request) -> RequestResult:
        """Serve one request on the next child, replacing it if it dies."""
        slot = self._next_child
        self._next_child = (self._next_child + 1) % self.pool_size
        child = self.children[slot]
        if not child.alive:
            restart_start = time.perf_counter()
            # Reap before forking, so the replacement's segments can take
            # the pages the dead child's segments give back.
            child.ctx.exit()
            child = self._fork_child()
            self.children[slot] = child
            self.restart_seconds += time.perf_counter() - restart_start
        result = child.process(request)
        if result.fatal:
            self.child_deaths += 1
        return result

    def alive_children(self) -> int:
        """Number of children currently able to serve requests."""
        return sum(1 for child in self.children if child.alive)

    def total_memory_errors(self) -> int:
        """Memory errors recorded across all current children."""
        return sum(child.memory_error_count() for child in self.children)


# ---------------------------------------------------------------------------
# Experiment profile (Figure 3 and §4.3.2)
# ---------------------------------------------------------------------------
# Workload builders are imported lazily: the workload modules import this
# module at import time (for the rewrite-rule constants).

from repro.servers.profile import ServerProfile, register_profile  # noqa: E402


def _benign_request(kind: str, index: int) -> Request:
    from repro.workloads.benign import apache_requests

    return apache_requests(kind, 1)[0]


def _attack_config() -> Dict[str, object]:
    from repro.workloads.attacks import apache_vulnerable_config

    return apache_vulnerable_config()


def _attack_request() -> Request:
    from repro.workloads.attacks import apache_attack_request

    return apache_attack_request()


def _follow_ups() -> List[Request]:
    return [Request(kind="get", payload={"url": "/index.html"})]


PROFILE = register_profile(
    ServerProfile(
        name="apache",
        server_cls=ApacheServer,
        figure_rows=("small", "large"),
        figure_number=3,
        request_factory=_benign_request,
        attack_config=_attack_config,
        attack_request=_attack_request,
        follow_ups=_follow_ups,
        description="Apache 2.0.47 mod_rewrite capture-offset stack overflow (§4.3)",
    )
)
