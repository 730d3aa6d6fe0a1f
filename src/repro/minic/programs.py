"""The paper's vulnerable server functions, ported to mini-C.

These are the two overflow sites the in-VM server scenarios host
(:mod:`repro.servers.minic_host`): the same C idioms the paper compiled with
its failure-oblivious compiler, expressed in the mini-C subset so every load
and store goes through the bound access policy and the scanner/copy loops run
on the span fast path after idiom lowering.

* :data:`PINE_EST_SIZE_SOURCE` — Pine 4.44's From-field quoting overflow
  (paper §4.2).  ``est_size`` walks a ``struct address`` linked list and
  under-counts the growth caused by quoting ``"`` and ``\\`` characters;
  ``addr_string`` then copies the quoted form into the undersized buffer.
* :data:`SENDMAIL_CRACKADDR_SOURCE` — the Sendmail ``crackaddr``-style
  comment-balancing buffer walk.  The open-parenthesis case reserves one byte
  of headroom and the close-parenthesis case gives it back, but the balancing
  characters themselves are written without a bounds check, so an address
  that is mostly parentheses walks the cursor past the fixed buffer.

Both sources are plain strings: tests and examples can recompile them with
``lower=False`` to run every loop per byte, without idiom lowering.
"""

from __future__ import annotations

#: Pine's From-field quoting overflow (§4.2) as a mini-C translation unit.
#:
#: The address book is a ``struct address`` linked list built through
#: ``abook_add`` (struct pointer fields exercise the interpreter's
#: pointer-handle registry).  ``est_size`` is the paper's buggy length
#: estimate: it charges each personal name its unquoted length plus the
#: surrounding quotes, so every ``"`` or ``\\`` that quoting doubles writes
#: one byte past the allocation in ``addr_string``.  ``addr_string_safe`` is
#: the correct translation used by the message-reading path (§4.2.2).
PINE_EST_SIZE_SOURCE = r"""
struct address {
    char *personal;
    char *mailbox;
    char *host;
    struct address *next;
};

struct address *abook;
char line[80];

struct address *make_address(char *personal, char *mailbox, char *host) {
    struct address *a;
    a = safe_malloc(sizeof(struct address));
    a->personal = personal;
    a->mailbox = mailbox;
    a->host = host;
    a->next = 0;
    return a;
}

int abook_add(char *personal, char *mailbox, char *host) {
    struct address *a;
    a = make_address(personal, mailbox, host);
    a->next = abook;
    abook = a;
    return abook_len();
}

int abook_len() {
    struct address *a;
    int n;
    n = 0;
    a = abook;
    while (a) {
        n = n + 1;
        a = a->next;
    }
    return n;
}

/* 1 when some entry's mailbox matches, 0 otherwise. */
int abook_has(char *mbox) {
    struct address *a;
    a = abook;
    while (a) {
        if (strcmp(a->mailbox, mbox) == 0) {
            return 1;
        }
        a = a->next;
    }
    return 0;
}

/* The buggy size estimate (the paper's est_size): quoting may double the
   personal name, but the estimate only charges the quotes themselves. */
int est_size(struct address *a) {
    int size;
    size = 0;
    while (a) {
        if (a->personal) {
            size = size + strlen(a->personal) + 3;
        }
        size = size + strlen(a->mailbox) + strlen(a->host) + 3;
        a = a->next;
    }
    return size + 1;
}

/* The worst-case-correct estimate used by the §4.2.2 reading path. */
int safe_size(struct address *a) {
    int size;
    size = 0;
    while (a) {
        if (a->personal) {
            size = size + strlen(a->personal) * 2 + 3;
        }
        size = size + strlen(a->mailbox) + strlen(a->host) + 3;
        a = a->next;
    }
    return size + 1;
}

/* Quote one list into a buffer sized by the given estimate. */
char *quote_list(struct address *a, int size) {
    char *buf;
    char *dst;
    char *src;
    int c;
    buf = safe_malloc(size);
    dst = buf;
    while (a) {
        src = a->personal;
        if (src) {
            *dst++ = '"';
            while ((c = *src++) != 0) {
                if (c == '"') { *dst++ = '\\'; }
                if (c == '\\') { *dst++ = '\\'; }
                *dst++ = c;
            }
            *dst++ = '"';
            *dst++ = ' ';
        }
        src = a->mailbox;
        while ((c = *src++) != 0) { *dst++ = c; }
        *dst++ = '@';
        src = a->host;
        while ((c = *src++) != 0) { *dst++ = c; }
        if (a->next) { *dst++ = ','; *dst++ = ' '; }
        a = a->next;
    }
    *dst = 0;
    return buf;
}

/* The vulnerable index-building path: the undersized est_size buffer. */
char *addr_string() {
    return quote_list(abook, est_size(abook));
}

/* The correct message-reading path (§4.2.2). */
char *addr_string_safe() {
    return quote_list(abook, safe_size(abook));
}

/* One index display line, clipped with strncat into a fixed-width buffer. */
int index_line(char *from, char *subject) {
    line[0] = 0;
    strncat(line, from, 24);
    strncat(line, "  ", 3);
    strncat(line, subject, 40);
    return strlen(line);
}

int release(char *p) {
    free(p);
    return 0;
}
"""


#: The Sendmail ``crackaddr``-style comment-balancing walk as mini-C.
#:
#: ``crackaddr`` copies an address into the fixed global ``outbuf``.
#: Ordinary characters are bounds-checked against the headroom pointer
#: ``end``, but the comment-balancing parentheses are written unchecked —
#: the '(' case reserves a byte of headroom for the matching ')' and the
#: ')' case restores it, and the trailing close-out loop emits every still
#: open ')' with no check at all.  An address made of parentheses therefore
#: walks the cursor arbitrarily far past ``outbuf``.  ``format_header``
#: applies the post-parse length check, which is what turns the discarded
#: out-of-bounds writes of the failure-oblivious build into sendmail's own
#: "address too long" rejection.
SENDMAIL_CRACKADDR_SOURCE = r"""
#define BUFSIZE 128

char outbuf[BUFSIZE];
char header[256];

int crackaddr(char *addr) {
    char *p;
    char *q;
    char *end;
    int c;
    int cmtlev;
    p = addr;
    q = outbuf;
    end = outbuf + BUFSIZE - 1;
    cmtlev = 0;
    while ((c = *p++) != 0) {
        if (c == '(') {
            cmtlev = cmtlev + 1;
            *q++ = c;
            end--;
        } else if (c == ')') {
            if (cmtlev > 0) {
                cmtlev = cmtlev - 1;
                *q++ = c;
                end++;
            }
        } else {
            if (q < end) {
                *q++ = c;
            }
        }
    }
    while (cmtlev > 0) {
        *q++ = ')';
        cmtlev = cmtlev - 1;
    }
    *q = 0;
    return q - outbuf;
}

/* 1 when the address names a remote host, 0 for a local address. */
int is_remote(char *addr) {
    char *at;
    at = strchr(addr, '@');
    if (!at) { return 0; }
    return 1;
}

/* Parse the sender and render the spooled header line.  Returns the parsed
   length, or -1 when the post-parse length check rejects the address. */
int format_header(char *sender, int seq) {
    int n;
    n = crackaddr(sender);
    if (n + 1 >= BUFSIZE) {
        return 0 - 1;
    }
    sprintf(header, "From: %s (msg %d)", outbuf, seq);
    return n;
}
"""
