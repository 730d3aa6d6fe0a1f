"""Differential suite: the compiled mini-C evaluator versus the frozen tree walk.

``tests/reference_interpreter.py`` keeps the per-node tree-walk evaluator
verbatim.  Every program here runs twice, in twin memory contexts, once
through the shipped :class:`~repro.minic.interpreter.ProgramInstance` and
once through the reference, under all five policies, lowered and unlowered.
The two runs must be identical in everything the memory layer counts or a
caller can see:

* each call's return value, and the type, message and fault address of the
  exception that ended the call list, if any;
* the instance's ``output``, its globals, its pointer-handle registry and
  the final bytes of every segment;
* ``checks_performed`` and the rest of the policy statistics,
  ``table.lookups``, ``raw_reads``/``raw_writes``;
* every error record and the error log's aggregate counters.

Inputs are the three shipped sources (Pine ``est_size``, Sendmail
``crackaddr``, the paper's Figure 1) with Hypothesis-generated arguments,
and the programs of the other ``tests/test_minic_*.py`` modules with the
arguments those tests use, plus a few programs for the struct, handle,
function-pointer and error paths that no other test reaches.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.context import MemoryContext
from repro.memory.pointer import FatPointer
from repro.minic import interpreter as minic_interpreter
from repro.minic.figure1 import FIGURE1_SOURCE
from repro.minic.interpreter import FunctionRef, TypedPointer
from repro.minic.lower import CompileError, compile_program
from repro.minic.programs import PINE_EST_SIZE_SOURCE, SENDMAIL_CRACKADDR_SOURCE
from repro.workloads.attacks import mutt_attack_folder_name
from tests.conftest import POLICY_CLASSES
from tests.reference_interpreter import ReferenceInstance
from tests.test_minic_lowering_differential import (
    COPY_SOURCE,
    FILL_SOURCE,
    SCANNER_SOURCE,
    UAF_SOURCE,
)
from tests.test_minic_stdlib_floods import SPRINTF_FLOOD, STRCHR_FLOOD, STRNCAT_FLOOD

POLICY_NAMES = sorted(POLICY_CLASSES)

#: The loop budget every run here uses, on both evaluators.  Runaway loops
#: (``while (1);``, a redirect scan orbiting its unit) then hit the guard
#: after a few thousand iterations instead of a million, and the longest
#: loop any input needs (a Figure 1 name or a crackaddr sender of a few
#: hundred bytes) stays well inside it.
EQUIVALENCE_LOOP_LIMIT = 4_096

#: Argument standing for the previous call's return value (``release(p)``
#: after ``p = addr_string()``).
PREVIOUS = object()

_UNIT_ID = re.compile(r"#\d+")


@pytest.fixture(autouse=True)
def equivalence_loop_limit():
    original = minic_interpreter.LOOP_LIMIT
    minic_interpreter.LOOP_LIMIT = EQUIVALENCE_LOOP_LIMIT
    yield
    minic_interpreter.LOOP_LIMIT = original


# -- running one evaluator ------------------------------------------------------


def _value(value):
    """A comparable form of one mini-C value (twin contexts share addresses)."""
    if isinstance(value, TypedPointer):
        pointer = value.pointer
        address = None if pointer.is_null else pointer.address
        return ("ptr", address, value.elem_size, value.ctype)
    if isinstance(value, FatPointer):
        return ("fat", None if value.is_null else value.address)
    if isinstance(value, FunctionRef):
        return ("fn", value.name)
    return ("int", value)


def _event(event):
    return (event.kind, event.access, _UNIT_ID.sub("#", event.unit_name),
            event.unit_size, event.offset, event.length, event.site)


def _failure(exc):
    """Type, message and fault address of the exception ending a call list."""
    event = getattr(exc, "event", None)
    return (
        type(exc).__name__,
        _UNIT_ID.sub("#", str(exc)),
        getattr(exc, "address", None),
        None if event is None else _event(event),
    )


def _observe(instance, results, failure):
    ctx = instance.ctx
    counters = ctx.error_log.counters
    return {
        "results": results,
        "failure": failure,
        "output": bytes(instance.output),
        "globals": {name: (_value(slot.value), slot.type)
                    for name, slot in instance.globals.items()},
        "handles": {handle: _value(value) for handle, value in instance._handles.items()},
        "segments": [bytes(segment.data) for segment in ctx.space.segments()],
        "stats": ctx.policy.stats.as_dict(),
        "lookups": ctx.table.lookups,
        "raw_reads": ctx.space.raw_reads,
        "raw_writes": ctx.space.raw_writes,
        "events": [_event(event) for event in ctx.error_log.events()],
        "log_total": ctx.error_log.total_recorded,
        "counters": {
            "by_type": counters.by_type,
            "invalid_total": counters.invalid_total,
            "invalid_by_site": counters.invalid_by_site,
            "invalid_by_kind": counters.invalid_by_kind,
            "invalid_by_access": counters.invalid_by_access,
            "manufactured_bytes": counters.manufactured_bytes,
            "discarded_bytes": counters.discarded_bytes,
            "stored_bytes": counters.stored_bytes,
            "redirected_accesses": counters.redirected_accesses,
        },
    }


def _run(evaluator, source, lower, policy_name, calls):
    """Run ``calls`` on one evaluator; stop at the first exception."""
    program = compile_program(source, lower=lower)
    ctx = MemoryContext(POLICY_CLASSES[policy_name]())
    results = []
    failure = None
    try:
        if evaluator == "compiled":
            instance = program.instantiate(ctx=ctx)
        else:
            instance = ReferenceInstance(program.unit, ctx)
        previous = None
        for function, args in calls:
            args = tuple(previous if arg is PREVIOUS else arg for arg in args)
            previous = instance.call(function, *args)
            results.append(_value(previous))
    except Exception as exc:  # every failure is compared, whatever its type
        failure = _failure(exc)
        if "instance" not in locals():
            return {"results": results, "failure": failure}
    return _observe(instance, results, failure)


def assert_same(source, calls, policies=POLICY_NAMES, lowers=(False, True)):
    for policy_name in policies:
        for lower in lowers:
            reference = _run("reference", source, lower, policy_name, calls)
            compiled = _run("compiled", source, lower, policy_name, calls)
            assert compiled.keys() == reference.keys(), (policy_name, lower)
            for key, expected in reference.items():
                # Compared before asserting, so a mismatch in a segment's
                # bytes reports its key instead of a megabyte-long diff.
                same = compiled[key] == expected
                assert same, (policy_name, lower, key, compiled[key] if key != "segments"
                              else "segment bytes differ")


# -- the shipped sources, generated arguments --------------------------------------

policies = st.sampled_from(POLICY_NAMES)
lowers = st.booleans()
address_text = st.binary(max_size=24).map(lambda data: data.replace(b"\x00", b"x"))
senders = st.one_of(
    address_text,
    st.builds(lambda head, opens, closes, tail: head + b"(" * opens + b")" * closes + tail,
              address_text, st.integers(0, 300), st.integers(0, 40), address_text),
)
names = st.one_of(
    st.binary(max_size=40).map(lambda data: data.replace(b"\x00", b"a")),
    st.text(max_size=24).map(lambda text: text.replace("\x00", "a").encode("utf-8")),
    st.integers(1, 80).map(mutt_attack_folder_name),
)
personal = st.one_of(st.just(0), st.binary(min_size=1, max_size=40).map(
    lambda data: data.replace(b"\x00", b"\\")))
plain = st.binary(min_size=1, max_size=16).map(lambda data: data.replace(b"\x00", b"m"))


class TestShippedSources:
    @settings(max_examples=50, deadline=None)
    @given(policy=policies, lower=lowers, sender=senders, seq=st.integers(-5, 1 << 20))
    def test_crackaddr(self, policy, lower, sender, seq):
        calls = [("crackaddr", (sender,)), ("is_remote", (sender,)),
                 ("format_header", (sender, seq))]
        assert_same(SENDMAIL_CRACKADDR_SOURCE, calls, [policy], [lower])

    @settings(max_examples=50, deadline=None)
    @given(policy=policies, lower=lowers, name=names, delta=st.integers(-2, 2))
    def test_figure1(self, policy, lower, name, delta):
        calls = [("utf8_to_utf7", (name, max(len(name) + delta, 0)))]
        assert_same(FIGURE1_SOURCE, calls, [policy], [lower])

    @settings(max_examples=30, deadline=None)
    @given(policy=policies, lower=lowers,
           entries=st.lists(st.tuples(personal, plain, plain), min_size=1, max_size=4),
           probe=plain, subject=plain)
    def test_pine_est_size(self, policy, lower, entries, probe, subject):
        calls = [("abook_add", entry) for entry in entries]
        calls += [
            ("abook_len", ()),
            ("abook_has", (probe,)),
            ("abook_has", (entries[0][1],)),
            ("addr_string_safe", ()), ("release", (PREVIOUS,)),
            ("index_line", (entries[-1][1], subject)),
            ("addr_string", ()), ("release", (PREVIOUS,)),
        ]
        assert_same(PINE_EST_SIZE_SOURCE, calls, [policy], [lower])


# -- the programs of the other mini-C test modules ---------------------------------

FIB = """
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main(void) { return fib(10); }
"""

CALL_RESOLUTION = """
int strlen(char *s) { return 42; }
int direct(char *s) { return strlen(s); }
int through_pointer(char *s) {
    int (*f)(char *);
    f = strlen;
    return f(s);
}
int builtin_through_pointer(char *s) {
    int (*f)(char *);
    f = strcmp;
    return f(s, s);
}
"""

MINIC_DEMO = """
char buf[16];

int copy(char *src) {
    char *d;
    char *s;
    d = buf;
    s = src;
    while ((*d++ = *s++) != 0) { }
    return d - buf;
}

int main() {
    return copy("a deliberately over-long folder name payload");
}
"""


def _main(body):
    return f"int main(void) {{ {body} }}", [("main", ())]


def _f_of_x(body, *xs):
    return f"int f(int x) {{ {body} }}", [("f", (x,)) for x in xs]


#: (id, source, calls) from tests/test_minic_{interpreter,diagnostics,parser,
#: stdlib_floods,lowering_differential,figure1}.py and tests/test_cli.py.
CORPUS = [
    ("arithmetic", *_main("return (2 + 3) * 4 - 6 / 2;")),
    ("division", *_main("return -7 / 2;")),
    ("bitwise", *_main("return (0xF0 >> 4) | (1 << 3);")),
    ("logic", *_main("return (1 < 2) && (3 != 4) && !(5 == 6);")),
    ("short-circuit", "int side(void) { return 1 / 0; }\n"
     "int main(void) { return 0 && side(); }\n"
     "int both(void) { return 1 && side(); }", [("main", ()), ("both", ())]),
    ("if-else", *_main("int x = 3; if (x > 2) return 10; else return 20;")),
    ("while", *_main("int i = 0; int s = 0; while (i < 5) { s += i; i++; } return s;")),
    ("for", *_main("int s = 0; int i; for (i = 0; i < 4; i++) s += i; return s;")),
    ("break-continue", *_main("int s = 0; int i; for (i = 0; i < 10; i++) {"
                             " if (i == 3) continue; if (i == 6) break; s += i; } return s;")),
    ("goto-forward", *_main("int x = 1; goto done; x = 99; done: return x;")),
    ("goto-out-of-loop", *_main("int i; for (i = 0; i < 100; i++) { if (i == 7) goto out; }"
                               " out: return i;")),
    ("goto-unknown-label", *_main("goto nowhere; return 0;")),
    ("ternary", *_main("int x = 5; return x > 3 ? 1 : 2;")),
    ("comma", *_main("int a; int b; a = 1, b = 2; return a + b;")),
    ("unsigned-char", *_main("unsigned char c = 300; return c;")),
    ("signed-char", *_main("char c = 0xff; return c;")),
    ("loop-guard", *_main("while (1) ; return 0;")),
    ("for-guard", *_main("int i; for (i = 0; ; i++) ; return 0;")),
    ("fib", FIB, [("main", ())]),
    ("local-array", *_main("char buf[8]; buf[0] = 'h'; buf[1] = 'i'; buf[2] = 0;"
                          " return buf[0] + buf[1];")),
    ("count", "int count(const char *s) { int n = 0; while (*s) { n++; s++; } return n; }",
     [("count", (b"hello world",))]),
    ("strlen", "int f(const char *s) { return strlen(s); }", [("f", (b"four",))]),
    ("dup", "char *dup(const char *s) { char *copy = malloc(strlen(s) + 1);"
     " strcpy(copy, s); return copy; }", [("dup", (b"duplicate me",))]),
    ("string-global", 'static char *alphabet = "abcdef";\n'
     "int pick(int i) { return alphabet[i]; }", [("pick", (2,)), ("pick", (9,))]),
    ("pointer-difference", "int length(const char *s) { const char *p = s;"
     " while (*p) p++; return p - s; }", [("length", (b"12345",))]),
    ("smash", *_main("char buf[4]; int i; for (i = 0; i < 32; i++) buf[i] = 'A'; return 0;")),
    ("memset-memcpy", *_main("char a[8]; char b[8]; memset(a, 'x', 8); memcpy(b, a, 8);"
                            " return b[7];")),
    ("free-realloc", *_main("char *p = malloc(4); p[0] = 'a'; p = realloc(p, 16);"
                           " free(p); return 0;")),
    ("putchar-puts", *_main("putchar('o'); putchar('k'); puts(\"done\"); return 0;")),
    ("deref-int", "int main(void) {\n    int x = 3;\n    return *x;\n}", [("main", ())]),
    ("index-int", "int main(void) {\n    int x = 3;\n    return x[0];\n}", [("main", ())]),
    ("deref-zero", "int f(void) { return *0; }", [("f", ())]),
    ("address-of", *_main("int x = 3; return &x;")),
    ("undefined-variable", "int main(void) { return nowhere; }", [("main", ())]),
    ("wrong-arity", "int f(int a) { return a; }", [("f", (1, 2))]),
    ("call-resolution", CALL_RESOLUTION, [("direct", (b"abc",)), ("through_pointer", (b"abc",)),
                                          ("builtin_through_pointer", (b"abc",))]),
    ("seven", *_main("return 7;")),
    ("parser-decls", *_f_of_x("int a = 1, b = 2; return a + b;", 0)),
    ("parser-pointer-decls", *_f_of_x("char *p, c; c = x; return c;", 65, 300)),
    ("parser-if-chain", *_f_of_x("if (x) return 1; else if (x + 1) return 2; else return 3;",
                                 0, -1, 5)),
    ("parser-loops", *_f_of_x("while (x) x = x - 1; for (x = 0; x < 3; x++) ; return x;", 4)),
    ("parser-for-break", *_f_of_x("for (;;) break; return x;", 3)),
    ("parser-goto", *_f_of_x("goto out; out: return 0;", 1)),
    ("parser-shift-or", *_f_of_x("return x << 2 | 1;", 5, -3)),
    ("parser-chained-assign", *_f_of_x("int a; int b; a = b = 1; return a;", 0)),
    ("parser-compound", *_f_of_x("x -= 6; return x;", 2)),
    ("parser-comma", *_f_of_x("x = 1, x = 2; return x;", 0)),
    ("parser-null-store", *_f_of_x("char *p; *p++ = 'x'; return 0;", 0)),
    ("parser-index-int", *_f_of_x("return x[3];", 0)),
    ("parser-cast", *_f_of_x("return (unsigned char) x;", 300, -1)),
    ("parser-sizeof", *_f_of_x("return sizeof(int);", 0)),
    ("parser-ternary", *_f_of_x("return x ? 1 : 2;", 0, 7)),
    ("parser-null", *_f_of_x("return NULL;", 0)),
    ("parser-unary", *_f_of_x("return -x + !x + ~x;", 0, 9)),
    ("strncat-flood", STRNCAT_FLOOD, [("flood", (b"x" * 200,))]),
    ("strchr-flood-hit", STRCHR_FLOOD, [("flood", (ord("A"),))]),
    ("sprintf-flood", SPRINTF_FLOOD, [("flood", (b"m" * 150, 7)), ("flood", (b"a", 3))]),
    ("scanner", SCANNER_SOURCE.format(size=12),
     [("prepare", (20, 7)), ("scan_plain", ()), ("terminate", (5,)), ("scan_consume", ())]),
    ("copy", COPY_SOURCE.format(src_size=24, dst_size=8),
     [("seed", (20, 65)), ("terminate", (19,)), ("copy", ())]),
    ("copy-unterminated", COPY_SOURCE.format(src_size=8, dst_size=8),
     [("seed", (8, 65)), ("copy", ())]),
    ("fill", FILL_SOURCE.format(size=16, start=4),
     [("fill_while", (20, 9)), ("fill_for", (20, 3)), ("fill_while", (-1, 7))]),
    ("uaf", UAF_SOURCE.format(), [("uaf_fill_then_scan", (8, 12, 5))]),
    ("cli-demo", MINIC_DEMO, [("main", ())]),
    ("figure1", FIGURE1_SOURCE, [("utf8_to_utf7", (name, len(name))) for name in (
        b"INBOX", "café".encode("utf-8"), b"\xc1\x80", b"a&b",
        mutt_attack_folder_name(60))]),
]

# The redirect policy's ``strchr`` orbit (``tests/test_minic_stdlib_floods.py``)
# is left out: it spends a million iterations inside the builtin, which both
# evaluators share, and none in the evaluator.
CORPUS.append(("strchr-flood-miss", STRCHR_FLOOD, [("flood", (ord("Z"),))]))
STRCHR_MISS_POLICIES = [name for name in POLICY_NAMES if name != "redirect"]


STRUCTS = """
typedef int (*unop)(int);
struct node { int value; char tag; unsigned int big; struct node *next; unop fn; };
typedef struct { unsigned char lo; char hi; } pair_t;
struct node *head;
int twice(int v) { return v * 2; }
int push(int v) {
    struct node *n;
    n = malloc(sizeof(struct node));
    n->value = v; n->tag = v + 200; n->big = 0 - v; n->next = head; n->fn = twice;
    head = n;
    return sizeof(struct node) + sizeof(pair_t);
}
int sum() {
    struct node *n; int s; int (*g)(int);
    s = 0;
    for (n = head; n; n = n->next) { g = n->fn; s += g(n->value) + n->tag; s += n->big; }
    return s;
}
int local_pair(int v) {
    pair_t p;
    p.lo = v; p.hi = v;
    return p.lo + p.hi;
}
int walk(int k) {
    struct node *n; int i;
    n = head;
    for (i = 0; i < k; i++) n = n->next;
    return n->value;
}
int bad_field() { return head->missing; }
int bad_store() { head->next = 5; return 0; }
int scalar_ptr() { head->value = head; return 0; }
int not_struct() { char *p; p = "x"; return p->value; }
int step() { struct node *n; n = head; n = n + 1; return n - head; }
"""

#: Programs for paths no other test reaches: struct layouts, pointer
#: handles, function pointers, by-value structs, runtime type errors.
EXTRA = [
    ("structs", STRUCTS, [("push", (3,)), ("push", (-4,)), ("push", (250,)), ("sum", ()),
                          ("local_pair", (300,)), ("step", ()), ("walk", (1,)), ("walk", (3,))]),
    *[(f"structs-{function}", STRUCTS, [("push", (3,)), (function, ())])
      for function in ("bad_field", "bad_store", "scalar_ptr", "not_struct")],
    ("struct-errors", """
struct ghost *g;
int unknown() { g = malloc(4); return g->x; }
int cast_unknown() { char *p; p = malloc(4); return ((struct ghost *) p)->x; }
int size_unknown() { return sizeof(struct ghost); }
""", [("unknown", ())]),
    ("struct-errors-cast", "struct ghost *g;\n"
     "int cast_unknown() { char *p; p = malloc(4); return ((struct ghost *) p)->x; }",
     [("cast_unknown", ())]),
    ("struct-errors-sizeof", "int size_unknown() { return sizeof(struct ghost); }",
     [("size_unknown", ())]),
    ("funcptr-values", """
int inc(int v) { return v + 1; }
int apply(int (*f)(int), int v) { return f(v); }
int main(void) {
    int (*f)(int);
    int r;
    f = inc;
    r = apply(f, 4) + apply(inc, 1) + (*f)(0);
    if (f == inc) r = r + 100;
    if (f != inc) r = r + 1000;
    if (!f) r = 0;
    return r + (f ? 1 : 0);
}
int bad_arith() { int (*f)(int); f = inc; return f + 1; }
int bad_unary() { int (*f)(int); f = inc; return -f; }
int bad_call() { int x; x = 3; return (*x)(1); }
""", [("main", ()), ("bad_arith", ())]),
    ("funcptr-bad-call", "int bad_call() { int x; x = 3; return (*x)(1); }", [("bad_call", ())]),
    ("funcptr-unary", "int inc(int v) { return v + 1; }\n"
     "int bad_unary() { int (*f)(int); f = inc; return -f; }", [("bad_unary", ())]),
    ("pointer-ops", """
char buf[8];
char other[8];
int main(void) {
    char *p; char *q; int r;
    p = buf; q = p + 3; r = 0;
    if (p < other) r += 1000;
    r += (other < p) * 2000 + (q == other) * 4000;
    if (q > p) r += 1;
    if (q >= p) r += 2;
    if (p < q) r += 4;
    if (p <= q) r += 8;
    if (p != q) r += 16;
    if (p == buf) r += 32;
    if (!p) r = 0;
    q = 2 + q; q = q - 1; q -= 1; q += 2;
    r += q - p;
    r += (char *) 0 == 0;
    return r;
}
int bad_add() { char *p; p = buf; return p + p; }
int bad_unary() { char *p; p = buf; return ~p; }
int store_ptr() { char *p; p = buf; *p = p; return 0; }
int div_zero() { int z; z = 0; return 5 % z; }
int mod_signs() { return (-7 % 3) + (7 % -3) * 10 + (-7 / -2) * 100; }
""", [("main", ()), ("mod_signs", ()), ("bad_add", ())]),
    ("pointer-unary", "char buf[8];\nint bad_unary() { char *p; p = buf; return ~p; }",
     [("bad_unary", ())]),
    ("pointer-store", "char buf[8];\nint store_ptr() { char *p; p = buf; *p = p; return 0; }",
     [("store_ptr", ())]),
    ("mod-zero", "int div_zero() { int z; z = 0; return 5 % z; }", [("div_zero", ())]),
    ("int-arrays", """
int table[6];
unsigned int big[2];
int fill(int n) {
    int i; int local[4];
    for (i = 0; i < n; i++) { table[i] = i * -1000; local[i & 3] = i; }
    big[0] = 0 - 1;
    return table[n - 1] + local[1] + big[0];
}
int inc_dec() {
    int *p; int v;
    p = table;
    p++; ++p; p--;
    v = (*p)++;
    v += ++table[1];
    table[2] += 5;
    *p -= 2;
    return v + table[0] + table[2];
}
""", [("fill", (6,)), ("inc_dec", ()), ("fill", (9,))]),
    ("scopes", """
int shadow;
int g = 5;
int use_before_decl() {
    int r;
    r = shadow;
    int shadow;
    shadow = 9;
    return r + shadow + g;
}
int redeclare(int n) {
    int v;
    v = 1;
    if (n) { char v; v = 300; return v; }
    return v;
}
int reassign_global() { shadow = 7; g = g * 2; return shadow + g; }
""", [("use_before_decl", ()), ("redeclare", (0,)), ("redeclare", (1,)),
      ("reassign_global", ()), ("use_before_decl", ())]),
    ("nested-goto", """
int main(void) {
    int i; int j; int n;
    n = 0;
    for (i = 0; i < 5; i++) {
        j = 0;
    again:
        j++;
        n++;
        if (j < 3) goto again;
        if (i == 3) goto done;
    }
done:
    return n * 10 + i;
}
int into_block() { goto inner; { inner: return 1; } return 2; }
""", [("main", ()), ("into_block", ())]),
]


@pytest.mark.parametrize("case_id,source,calls", [
    pytest.param(case_id, source, calls, id=case_id) for case_id, source, calls in CORPUS + EXTRA
])
def test_program_matches_the_tree_walk(case_id, source, calls):
    policies = STRCHR_MISS_POLICIES if case_id == "strchr-flood-miss" else POLICY_NAMES
    assert_same(source, calls, policies)


def test_the_corpus_compiles():
    """Every corpus program gets through the compile checks (so each one
    exercises the evaluator, not only the front end)."""
    for _, source, _ in CORPUS + EXTRA:
        compile_program(source)


def test_break_and_continue_outside_a_loop_are_rejected():
    """A ``break``/``continue`` no loop of its own function encloses is a
    compile error: at run time it would escape the callee and break or
    continue the caller's loop."""
    with pytest.raises(CompileError, match=r"^line 1, column 17: 'break' outside a loop "
                                           r"in function 'top'$"):
        compile_program("int top(void) { break; return 1; }")
    with pytest.raises(CompileError, match=r"^line 2, column 19: 'continue' outside a loop "
                                           r"in function 'skips'$"):
        compile_program("""
int skips(void) { continue; return 1; }
int main(void) { int i; for (i = 0; i < 3; i++) { skips(); } return i; }
""")
    # Inside a loop of their own function, nested in blocks and ifs, both compile.
    program = compile_program("""
int main(void) {
    int i; int n; n = 0;
    for (i = 0; i < 9; i++) { if (i == 2) { continue; } while (1) { break; } if (i > 4) break; n++; }
    return n * 10 + i;
}
""")
    assert program.instantiate(POLICY_CLASSES["standard"]()).call("main") == 45
