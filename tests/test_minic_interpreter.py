"""Tests for the mini-C interpreter and its libc builtins."""

import pytest

from repro.core.policies import BoundsCheckPolicy, FailureObliviousPolicy, StandardPolicy
from repro.errors import BoundsCheckViolation, InfiniteLoopGuard
from repro.minic import ast_nodes as ast
from repro.minic import compile_program
from repro.minic import interpreter
from repro.minic.lower import CompileError
from repro.minic.interpreter import MiniCRuntimeError


def run(source, function="main", *args, policy=None):
    program = compile_program(source)
    instance = program.instantiate(policy or FailureObliviousPolicy())
    return instance, instance.call(function, *args)


class TestScalarsAndControlFlow:
    def test_arithmetic(self):
        _, result = run("int main(void) { return (2 + 3) * 4 - 6 / 2; }")
        assert result == 17

    def test_division_truncates_toward_zero(self):
        _, result = run("int main(void) { return -7 / 2; }")
        assert result == -3

    def test_bitwise_and_shifts(self):
        _, result = run("int main(void) { return (0xF0 >> 4) | (1 << 3); }")
        assert result == 0x0F | 8

    def test_comparisons_and_logic(self):
        _, result = run("int main(void) { return (1 < 2) && (3 != 4) && !(5 == 6); }")
        assert result == 1

    def test_short_circuit_does_not_evaluate_rhs(self):
        source = """
        int side(void) { return 1 / 0; }
        int main(void) { return 0 && side(); }
        """
        _, result = run(source)
        assert result == 0

    def test_if_else(self):
        _, result = run("int main(void) { int x = 3; if (x > 2) return 10; else return 20; }")
        assert result == 10

    def test_while_loop(self):
        _, result = run("int main(void) { int i = 0; int s = 0; while (i < 5) { s += i; i++; } return s; }")
        assert result == 10

    def test_for_loop(self):
        _, result = run("int main(void) { int s = 0; int i; for (i = 0; i < 4; i++) s += i; return s; }")
        assert result == 6

    def test_break_and_continue(self):
        source = """
        int main(void) {
            int s = 0; int i;
            for (i = 0; i < 10; i++) {
                if (i == 3) continue;
                if (i == 6) break;
                s += i;
            }
            return s;
        }
        """
        _, result = run(source)
        assert result == 0 + 1 + 2 + 4 + 5

    def test_goto_forward(self):
        source = """
        int main(void) {
            int x = 1;
            goto done;
            x = 99;
        done:
            return x;
        }
        """
        _, result = run(source)
        assert result == 1

    def test_goto_out_of_loop(self):
        source = """
        int main(void) {
            int i;
            for (i = 0; i < 100; i++) {
                if (i == 7) goto out;
            }
        out:
            return i;
        }
        """
        _, result = run(source)
        assert result == 7

    def test_ternary(self):
        _, result = run("int main(void) { int x = 5; return x > 3 ? 1 : 2; }")
        assert result == 1

    def test_comma_expression(self):
        _, result = run("int main(void) { int a; int b; a = 1, b = 2; return a + b; }")
        assert result == 3

    def test_char_truncation_on_assignment(self):
        _, result = run("int main(void) { unsigned char c = 300; return c; }")
        assert result == 300 & 0xFF

    def test_signed_char_sign_extension(self):
        _, result = run("int main(void) { char c = 0xff; return c; }")
        assert result == -1

    def test_infinite_loop_guard(self):
        with pytest.raises(InfiniteLoopGuard):
            run("int main(void) { while (1) ; return 0; }")

    def test_function_calls_and_recursion(self):
        source = """
        int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
        int main(void) { return fib(10); }
        """
        _, result = run(source)
        assert result == 55


class TestPointersAndMemory:
    def test_local_array_store_and_load(self):
        source = """
        int main(void) {
            char buf[8];
            buf[0] = 'h'; buf[1] = 'i'; buf[2] = 0;
            return buf[0] + buf[1];
        }
        """
        _, result = run(source)
        assert result == ord("h") + ord("i")

    def test_pointer_walk_over_argument_string(self):
        source = """
        int count(const char *s) {
            int n = 0;
            while (*s) { n++; s++; }
            return n;
        }
        """
        _, result = run(source, "count", b"hello world")
        assert result == 11

    def test_strlen_builtin_matches_manual_count(self):
        source = "int f(const char *s) { return strlen(s); }"
        _, result = run(source, "f", b"four")
        assert result == 4

    def test_malloc_strcpy_roundtrip(self):
        source = """
        char *dup(const char *s) {
            char *copy = malloc(strlen(s) + 1);
            strcpy(copy, s);
            return copy;
        }
        """
        instance, result = run(source, "dup", b"duplicate me")
        assert instance.read_string(result) == b"duplicate me"

    def test_string_literal_global(self):
        source = """
        static char *alphabet = "abcdef";
        int pick(int i) { return alphabet[i]; }
        """
        _, result = run(source, "pick", 2)
        assert result == ord("c")

    def test_pointer_difference(self):
        source = """
        int length(const char *s) {
            const char *p = s;
            while (*p) p++;
            return p - s;
        }
        """
        _, result = run(source, "length", b"12345")
        assert result == 5

    def test_buffer_overflow_is_policy_governed(self):
        source = """
        int smash(void) {
            char buf[4];
            int i;
            for (i = 0; i < 32; i++) buf[i] = 'A';
            return 0;
        }
        """
        program = compile_program(source)
        oblivious = program.instantiate(FailureObliviousPolicy())
        assert oblivious.call("smash") == 0
        assert oblivious.ctx.error_log.count_writes() > 0
        checked = program.instantiate(BoundsCheckPolicy())
        with pytest.raises(BoundsCheckViolation):
            checked.call("smash")

    def test_memset_and_memcpy_builtins(self):
        source = """
        int f(void) {
            char a[8];
            char b[8];
            memset(a, 'x', 8);
            memcpy(b, a, 8);
            return b[7];
        }
        """
        _, result = run(source, "f")
        assert result == ord("x")

    def test_free_and_realloc_builtins(self):
        source = """
        int f(void) {
            char *p = malloc(4);
            p[0] = 'a';
            p = realloc(p, 16);
            free(p);
            return 0;
        }
        """
        instance, result = run(source, "f")
        assert result == 0
        assert instance.ctx.heap.frees >= 1

    def test_putchar_and_puts_capture_output(self):
        source = """
        int main(void) {
            putchar('o'); putchar('k');
            puts("done");
            return 0;
        }
        """
        instance, _ = run(source)
        assert bytes(instance.output) == b"okdone\n"

    def test_dereferencing_integer_is_an_error(self):
        with pytest.raises(MiniCRuntimeError):
            run("int main(void) { int x = 3; return *x; }")

    def test_address_of_reports_unsupported(self):
        with pytest.raises(MiniCRuntimeError):
            run("int main(void) { int x = 3; return &x; }")

    def test_undefined_variable_is_an_error(self):
        with pytest.raises(MiniCRuntimeError):
            run("int main(void) { return nowhere; }")

    def test_wrong_arity_is_an_error(self):
        program = compile_program("int f(int a) { return a; }")
        instance = program.instantiate(FailureObliviousPolicy())
        with pytest.raises(MiniCRuntimeError):
            instance.call("f", 1, 2)


class TestCallResolution:
    """A program-defined function wins over a builtin of the same name,
    whether it is called directly or through a function pointer."""

    SOURCE = """
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

    def test_direct_call_reaches_the_program_function(self):
        _, result = run(self.SOURCE, "direct", b"abc")
        assert result == 42

    def test_pointer_call_reaches_the_program_function(self):
        _, result = run(self.SOURCE, "through_pointer", b"abc")
        assert result == 42

    def test_unshadowed_builtin_still_resolves(self):
        _, result = run(self.SOURCE, "builtin_through_pointer", b"abc")
        assert result == 0


class TestArgumentStrings:
    """``call`` frees the strings it made for ``bytes`` arguments when the
    call returns, except those the program can still reach."""

    SOURCE = """
    struct node { char *name; };
    char *kept;
    struct node *held;
    int peek(char *s) { return s[0]; }
    char *tail(char *s) { return s + 1; }
    int keep(char *s) { kept = s; return 0; }
    int store(char *s) {
        held = malloc(sizeof(struct node));
        held->name = s;
        return 0;
    }
    int drop(char *s) { free(s); return 0; }
    int overrun(char *s) { return s[100]; }
    """

    @staticmethod
    def _live_arguments(instance):
        return [unit.name for unit in instance.ctx.heap.live_allocations()
                if unit.name.startswith("arg:")]

    def test_unreached_arguments_are_freed(self):
        instance, result = run(self.SOURCE, "peek", b"xyz")
        assert result == ord("x")
        assert self._live_arguments(instance) == []
        for _ in range(10):
            instance.call("peek", b"xyz")
        assert self._live_arguments(instance) == []

    @pytest.mark.parametrize("function", ["tail", "keep", "store"])
    def test_reached_arguments_stay_allocated(self, function):
        instance, _ = run(self.SOURCE, function, b"xyz")
        assert self._live_arguments(instance) == ["arg:s"]

    def test_an_argument_the_program_freed_is_not_freed_again(self):
        instance, result = run(self.SOURCE, "drop", b"xyz")
        assert result == 0
        assert self._live_arguments(instance) == []

    def test_a_call_that_raises_frees_nothing(self):
        program = compile_program(self.SOURCE)
        instance = program.instantiate(BoundsCheckPolicy())
        with pytest.raises(BoundsCheckViolation):
            instance.call("overrun", b"xyz")
        assert self._live_arguments(instance) == ["arg:s"]


class TestLoopBudget:
    """``LOOP_LIMIT`` is read when a loop starts, not when the program is
    compiled: a budget set after compiling bounds every loop kind."""

    SOURCE = """
    char buf[64];
    int count_while(int n) { int i = 0; while (i < n) i++; return i; }
    int count_for(int n) { int i; int s = 0; for (i = 0; i < n; i++) s++; return s; }
    int fill(int n) { char *p; p = buf; while (n--) *p++ = 'a'; return 0; }
    int scan(int n) {
        char *p;
        memset(buf, 'a', n);
        buf[n] = 0;
        p = buf;
        while (*p) p++;
        return p - buf;
    }
    """
    BUDGET = 37

    @pytest.fixture
    def instance(self):
        program = compile_program(self.SOURCE)
        kinds = {type(node) for function in program.unit.functions
                 for node in function.body.statements}
        assert {ast.LoweredFillWhile, ast.LoweredScan} <= kinds
        instance = program.instantiate(FailureObliviousPolicy())
        original = interpreter.LOOP_LIMIT
        interpreter.LOOP_LIMIT = self.BUDGET
        yield instance
        interpreter.LOOP_LIMIT = original

    @pytest.mark.parametrize("function,kind", [
        ("count_while", "while"), ("count_for", "for"), ("fill", "while"),
    ])
    def test_loop_stops_at_the_new_budget(self, instance, function, kind):
        instance.call(function, self.BUDGET)
        with pytest.raises(InfiniteLoopGuard, match=f"^{kind} loop exceeded its iteration budget$"):
            instance.call(function, self.BUDGET + 1)

    def test_lowered_scan_stops_at_the_new_budget(self, instance):
        assert instance.call("scan", self.BUDGET) == self.BUDGET
        # ``memset`` runs no mini-C loop, so the scan over its BUDGET + 1
        # non-NUL bytes is what runs out.
        with pytest.raises(InfiniteLoopGuard, match="^while loop exceeded its iteration budget$"):
            instance.call("scan", self.BUDGET + 1)


class TestCompileChecks:
    def test_undefined_callee_rejected_at_compile_time(self):
        with pytest.raises(CompileError):
            compile_program("int main(void) { return missing(); }")

    def test_duplicate_function_rejected(self):
        with pytest.raises(CompileError):
            compile_program("int f(void) { return 1; } int f(void) { return 2; }")

    def test_builtins_do_not_count_as_undefined(self):
        program = compile_program("int f(const char *s) { return strlen(s); }")
        assert program.function_names() == ["f"]

    def test_program_runs_identically_across_instances(self):
        program = compile_program("int main(void) { return 7; }")
        assert program.instantiate(StandardPolicy()).call("main") == 7
        assert program.instantiate(FailureObliviousPolicy()).call("main") == 7
