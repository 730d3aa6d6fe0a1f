"""A mini-C front end, span-lowering compiler, and interpreter over the substrate.

The paper's adoption story is "recompile the same C source with a different
compiler".  This package makes that story literal inside the reproduction: a
small C-like language is lexed, preprocessed, parsed, idiom-lowered, and
run, with every variable, array, and heap block allocated in the
simulated address space and every load and store routed through the active
access policy.  The same source therefore behaves like the Standard, Bounds
Check, or Failure Oblivious build depending only on the policy the program
was *compiled* (bound) with.

The subset is real enough for the paper's server functions: ``int``/``char``/
``unsigned`` scalars, pointers, arrays, ``struct`` definitions with member
access, ``typedef``, function pointers, ``sizeof``, a minimal preprocessor
(``#define`` object macros, ``#include``-as-concatenation), imperative code
with ``if``/``while``/``for``/``goto``/``return``, function definitions and
calls, pointer arithmetic, and the libc routines the ported functions need
(``safe_malloc``, ``strlen``, ``strcpy``, ``strncat``, ``strchr``,
``sprintf``, ...).  Figure 1 (``utf8_to_utf7``) and the Pine/Sendmail
overflow sites run on it; see ``examples/mutt_figure1.py`` and
``examples/minic_servers.py``.

Each function is compiled once into Python closures
(:mod:`repro.minic.interpreter`), so a call pays for the accessor work its
loads and stores do, not for re-dispatching on every AST node.
String-walking loops (scans, strcpy-style copies, bounded fills) are
recognized by :mod:`repro.minic.lower` and executed through the bulk span
primitives — one policy decision per span or invalid run instead of per
byte — with ``compile_program(source, lower=False)`` compiling them as
per-byte loops instead: the reference path for lowering.

Public API
----------
* :func:`compile_program` — parse + check + span-lower into a
  :class:`~repro.minic.interpreter.Program`.
* :class:`~repro.minic.interpreter.Program` — bind to a policy and call functions.
"""

from repro.minic.lower import CompileError, compile_program, lowered_count
from repro.minic.interpreter import Program, MiniCRuntimeError
from repro.minic.lexer import tokenize, Token, TokenType
from repro.minic.parser import parse

__all__ = [
    "compile_program",
    "CompileError",
    "lowered_count",
    "Program",
    "MiniCRuntimeError",
    "tokenize",
    "Token",
    "TokenType",
    "parse",
]
