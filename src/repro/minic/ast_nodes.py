"""AST node definitions for the mini-C subset.

Every expression and statement node carries a ``pos`` attribute — the
``(line, column)`` of the token that started it, attached by the parser — so
compile-time and runtime diagnostics can point at the offending source line.
``pos`` is a plain class attribute rather than a dataclass field to keep
every existing positional constructor call valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class CType:
    """A (very) simplified C type: a base scalar plus a pointer depth.

    ``base`` may also be ``"struct <name>"`` (layout resolved against the
    translation unit's struct definitions) or ``"funcptr"`` (a function
    pointer — opaque, 4 bytes, callable).
    """

    base: str  # "int", "char", "unsigned char", "unsigned int", "void", "size_t"
    pointer_depth: int = 0

    @property
    def is_pointer(self) -> bool:
        return self.pointer_depth > 0

    @property
    def is_struct(self) -> bool:
        return self.base.startswith("struct ")

    @property
    def struct_name(self) -> str:
        """The tag of a ``struct ...`` base type."""
        if not self.is_struct:
            raise ValueError(f"{self} is not a struct type")
        return self.base[len("struct "):]

    @property
    def scalar_size(self) -> int:
        """Size in bytes of the base scalar (pointers are 4 bytes)."""
        if self.is_pointer:
            return 4
        if self.base in ("char", "unsigned char"):
            return 1
        if self.base == "void":
            return 1
        if self.base == "funcptr":
            return 4
        if self.is_struct:
            raise ValueError(f"sizeof({self}) needs the struct layout, not scalar_size")
        return 4

    def pointee(self) -> "CType":
        """The type pointed to (one pointer level removed)."""
        if not self.is_pointer:
            raise ValueError(f"{self} is not a pointer type")
        return CType(self.base, self.pointer_depth - 1)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.base + "*" * self.pointer_depth


# -- expressions -----------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expression nodes."""

    # (line, column) of the starting token; overwritten per instance by the
    # parser.  Class-level so positional dataclass constructors stay valid.
    pos = (0, 0)  # type: Tuple[int, int]


@dataclass
class IntLiteral(Expr):
    value: int


@dataclass
class StringLiteral(Expr):
    value: bytes


@dataclass
class Identifier(Expr):
    name: str


@dataclass
class Unary(Expr):
    op: str
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Assign(Expr):
    """``target op= value`` where op may be empty for plain assignment."""

    target: Expr
    op: str
    value: Expr


@dataclass
class IncDec(Expr):
    """``++x``, ``--x``, ``x++``, ``x--``."""

    target: Expr
    op: str
    postfix: bool


@dataclass
class Call(Expr):
    name: str
    args: List[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class Member(Expr):
    """``base.name`` (``arrow`` False) or ``base->name`` (``arrow`` True)."""

    base: Expr
    name: str
    arrow: bool = False


@dataclass
class IndirectCall(Expr):
    """A call through a computed callee (function pointer value)."""

    callee: Expr
    args: List[Expr] = field(default_factory=list)


@dataclass
class Cast(Expr):
    type: CType
    operand: Expr


@dataclass
class SizeOf(Expr):
    type: CType


@dataclass
class Ternary(Expr):
    condition: Expr
    if_true: Expr
    if_false: Expr


@dataclass
class Comma(Expr):
    """The comma operator: evaluate all, yield the last."""

    parts: List[Expr]


# -- statements ------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for statement nodes."""

    pos = (0, 0)  # type: Tuple[int, int]


@dataclass
class Declaration(Stmt):
    """A local variable declaration, possibly an array, possibly initialized."""

    type: CType
    name: str
    array_size: Optional[Expr] = None
    initializer: Optional[Expr] = None


@dataclass
class ExprStatement(Stmt):
    expr: Expr


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    condition: Expr
    then_branch: Stmt
    else_branch: Optional[Stmt] = None


@dataclass
class While(Stmt):
    condition: Expr
    body: Stmt


@dataclass
class For(Stmt):
    init: Optional[Expr]
    condition: Optional[Expr]
    step: Optional[Expr]
    body: Stmt


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Goto(Stmt):
    label: str


@dataclass
class Label(Stmt):
    name: str


@dataclass
class Empty(Stmt):
    pass


# -- lowered span operations -------------------------------------------------------
#
# Produced only by the idiom-recognition pass in :mod:`repro.minic.lower`,
# never by the parser.  Each node keeps the ``original`` loop statement so the
# interpreter can fall back to running that loop per byte whenever a runtime
# precondition (the variable actually holds a byte pointer) fails.


@dataclass
class LoweredScan(Stmt):
    """``while (*p) p++;`` — advance ``p`` to its NUL in span-sized strides."""

    pointer: str
    original: Stmt = None


@dataclass
class LoweredScanConsume(Stmt):
    """``while ((c = *p++) != 0);`` — scan past the NUL, leaving ``c`` zero."""

    var: str
    pointer: str
    original: Stmt = None


@dataclass
class LoweredCopy(Stmt):
    """``while ((*d++ = *s++) != 0);`` — the strcpy idiom, span-batched."""

    dst: str
    src: str
    original: Stmt = None


@dataclass
class LoweredFillWhile(Stmt):
    """``while (n--) *p++ = c;`` — bounded fill, one span write per run."""

    counter: str
    pointer: str
    value: Expr = None
    original: Stmt = None


@dataclass
class LoweredFillFor(Stmt):
    """``for (i = 0; i < n; i++) p[i] = c;`` — indexed bounded fill."""

    index: str
    limit: Expr
    pointer: str
    value: Expr = None
    original: Stmt = None


# -- top level -------------------------------------------------------------------


@dataclass
class Parameter:
    type: CType
    name: str


@dataclass
class StructField:
    """One scalar or pointer field of a struct (arrays are not supported)."""

    type: CType
    name: str


@dataclass
class StructDef:
    """A top-level ``struct <name> { fields };`` definition."""

    name: str
    fields: List[StructField] = field(default_factory=list)

    pos = (0, 0)  # type: Tuple[int, int]


@dataclass
class FunctionDef:
    name: str
    return_type: CType
    parameters: List[Parameter]
    body: Block

    pos = (0, 0)  # type: Tuple[int, int]


@dataclass
class GlobalVar:
    type: CType
    name: str
    array_size: Optional[Expr] = None
    initializer: Optional[Expr] = None

    pos = (0, 0)  # type: Tuple[int, int]


@dataclass
class TranslationUnit:
    """A parsed source file: structs, global variables, and function definitions."""

    globals: List[GlobalVar] = field(default_factory=list)
    functions: List[FunctionDef] = field(default_factory=list)
    structs: List[StructDef] = field(default_factory=list)

    def function(self, name: str) -> FunctionDef:
        """Look up a function definition by name."""
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(f"no function named {name!r}")

    def struct(self, name: str) -> StructDef:
        """Look up a struct definition by tag."""
        for struct in self.structs:
            if struct.name == name:
                return struct
        raise KeyError(f"no struct named {name!r}")
