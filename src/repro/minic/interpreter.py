"""Tree-walking interpreter executing mini-C over the simulated memory substrate.

Design notes
------------
* Scalar and pointer variables live in an interpreter-side environment;
  arrays, string literals, and heap allocations live in the simulated address
  space, and every element access goes through the policy-mediated accessor.
  This keeps the interpreter small while preserving the property the paper
  cares about: the consequences of an out-of-bounds access are decided by the
  build variant, not by the interpreter.
* Pointers are :class:`TypedPointer` values — a fat pointer plus the pointee
  size — so pointer arithmetic scales correctly and dereferences know how many
  bytes to touch.
* ``goto`` is supported for labels declared at any enclosing block level
  (enough for the paper's ``goto bail`` idiom); loops carry an iteration
  budget so a failure-oblivious run whose manufactured values never satisfy a
  loop condition surfaces as :class:`~repro.errors.InfiniteLoopGuard` instead
  of hanging the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.policy import AccessPolicy
from repro.errors import InfiniteLoopGuard, MiniCError, frozen_record
from repro.memory import cstring
from repro.memory.context import MemoryContext
from repro.memory.pointer import FatPointer
from repro.minic import ast_nodes as ast
from repro.minic.stdlib import BUILTINS

#: Iteration budget per loop construct.
LOOP_LIMIT = 1_000_000


class MiniCRuntimeError(MiniCError):
    """Raised for dynamic errors in interpreted programs (not memory errors)."""


def _position_prefix(node) -> str:
    """``"line L, column C: "`` when the node carries a parser position."""
    pos = getattr(node, "pos", (0, 0)) if node is not None else (0, 0)
    if pos and pos != (0, 0):
        return f"line {pos[0]}, column {pos[1]}: "
    return ""


@frozen_record
class TypedPointer:
    """A pointer value: a fat pointer plus the size of what it points to.

    ``ctype`` optionally records the pointee's declared C type; it is what
    lets ``p->field`` resolve a struct layout at runtime.  Pointer arithmetic
    preserves it (an element step over a struct array stays struct-typed).
    """

    pointer: FatPointer
    elem_size: int = 1
    ctype: Optional[ast.CType] = None

    @property
    def is_null(self) -> bool:
        return self.pointer.is_null

    def offset_by(self, elements: int) -> "TypedPointer":
        elem_size = self.elem_size
        return TypedPointer(self.pointer + elements * elem_size, elem_size, self.ctype)


@dataclass(frozen=True)
class FunctionRef:
    """A function-pointer value: the name of a program or builtin function."""

    name: str


NULL_POINTER = TypedPointer(FatPointer.null(), 1)

Value = Union[int, TypedPointer, FunctionRef]

#: Struct pointer/function-pointer fields live in simulated memory as 4-byte
#: *handles* into a per-instance table.  Handle 0 is NULL; handles the table
#: does not know (zero-fill, attack corruption, manufactured values) decode to
#: NULL, so a failure-oblivious run degrades instead of faulting the VM.
_HANDLE_BASE = 0x40000001


@dataclass
class VarSlot:
    """One environment entry: the current value and the declared type."""

    value: Value
    type: ast.CType


class _ReturnSignal(Exception):
    def __init__(self, value: Value) -> None:
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _GotoSignal(Exception):
    def __init__(self, label: str) -> None:
        self.label = label


def _truncate(value: Value, ctype: ast.CType) -> Value:
    """Apply C conversion rules when storing into a typed slot."""
    if isinstance(value, (TypedPointer, FunctionRef)) or ctype.is_pointer or ctype.base == "funcptr":
        return value
    if ctype.base == "char":
        value &= 0xFF
        return value - 256 if value >= 128 else value
    if ctype.base == "unsigned char":
        return value & 0xFF
    if ctype.base == "unsigned int":
        return value & 0xFFFFFFFF
    # plain int: wrap to 32-bit two's complement
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= (1 << 31) else value


@dataclass(frozen=True)
class StructLayout:
    """Packed byte layout of one struct: total size plus per-field placement."""

    name: str
    size: int
    #: field name -> (byte offset, declared type, stored size in bytes)
    fields: Dict[str, Tuple[int, ast.CType, int]]


class ProgramInstance:
    """One program bound to one memory context (one "compiled" process image)."""

    def __init__(self, unit: ast.TranslationUnit, ctx: MemoryContext) -> None:
        self.unit = unit
        self.ctx = ctx
        self.globals: Dict[str, VarSlot] = {}
        #: Bytes emitted by the ``putchar``/``puts`` builtins, for tests.
        self.output = bytearray()
        self._string_cache: Dict[bytes, TypedPointer] = {}
        self._layouts: Dict[str, StructLayout] = {}
        # Pointer-handle registry: struct pointer/funcptr fields are stored in
        # simulated memory as opaque 4-byte handles into this table.
        self._handles: Dict[int, Value] = {}
        self._handle_ids: Dict[Value, int] = {}
        self._next_handle = _HANDLE_BASE
        self._initialize_globals()

    # -- struct layouts and pointer handles -----------------------------------------

    def _layout(self, name: str, node=None) -> StructLayout:
        """Resolve (and cache) the packed layout of ``struct name``."""
        cached = self._layouts.get(name)
        if cached is not None:
            return cached
        try:
            definition = self.unit.struct(name)
        except KeyError:
            raise MiniCRuntimeError(
                f"{_position_prefix(node)}unknown struct {name!r}"
            ) from None
        fields: Dict[str, Tuple[int, ast.CType, int]] = {}
        offset = 0
        for field_def in definition.fields:
            ftype = field_def.type
            if ftype.is_pointer or ftype.base == "funcptr":
                size = 4
            elif ftype.is_struct:
                raise MiniCRuntimeError(
                    f"{_position_prefix(node)}by-value struct field "
                    f"{field_def.name!r} in struct {name!r} is not supported "
                    "(use a pointer field)"
                )
            else:
                size = ftype.scalar_size
            fields[field_def.name] = (offset, ftype, size)
            offset += size
        layout = StructLayout(name=name, size=max(offset, 1), fields=fields)
        self._layouts[name] = layout
        return layout

    def _type_size(self, ctype: ast.CType, node=None) -> int:
        """Size in bytes of a value of ``ctype`` when stored in memory."""
        if ctype.is_pointer or ctype.base == "funcptr":
            return 4
        if ctype.is_struct:
            return self._layout(ctype.struct_name, node=node).size
        return ctype.scalar_size

    def _retype_pointer(self, value: Value, ctype: ast.CType, node=None) -> Value:
        """Re-view a pointer value through a declared pointer type.

        C pointer conversions change the element stride: assigning a
        ``malloc`` result to ``struct address *`` makes ``p + 1`` step a
        whole struct and gives ``p->field`` its layout.  Non-pointer values
        and NULL pass through unchanged.
        """
        if not isinstance(value, TypedPointer) or not ctype.is_pointer or value.is_null:
            return value
        pointee = ctype.pointee()
        size = self._type_size(pointee, node=node)
        struct_type = ast.CType(pointee.base, 0) if pointee.is_struct and not pointee.is_pointer else None
        if value.elem_size == size and value.ctype == struct_type:
            return value
        return TypedPointer(value.pointer, size, struct_type)

    def _encode_ref(self, value: Value, node=None) -> int:
        """Handle for storing a pointer/function value into simulated memory."""
        if isinstance(value, int):
            if value == 0:
                return 0
            raise MiniCRuntimeError(
                f"{_position_prefix(node)}cannot store a plain integer into a pointer field"
            )
        if isinstance(value, TypedPointer) and value.is_null:
            return 0
        handle = self._handle_ids.get(value)
        if handle is None:
            handle = self._next_handle
            self._next_handle += 1
            self._handle_ids[value] = handle
            self._handles[handle] = value
        return handle

    def _decode_ref(self, raw: int, ctype: ast.CType) -> Value:
        """Value for a 4-byte handle read back out of simulated memory.

        Unknown handles — zero-initialized fields, bytes clobbered by an
        overflow, values manufactured by failure-oblivious reads — decode to
        NULL so the program sees a null pointer rather than the VM faulting.
        """
        value = self._handles.get(raw & 0xFFFFFFFF)
        if value is None:
            return NULL_POINTER
        return value

    def handle_state(self) -> tuple:
        """Snapshot of the handle registry (for server checkpoint/restore)."""
        return dict(self._handles), dict(self._handle_ids), self._next_handle

    def restore_handle_state(self, state: tuple) -> None:
        """Restore a snapshot taken by :meth:`handle_state`."""
        handles, handle_ids, next_handle = state
        self._handles = dict(handles)
        self._handle_ids = dict(handle_ids)
        self._next_handle = next_handle

    # -- setup ----------------------------------------------------------------------

    def _initialize_globals(self) -> None:
        for declaration in self.unit.globals:
            value: Value
            if declaration.initializer is not None:
                value = self._retype_pointer(
                    self._eval(declaration.initializer, {}), declaration.type, node=declaration
                )
            elif declaration.array_size is not None:
                size = self._eval(declaration.array_size, {})
                elem_type = ast.CType(declaration.type.base, declaration.type.pointer_depth)
                elem = self._type_size(elem_type, node=declaration)
                unit = self.ctx.heap.malloc(int(size) * elem, name=f"global:{declaration.name}")
                self.ctx.mem.zero_unit(unit)
                value = TypedPointer(
                    FatPointer(unit), elem, elem_type if elem_type.is_struct else None
                )
            else:
                value = 0 if not declaration.type.is_pointer else NULL_POINTER
            slot_type = declaration.type
            if declaration.array_size is not None or isinstance(value, TypedPointer):
                slot_type = ast.CType(declaration.type.base, max(declaration.type.pointer_depth, 1))
            self.globals[declaration.name] = VarSlot(value=value, type=slot_type)

    def alloc_string(self, data: bytes, name: str = "argument") -> TypedPointer:
        """Allocate a NUL-terminated byte string in the instance's heap."""
        pointer = self.ctx.alloc_c_string(data, name=name)
        return TypedPointer(pointer, 1)

    def read_string(self, value: Union[TypedPointer, FatPointer]) -> bytes:
        """Read a NUL-terminated string result back into Python bytes."""
        pointer = value.pointer if isinstance(value, TypedPointer) else value
        return self.ctx.read_c_string(pointer)

    # -- calls ----------------------------------------------------------------------

    def call(self, name: str, *args: Union[int, bytes, TypedPointer, FatPointer]) -> Value:
        """Call a function defined in the program.

        ``bytes`` arguments are automatically materialized as NUL-terminated
        strings in simulated memory; integers and pointers pass straight
        through.
        """
        function = self.unit.function(name)
        if len(args) != len(function.parameters):
            raise MiniCRuntimeError(
                f"{name} expects {len(function.parameters)} argument(s), got {len(args)}"
            )
        env: Dict[str, VarSlot] = {}
        for parameter, raw in zip(function.parameters, args):
            value: Value
            if isinstance(raw, bytes):
                value = self.alloc_string(raw, name=f"arg:{parameter.name}")
            elif isinstance(raw, FatPointer):
                value = self._retype_pointer(TypedPointer(raw, 1), parameter.type)
            else:
                value = self._retype_pointer(raw, parameter.type)
            env[parameter.name] = VarSlot(value=_truncate(value, parameter.type), type=parameter.type)
        try:
            self._exec_block(function.body, env)
        except _ReturnSignal as signal:
            return signal.value
        except _GotoSignal as signal:
            raise MiniCRuntimeError(f"goto to unknown label {signal.label!r}") from None
        return 0

    # -- statement execution -----------------------------------------------------------

    def _exec_block(self, block: ast.Block, env: Dict[str, VarSlot]) -> None:
        self._exec_statements(block.statements, env)

    def _exec_statements(self, statements: List[ast.Stmt], env: Dict[str, VarSlot]) -> None:
        index = 0
        while index < len(statements):
            try:
                self._exec(statements[index], env)
            except _GotoSignal as signal:
                target = self._find_label(statements, signal.label)
                if target is None:
                    raise
                index = target
                continue
            index += 1

    @staticmethod
    def _find_label(statements: List[ast.Stmt], label: str) -> Optional[int]:
        for position, statement in enumerate(statements):
            if isinstance(statement, ast.Label) and statement.name == label:
                return position
        return None

    def _exec(self, statement: ast.Stmt, env: Dict[str, VarSlot]) -> None:
        if isinstance(statement, ast.Block):
            self._exec_statements(statement.statements, env)
        elif isinstance(statement, ast.Declaration):
            self._exec_declaration(statement, env)
        elif isinstance(statement, ast.ExprStatement):
            self._eval(statement.expr, env)
        elif isinstance(statement, ast.If):
            if self._truthy(self._eval(statement.condition, env)):
                self._exec(statement.then_branch, env)
            elif statement.else_branch is not None:
                self._exec(statement.else_branch, env)
        elif isinstance(statement, ast.While):
            iterations = 0
            while self._truthy(self._eval(statement.condition, env)):
                iterations += 1
                if iterations > LOOP_LIMIT:
                    raise InfiniteLoopGuard("while loop exceeded its iteration budget")
                try:
                    self._exec(statement.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(statement, ast.For):
            if statement.init is not None:
                self._eval(statement.init, env)
            iterations = 0
            while statement.condition is None or self._truthy(self._eval(statement.condition, env)):
                iterations += 1
                if iterations > LOOP_LIMIT:
                    raise InfiniteLoopGuard("for loop exceeded its iteration budget")
                try:
                    self._exec(statement.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if statement.step is not None:
                    self._eval(statement.step, env)
        elif isinstance(statement, ast.Return):
            value = self._eval(statement.value, env) if statement.value is not None else 0
            raise _ReturnSignal(value)
        elif isinstance(statement, ast.Break):
            raise _BreakSignal()
        elif isinstance(statement, ast.Continue):
            raise _ContinueSignal()
        elif isinstance(statement, ast.Goto):
            raise _GotoSignal(statement.label)
        elif isinstance(statement, (ast.Label, ast.Empty)):
            return
        elif isinstance(statement, ast.LoweredScan):
            self._exec_lowered_scan(statement, env)
        elif isinstance(statement, ast.LoweredScanConsume):
            self._exec_lowered_scan_consume(statement, env)
        elif isinstance(statement, ast.LoweredCopy):
            self._exec_lowered_copy(statement, env)
        elif isinstance(statement, ast.LoweredFillWhile):
            self._exec_lowered_fill_while(statement, env)
        elif isinstance(statement, ast.LoweredFillFor):
            self._exec_lowered_fill_for(statement, env)
        else:  # pragma: no cover - parser cannot produce other nodes
            raise MiniCRuntimeError(f"unsupported statement {type(statement).__name__}")

    # -- lowered span operations ---------------------------------------------------------
    #
    # Each handler checks its runtime preconditions (the matched variables
    # actually hold byte pointers / integers) and otherwise tree-walks the
    # preserved ``original`` loop, so lowering can never change meaning — only
    # batch the policy decisions.  Guard semantics match the tree-walk loops
    # byte for byte: the span paths consume exactly LOOP_LIMIT + 1 elements
    # before raising the same InfiniteLoopGuard the per-byte loop would.

    def _byte_pointer_slot(self, name: str, env: Dict[str, VarSlot]) -> Optional[VarSlot]:
        slot = self._find_slot(name, env)
        if slot is None or not isinstance(slot.value, TypedPointer) or slot.value.elem_size != 1:
            return None
        return slot

    def _exec_lowered_scan(self, statement: ast.LoweredScan, env: Dict[str, VarSlot]) -> None:
        slot = self._byte_pointer_slot(statement.pointer, env)
        if slot is None:
            self._exec(statement.original, env)
            return
        pointer: TypedPointer = slot.value
        try:
            length = cstring.strlen(self.ctx.mem, pointer.pointer, limit=LOOP_LIMIT)
        except InfiniteLoopGuard:
            raise InfiniteLoopGuard("while loop exceeded its iteration budget") from None
        slot.value = pointer.offset_by(length)

    def _exec_lowered_scan_consume(
        self, statement: ast.LoweredScanConsume, env: Dict[str, VarSlot]
    ) -> None:
        pointer_slot = self._byte_pointer_slot(statement.pointer, env)
        var_slot = self._find_slot(statement.var, env)
        if pointer_slot is None or var_slot is None:
            self._exec(statement.original, env)
            return
        pointer: TypedPointer = pointer_slot.value
        try:
            length = cstring.strlen(self.ctx.mem, pointer.pointer, limit=LOOP_LIMIT)
        except InfiniteLoopGuard:
            raise InfiniteLoopGuard("while loop exceeded its iteration budget") from None
        pointer_slot.value = pointer.offset_by(length + 1)
        var_slot.value = _truncate(0, var_slot.type)

    def _exec_lowered_copy(self, statement: ast.LoweredCopy, env: Dict[str, VarSlot]) -> None:
        dst_slot = self._byte_pointer_slot(statement.dst, env)
        src_slot = self._byte_pointer_slot(statement.src, env)
        if dst_slot is None or src_slot is None:
            self._exec(statement.original, env)
            return
        dst: TypedPointer = dst_slot.value
        src: TypedPointer = src_slot.value
        try:
            copied = cstring.copy_c_string(
                self.ctx.mem, dst.pointer, src.pointer, limit=LOOP_LIMIT
            )
        except InfiniteLoopGuard:
            raise InfiniteLoopGuard("while loop exceeded its iteration budget") from None
        dst_slot.value = dst.offset_by(copied)
        src_slot.value = src.offset_by(copied)

    def _fill_span(self, pointer: TypedPointer, value: int, count: int) -> None:
        """Write ``count`` copies of one byte, one policy decision per span/run."""
        if count <= 0:
            return
        cstring.write_bytes(self.ctx.mem, pointer.pointer, bytes([value & 0xFF]) * count)

    def _lowered_fill_value(self, expr: Optional[ast.Expr], env: Dict[str, VarSlot]):
        if expr is None:
            return None
        value = self._eval(expr, env)
        return value if isinstance(value, int) else None

    def _exec_lowered_fill_while(
        self, statement: ast.LoweredFillWhile, env: Dict[str, VarSlot]
    ) -> None:
        counter_slot = self._find_slot(statement.counter, env)
        pointer_slot = self._byte_pointer_slot(statement.pointer, env)
        fill = self._lowered_fill_value(statement.value, env)
        if (
            counter_slot is None
            or pointer_slot is None
            or fill is None
            or not isinstance(counter_slot.value, int)
        ):
            self._exec(statement.original, env)
            return
        count = counter_slot.value
        pointer: TypedPointer = pointer_slot.value
        # A negative (or budget-exceeding) counter stays truthy through the
        # whole budget: the loop writes LOOP_LIMIT bytes, then the guard fires.
        runaway = count < 0 or count > LOOP_LIMIT
        written = LOOP_LIMIT if runaway else count
        self._fill_span(pointer, fill, written)
        if runaway:
            raise InfiniteLoopGuard("while loop exceeded its iteration budget")
        counter_slot.value = _truncate(-1, counter_slot.type)
        pointer_slot.value = pointer.offset_by(written)

    def _exec_lowered_fill_for(
        self, statement: ast.LoweredFillFor, env: Dict[str, VarSlot]
    ) -> None:
        index_slot = self._find_slot(statement.index, env)
        pointer_slot = self._byte_pointer_slot(statement.pointer, env)
        fill = self._lowered_fill_value(statement.value, env)
        limit = self._lowered_fill_value(statement.limit, env)
        if index_slot is None or pointer_slot is None or fill is None or limit is None:
            self._exec(statement.original, env)
            return
        pointer: TypedPointer = pointer_slot.value
        runaway = limit > LOOP_LIMIT
        written = LOOP_LIMIT if runaway else max(limit, 0)
        self._fill_span(pointer, fill, written)
        if runaway:
            raise InfiniteLoopGuard("for loop exceeded its iteration budget")
        index_slot.value = _truncate(max(limit, 0), index_slot.type)

    def _exec_declaration(self, declaration: ast.Declaration, env: Dict[str, VarSlot]) -> None:
        if declaration.array_size is not None:
            length = int(self._eval(declaration.array_size, env))
            elem_type = ast.CType(declaration.type.base, declaration.type.pointer_depth)
            elem = self._type_size(elem_type, node=declaration)
            unit = self.ctx.stack.alloc_local(declaration.name, max(length * elem, 1)) \
                if self.ctx.stack.depth else self.ctx.heap.malloc(max(length * elem, 1), name=declaration.name)
            value: Value = TypedPointer(
                FatPointer(unit), elem, elem_type if elem_type.is_struct else None
            )
            env[declaration.name] = VarSlot(value=value, type=ast.CType(declaration.type.base, 1))
            return
        if declaration.type.is_struct and not declaration.type.is_pointer:
            # A by-value struct local: storage lives in simulated memory and
            # the slot holds a struct-typed pointer to it, so ``a.field``
            # resolves the layout and ``a`` decays where a pointer is needed.
            layout = self._layout(declaration.type.struct_name, node=declaration)
            unit = self.ctx.stack.alloc_local(declaration.name, layout.size) \
                if self.ctx.stack.depth else self.ctx.heap.malloc(layout.size, name=declaration.name)
            self.ctx.mem.zero_unit(unit)
            env[declaration.name] = VarSlot(
                value=TypedPointer(FatPointer(unit), layout.size, declaration.type),
                type=declaration.type,
            )
            return
        if declaration.initializer is not None:
            value = self._retype_pointer(
                self._eval(declaration.initializer, env), declaration.type, node=declaration
            )
        else:
            value = NULL_POINTER if declaration.type.is_pointer else 0
        env[declaration.name] = VarSlot(value=_truncate(value, declaration.type), type=declaration.type)

    # -- expression evaluation ------------------------------------------------------------

    def _truthy(self, value: Value) -> bool:
        if isinstance(value, TypedPointer):
            return not value.is_null
        if isinstance(value, FunctionRef):
            return True
        return value != 0

    def _error(self, message: str, node=None) -> MiniCRuntimeError:
        return MiniCRuntimeError(f"{_position_prefix(node)}{message}")

    def _find_slot(self, name: str, env: Dict[str, VarSlot]) -> Optional[VarSlot]:
        if name in env:
            return env[name]
        return self.globals.get(name)

    def _is_function_name(self, name: str) -> bool:
        return name in BUILTINS or any(f.name == name for f in self.unit.functions)

    def _lookup(self, name: str, env: Dict[str, VarSlot], node=None) -> VarSlot:
        slot = self._find_slot(name, env)
        if slot is None:
            raise self._error(f"undefined variable {name!r}", node)
        return slot

    def _eval(self, expr: ast.Expr, env: Dict[str, VarSlot]) -> Value:
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.StringLiteral):
            return self._string_literal(expr.value)
        if isinstance(expr, ast.Identifier):
            slot = self._find_slot(expr.name, env)
            if slot is not None:
                return slot.value
            if self._is_function_name(expr.name):
                # A bare function name evaluates to a function-pointer value.
                return FunctionRef(expr.name)
            raise self._error(f"undefined variable {expr.name!r}", expr)
        if isinstance(expr, ast.Comma):
            result: Value = 0
            for part in expr.parts:
                result = self._eval(part, env)
            return result
        if isinstance(expr, ast.Assign):
            return self._eval_assign(expr, env)
        if isinstance(expr, ast.IncDec):
            return self._eval_incdec(expr, env)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, env)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.Ternary):
            if self._truthy(self._eval(expr.condition, env)):
                return self._eval(expr.if_true, env)
            return self._eval(expr.if_false, env)
        if isinstance(expr, ast.Index):
            pointer, elem = self._index_pointer(expr, env)
            return self._load(pointer, elem)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.IndirectCall):
            callee = self._eval(expr.callee, env)
            args = [self._eval(argument, env) for argument in expr.args]
            return self._call_value(callee, args, node=expr)
        if isinstance(expr, ast.Member):
            return self._load_member(expr, env)
        if isinstance(expr, ast.Cast):
            value = self._eval(expr.operand, env)
            if expr.type.is_pointer and isinstance(value, TypedPointer):
                return self._retype_pointer(value, expr.type, node=expr)
            if expr.type.is_pointer and isinstance(value, int) and value == 0:
                return NULL_POINTER
            if isinstance(value, FunctionRef):
                return value
            return _truncate(value, expr.type)
        if isinstance(expr, ast.SizeOf):
            if expr.type.is_pointer:
                return 4
            if expr.type.is_struct:
                return self._layout(expr.type.struct_name, node=expr).size
            return expr.type.scalar_size
        raise self._error(f"unsupported expression {type(expr).__name__}", expr)

    def _string_literal(self, data: bytes) -> TypedPointer:
        if data not in self._string_cache:
            pointer = self.ctx.alloc_c_string(data, name="string-literal")
            self._string_cache[data] = TypedPointer(pointer, 1)
        return self._string_cache[data]

    # -- lvalues and memory ------------------------------------------------------------

    def _index_pointer(self, expr: ast.Index, env: Dict[str, VarSlot]) -> tuple:
        base = self._eval(expr.base, env)
        if not isinstance(base, TypedPointer):
            raise self._error("cannot index a non-pointer value", expr)
        index = self._eval(expr.index, env)
        if isinstance(index, (TypedPointer, FunctionRef)):
            raise self._error("array index must be an integer", expr)
        return base.offset_by(int(index)), base.elem_size

    def _member_access(self, expr: ast.Member, env: Dict[str, VarSlot]) -> tuple:
        """Resolve ``base.name`` / ``base->name`` to (address, field type, field size)."""
        base = self._eval(expr.base, env)
        operator = "->" if expr.arrow else "."
        if not isinstance(base, TypedPointer):
            raise self._error(f"{operator}{expr.name} applied to a non-struct value", expr)
        if base.is_null:
            raise self._error(f"null pointer in {operator}{expr.name}", expr)
        if base.ctype is None or not base.ctype.is_struct:
            raise self._error(
                f"{operator}{expr.name} needs a struct-typed pointer "
                "(cast or declare the struct type first)",
                expr,
            )
        layout = self._layout(base.ctype.struct_name, node=expr)
        if expr.name not in layout.fields:
            raise self._error(f"struct {layout.name!r} has no field {expr.name!r}", expr)
        offset, ftype, fsize = layout.fields[expr.name]
        return base.pointer + offset, ftype, fsize

    def _load_member(self, expr: ast.Member, env: Dict[str, VarSlot]) -> Value:
        address, ftype, fsize = self._member_access(expr, env)
        mem = self.ctx.mem
        if ftype.is_pointer or ftype.base == "funcptr":
            raw = mem.read_int(address, size=4, signed=False)
            return self._decode_ref(raw, ftype)
        if fsize == 1:
            return _truncate(mem.read_byte(address), ftype)
        return mem.read_int(address, size=fsize, signed=ftype.base != "unsigned int")

    def _store_member(self, expr: ast.Member, env: Dict[str, VarSlot], value: Value) -> Value:
        address, ftype, fsize = self._member_access(expr, env)
        mem = self.ctx.mem
        if ftype.is_pointer or ftype.base == "funcptr":
            if ftype.is_pointer:
                value = self._retype_pointer(value, ftype, node=expr)
            raw = self._encode_ref(value, node=expr)
            mem.write_int(address, raw, size=4, signed=False)
            return value
        if isinstance(value, (TypedPointer, FunctionRef)):
            raise self._error("cannot store a pointer into a scalar struct field", expr)
        stored = _truncate(int(value), ftype)
        if fsize == 1:
            mem.write_byte(address, int(stored) & 0xFF)
        else:
            mem.write_int(address, int(stored) & 0xFFFFFFFF, size=fsize, signed=False)
        return stored

    def _load(self, pointer: TypedPointer, elem_size: int) -> int:
        if elem_size == 1:
            return self.ctx.mem.read_byte(pointer.pointer)
        return self.ctx.mem.read_int(pointer.pointer, size=elem_size, signed=True)

    def _store(self, pointer: TypedPointer, elem_size: int, value: Value) -> None:
        if isinstance(value, TypedPointer):
            raise MiniCRuntimeError("storing pointers into simulated memory is not supported")
        if elem_size == 1:
            self.ctx.mem.write_byte(pointer.pointer, int(value) & 0xFF)
        else:
            self.ctx.mem.write_int(pointer.pointer, int(value), size=elem_size, signed=True)

    def _assign_to(self, target: ast.Expr, env: Dict[str, VarSlot], value: Value) -> Value:
        if isinstance(target, ast.Identifier):
            slot = self._lookup(target.name, env, node=target)
            slot.value = _truncate(self._retype_pointer(value, slot.type, node=target), slot.type)
            return slot.value
        if isinstance(target, ast.Unary) and target.op == "*":
            pointer = self._eval(target.operand, env)
            if not isinstance(pointer, TypedPointer):
                raise self._error("cannot dereference a non-pointer value", target)
            self._store(pointer, pointer.elem_size, value)
            return value
        if isinstance(target, ast.Index):
            pointer, elem = self._index_pointer(target, env)
            self._store(pointer, elem, value)
            return value
        if isinstance(target, ast.Member):
            return self._store_member(target, env, value)
        raise self._error(f"unsupported assignment target {type(target).__name__}", target)

    def _read_lvalue(self, target: ast.Expr, env: Dict[str, VarSlot]) -> Value:
        if isinstance(target, ast.Identifier):
            return self._lookup(target.name, env, node=target).value
        if isinstance(target, ast.Unary) and target.op == "*":
            pointer = self._eval(target.operand, env)
            if not isinstance(pointer, TypedPointer):
                raise self._error("cannot dereference a non-pointer value", target)
            return self._load(pointer, pointer.elem_size)
        if isinstance(target, ast.Index):
            pointer, elem = self._index_pointer(target, env)
            return self._load(pointer, elem)
        if isinstance(target, ast.Member):
            return self._load_member(target, env)
        raise self._error(f"unsupported lvalue {type(target).__name__}", target)

    # -- operators -----------------------------------------------------------------------

    def _eval_assign(self, expr: ast.Assign, env: Dict[str, VarSlot]) -> Value:
        if expr.op == "":
            value = self._eval(expr.value, env)
            return self._assign_to(expr.target, env, value)
        current = self._read_lvalue(expr.target, env)
        operand = self._eval(expr.value, env)
        combined = self._apply_binary(expr.op, current, operand, node=expr)
        return self._assign_to(expr.target, env, combined)

    def _eval_incdec(self, expr: ast.IncDec, env: Dict[str, VarSlot]) -> Value:
        current = self._read_lvalue(expr.target, env)
        delta = 1 if expr.op == "++" else -1
        if isinstance(current, TypedPointer):
            updated: Value = current.offset_by(delta)
        else:
            updated = current + delta
        self._assign_to(expr.target, env, updated)
        return current if expr.postfix else updated

    def _eval_unary(self, expr: ast.Unary, env: Dict[str, VarSlot]) -> Value:
        if expr.op == "*":
            pointer = self._eval(expr.operand, env)
            if isinstance(pointer, FunctionRef):
                # ``*fp`` on a function pointer is the function itself.
                return pointer
            if not isinstance(pointer, TypedPointer):
                raise self._error("cannot dereference a non-pointer value", expr)
            return self._load(pointer, pointer.elem_size)
        if expr.op == "&":
            raise self._error(
                "the address-of operator is not supported by the mini-C subset", expr
            )
        value = self._eval(expr.operand, env)
        if isinstance(value, FunctionRef):
            if expr.op == "!":
                return 0
            raise self._error(f"unary {expr.op!r} is not defined for function pointers", expr)
        if isinstance(value, TypedPointer):
            if expr.op == "!":
                return 1 if value.is_null else 0
            raise self._error(f"unary {expr.op!r} is not defined for pointers", expr)
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return 0 if value else 1
        if expr.op == "~":
            return ~value
        raise MiniCRuntimeError(f"unsupported unary operator {expr.op!r}")

    def _eval_binary(self, expr: ast.Binary, env: Dict[str, VarSlot]) -> Value:
        if expr.op == "&&":
            left = self._eval(expr.left, env)
            if not self._truthy(left):
                return 0
            return 1 if self._truthy(self._eval(expr.right, env)) else 0
        if expr.op == "||":
            left = self._eval(expr.left, env)
            if self._truthy(left):
                return 1
            return 1 if self._truthy(self._eval(expr.right, env)) else 0
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        return self._apply_binary(expr.op, left, right, node=expr)

    def _apply_binary(self, op: str, left: Value, right: Value, node=None) -> Value:
        if isinstance(left, FunctionRef) or isinstance(right, FunctionRef):
            if op in ("==", "!="):
                equal = left == right
                return (1 if equal else 0) if op == "==" else (0 if equal else 1)
            raise self._error(f"operator {op!r} is not defined for function pointers", node)
        left_is_ptr = isinstance(left, TypedPointer)
        right_is_ptr = isinstance(right, TypedPointer)
        if left_is_ptr or right_is_ptr:
            return self._pointer_binary(op, left, right, node=node)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise self._error("integer division by zero", node)
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
        if op == "%":
            if right == 0:
                raise self._error("integer modulo by zero", node)
            return left - right * ((abs(left) // abs(right)) if (left >= 0) == (right >= 0) else -(abs(left) // abs(right)))
        if op == "<<":
            return left << right
        if op == ">>":
            return left >> right
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == ">=":
            return 1 if left >= right else 0
        raise self._error(f"unsupported binary operator {op!r}", node)

    def _pointer_binary(self, op: str, left: Value, right: Value, node=None) -> Value:
        if op == "+":
            if isinstance(left, TypedPointer) and not isinstance(right, TypedPointer):
                return left.offset_by(int(right))
            if isinstance(right, TypedPointer) and not isinstance(left, TypedPointer):
                return right.offset_by(int(left))
        if op == "-":
            if isinstance(left, TypedPointer) and isinstance(right, TypedPointer):
                return (left.pointer - right.pointer) // left.elem_size
            if isinstance(left, TypedPointer):
                return left.offset_by(-int(right))
        if op in ("==", "!=", "<", "<=", ">", ">="):
            left_addr = left.pointer.address if isinstance(left, TypedPointer) else int(left)
            right_addr = right.pointer.address if isinstance(right, TypedPointer) else int(right)
            return self._apply_binary(op, left_addr, right_addr, node=node)
        raise self._error(f"unsupported pointer operation {op!r}", node)

    # -- calls ----------------------------------------------------------------------------

    def _eval_call(self, expr: ast.Call, env: Dict[str, VarSlot]) -> Value:
        args = [self._eval(argument, env) for argument in expr.args]
        slot = self._find_slot(expr.name, env)
        if slot is not None and (
            isinstance(slot.value, FunctionRef) or slot.type.base == "funcptr"
        ):
            # A function-pointer variable called by name: ``cmp(a, b)``.
            return self._call_value(slot.value, args, node=expr)
        if expr.name in BUILTINS:
            return BUILTINS[expr.name](self, args)
        try:
            function = self.unit.function(expr.name)
        except KeyError:
            raise self._error(f"call to undefined function {expr.name!r}", expr) from None
        return self.call(function.name, *args)

    def _call_value(self, callee: Value, args: List[Value], node=None) -> Value:
        """Dispatch a call through a computed (function-pointer) callee."""
        if not isinstance(callee, FunctionRef):
            raise self._error("call through a non-function value", node)
        if callee.name in BUILTINS and not any(
            f.name == callee.name for f in self.unit.functions
        ):
            return BUILTINS[callee.name](self, args)
        try:
            function = self.unit.function(callee.name)
        except KeyError:
            raise self._error(f"call to undefined function {callee.name!r}", node) from None
        return self.call(function.name, *args)


class Program:
    """A parsed program that can be instantiated against any build variant."""

    def __init__(self, unit: ast.TranslationUnit, source: str = "") -> None:
        self.unit = unit
        self.source = source

    def instantiate(
        self,
        policy: Optional[AccessPolicy] = None,
        ctx: Optional[MemoryContext] = None,
    ) -> ProgramInstance:
        """Bind the program to a policy (the "choose a compiler" step)."""
        context = ctx if ctx is not None else MemoryContext(policy)
        return ProgramInstance(self.unit, context)

    def function_names(self) -> List[str]:
        """Names of the functions defined by the program."""
        return [function.name for function in self.unit.functions]
