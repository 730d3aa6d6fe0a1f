"""Mini-C execution over the simulated memory substrate, compiled to closures.

Design notes
------------
* A :class:`Program` compiles each function body once, when it is built,
  into nested Python closures, one per AST node.  Everything static is
  resolved then: node kinds and operators, declared slot types and their C
  conversion rule, element sizes and struct layouts, call targets (program
  function or builtin) and the preconditions of lowered statements.  At run
  time only values are dynamic.  Every closure takes ``(instance, frame)``
  and captures no instance or memory context, so one Program serves every
  server, clone and restart that runs its source.
* Scalar and pointer variables live in interpreter-side slots (a call's
  ``frame`` maps local names to slots; globals live on the instance);
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
  budget, read from :data:`LOOP_LIMIT` when each loop starts, so a
  failure-oblivious run whose manufactured values never satisfy a loop
  condition surfaces as :class:`~repro.errors.InfiniteLoopGuard` instead of
  hanging the test suite.
* Runtime errors are raised where the program reaches them, never while
  compiling: a struct layout that cannot be resolved compiles to a closure
  that raises the same positioned :class:`MiniCRuntimeError` when run.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.policy import AccessPolicy
from repro.errors import InfiniteLoopGuard, MiniCError, frozen_record
from repro.memory import cstring
from repro.memory.context import MemoryContext
from repro.memory.data_unit import NULL_UNIT
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


@dataclass(slots=True)
class VarSlot:
    """One variable: the current value and the declared type."""

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


def _truthy(value: Value) -> bool:
    if isinstance(value, TypedPointer):
        return not value.is_null
    if isinstance(value, FunctionRef):
        return True
    return value != 0


def _apply_binary(op: str, left: Value, right: Value, node=None) -> Value:
    """``left op right`` for any operand values, with C's rules."""
    if isinstance(left, FunctionRef) or isinstance(right, FunctionRef):
        if op in ("==", "!="):
            equal = left == right
            return (1 if equal else 0) if op == "==" else (0 if equal else 1)
        raise MiniCRuntimeError(
            f"{_position_prefix(node)}operator {op!r} is not defined for function pointers"
        )
    if isinstance(left, TypedPointer) or isinstance(right, TypedPointer):
        return _pointer_binary(op, left, right, node)
    int_op = _INT_OPS.get(op)
    if int_op is not None:
        return int_op(left, right)
    compare = _COMPARISONS.get(op)
    if compare is not None:
        return 1 if compare(left, right) else 0
    if op == "/":
        if right == 0:
            raise MiniCRuntimeError(f"{_position_prefix(node)}integer division by zero")
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    if op == "%":
        if right == 0:
            raise MiniCRuntimeError(f"{_position_prefix(node)}integer modulo by zero")
        quotient = abs(left) // abs(right)
        return left - right * (quotient if (left >= 0) == (right >= 0) else -quotient)
    raise MiniCRuntimeError(f"{_position_prefix(node)}unsupported binary operator {op!r}")


def _pointer_binary(op: str, left: Value, right: Value, node=None) -> Value:
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
    if op in _COMPARISONS:
        left_addr = left.pointer.address if isinstance(left, TypedPointer) else int(left)
        right_addr = right.pointer.address if isinstance(right, TypedPointer) else int(right)
        return _apply_binary(op, left_addr, right_addr, node=node)
    raise MiniCRuntimeError(f"{_position_prefix(node)}unsupported pointer operation {op!r}")


def _unary(op: str, value: Value, node) -> Value:
    """``op value`` for the value operators (``-``, ``!``, ``~``)."""
    if isinstance(value, FunctionRef):
        if op == "!":
            return 0
        raise MiniCRuntimeError(
            f"{_position_prefix(node)}unary {op!r} is not defined for function pointers"
        )
    if isinstance(value, TypedPointer):
        if op == "!":
            return 1 if value.is_null else 0
        raise MiniCRuntimeError(
            f"{_position_prefix(node)}unary {op!r} is not defined for pointers"
        )
    if op == "-":
        return -value
    if op == "!":
        return 0 if value else 1
    if op == "~":
        return ~value
    raise MiniCRuntimeError(f"unsupported unary operator {op!r}")


def _store(instance: "ProgramInstance", address: FatPointer, elem_size: int, value: Value) -> None:
    if isinstance(value, TypedPointer):
        raise MiniCRuntimeError("storing pointers into simulated memory is not supported")
    if elem_size == 1:
        instance.ctx.mem.write_byte(address, int(value) & 0xFF)
    else:
        instance.ctx.mem.write_int(address, int(value), size=elem_size, signed=True)


def _raiser(message: str) -> Callable:
    """A closure raising ``MiniCRuntimeError(message)`` whenever it runs."""

    def fail(*_args):
        raise MiniCRuntimeError(message)

    return fail


def _noop(instance, frame) -> None:
    return None


_COMPARISONS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_INT_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "&": operator.and_,
    "|": operator.or_, "^": operator.xor, "<<": operator.lshift, ">>": operator.rshift,
}

#: A compiled expression or statement: ``closure(instance, frame)``.
Closure = Callable[["ProgramInstance", Dict[str, VarSlot]], Value]


@dataclass(frozen=True)
class StructLayout:
    """Packed byte layout of one struct: total size plus per-field placement."""

    name: str
    size: int
    #: field name -> (byte offset, declared type, stored size in bytes)
    fields: Dict[str, Tuple[int, ast.CType, int]]


def _declarations(statement: ast.Stmt):
    """Every local declaration under ``statement``, lowered originals included."""
    if isinstance(statement, ast.Declaration):
        yield statement
    elif isinstance(statement, ast.Block):
        for inner in statement.statements:
            yield from _declarations(inner)
    elif isinstance(statement, ast.If):
        yield from _declarations(statement.then_branch)
        if statement.else_branch is not None:
            yield from _declarations(statement.else_branch)
    elif isinstance(statement, (ast.While, ast.For)):
        yield from _declarations(statement.body)
    elif getattr(statement, "original", None) is not None:
        yield from _declarations(statement.original)


def _declared_slot_type(declaration: ast.Declaration) -> ast.CType:
    """The type a declaration's slot carries."""
    if declaration.array_size is not None:
        return ast.CType(declaration.type.base, 1)
    return declaration.type


class _Function:
    """One compiled program function."""

    __slots__ = ("name", "params", "run")

    def __init__(self, definition: ast.FunctionDef) -> None:
        self.name = definition.name
        #: (name, declared type, conversion) per parameter.
        self.params: List[Tuple[str, ast.CType, Callable]] = []
        #: ``run(instance, frame)`` executes the body and returns its value.
        self.run: Callable = _noop

    def invoke(self, instance: "ProgramInstance", args: List[Value]) -> Value:
        """Call with already-evaluated mini-C values (a call from mini-C code)."""
        params = self.params
        if len(args) != len(params):
            raise MiniCRuntimeError(
                f"{self.name} expects {len(params)} argument(s), got {len(args)}"
            )
        frame: Dict[str, VarSlot] = {}
        for (name, ctype, convert), value in zip(params, args):
            frame[name] = VarSlot(convert(value, None), ctype)
        return self.run(instance, frame)


class _Compiler:
    """Turns one translation unit into closures; kept by its :class:`Program`.

    Struct layouts and per-type conversion rules are resolved once and cached
    here, so closures that meet a type only at run time (a global's slot, a
    struct pointer's ``ctype``) look it up instead of recomputing it.
    """

    def __init__(self, unit: ast.TranslationUnit) -> None:
        self.unit = unit
        self._layouts: Dict[str, Union[StructLayout, str]] = {}
        self._conversions: Dict[ast.CType, Callable] = {}
        self.functions: Dict[str, _Function] = {}
        for definition in unit.functions:
            # The first definition of a name is the one calls reach.
            self.functions.setdefault(definition.name, _Function(definition))
        self.function_names = set(BUILTINS) | set(self.functions)
        self.global_names = {declaration.name for declaration in unit.globals}
        self._params: set = set()
        self._locals: set = set()
        self._slot_types: Dict[str, Optional[ast.CType]] = {}
        self.global_inits = [self._global_init(declaration) for declaration in unit.globals]
        for definition in unit.functions:
            function = self.functions[definition.name]
            if function.run is _noop:
                self._compile_function(definition, function)

    # -- types --------------------------------------------------------------------

    def layout(self, name: str) -> Union[StructLayout, str]:
        """The packed layout of ``struct name``, or the error message that
        resolving it raises (without a position: the use site adds it)."""
        cached = self._layouts.get(name)
        if cached is not None:
            return cached
        try:
            definition = self.unit.struct(name)
        except KeyError:
            result: Union[StructLayout, str] = f"unknown struct {name!r}"
        else:
            result = self._pack(name, definition)
        self._layouts[name] = result
        return result

    @staticmethod
    def _pack(name: str, definition: ast.StructDef) -> Union[StructLayout, str]:
        fields: Dict[str, Tuple[int, ast.CType, int]] = {}
        offset = 0
        for field_def in definition.fields:
            ftype = field_def.type
            if ftype.is_pointer or ftype.base == "funcptr":
                size = 4
            elif ftype.is_struct:
                return (
                    f"by-value struct field {field_def.name!r} in struct {name!r} "
                    "is not supported (use a pointer field)"
                )
            else:
                size = ftype.scalar_size
            fields[field_def.name] = (offset, ftype, size)
            offset += size
        return StructLayout(name=name, size=max(offset, 1), fields=fields)

    def type_size(self, ctype: ast.CType) -> Union[int, str]:
        """Size in bytes of a value of ``ctype`` in memory, or a layout error."""
        if ctype.is_pointer or ctype.base == "funcptr":
            return 4
        if ctype.is_struct:
            layout = self.layout(ctype.struct_name)
            return layout if isinstance(layout, str) else layout.size
        return ctype.scalar_size

    def conversion(self, ctype: ast.CType) -> Callable:
        """``convert(value, node)``: storing ``value`` into a ``ctype`` slot.

        For a pointer type this re-views a pointer through the declared
        pointee (C pointer conversions change the element stride and give
        ``p->field`` its layout); for any other type it applies C's integer
        conversion.  ``node`` positions a layout error.
        """
        rule = self._conversions.get(ctype)
        if rule is None:
            rule = self._conversions[ctype] = self._make_conversion(ctype)
        return rule

    def _make_conversion(self, ctype: ast.CType) -> Callable:
        if ctype.is_pointer:
            pointee = ctype.pointee()
            size = self.type_size(pointee)
            if isinstance(size, str):
                message = size

                def fail_non_null(value, node):
                    if isinstance(value, TypedPointer) and value.pointer.referent is not NULL_UNIT:
                        raise MiniCRuntimeError(_position_prefix(node) + message)
                    return value

                return fail_non_null
            struct_type = (
                ast.CType(pointee.base, 0) if pointee.is_struct and not pointee.is_pointer else None
            )

            def retype(value, node):
                if isinstance(value, TypedPointer):
                    pointer = value.pointer
                    if pointer.referent is NULL_UNIT or (
                        value.elem_size == size and value.ctype == struct_type
                    ):
                        return value
                    return TypedPointer(pointer, size, struct_type)
                return value

            return retype
        base = ctype.base
        if base == "funcptr":
            return lambda value, node: value
        if base == "char":
            def to_char(value, node):
                if isinstance(value, (TypedPointer, FunctionRef)):
                    return value
                value &= 0xFF
                return value - 256 if value >= 128 else value

            return to_char
        mask = {"unsigned char": 0xFF, "unsigned int": 0xFFFFFFFF}.get(base)
        if mask is not None:
            def to_unsigned(value, node):
                if isinstance(value, (TypedPointer, FunctionRef)):
                    return value
                return value & mask

            return to_unsigned

        def to_int(value, node):
            if isinstance(value, (TypedPointer, FunctionRef)):
                return value
            value &= 0xFFFFFFFF
            return value - 4294967296 if value >= 2147483648 else value

        return to_int

    # -- scopes -------------------------------------------------------------------

    def _enter(self, definition: Optional[ast.FunctionDef]) -> None:
        """Record which names a function's frame can hold, and with which type.

        A parameter is always in the frame; a name declared in the body is in
        it once its declaration has run, and resolves to the global before.
        A name whose every declaration agrees on a slot type gets that one
        type object, so a closure recognizes a frame slot by identity.
        """
        self._params = set()
        self._locals = set()
        types: Dict[str, List[ast.CType]] = {}
        if definition is not None:
            for parameter in definition.parameters:
                self._params.add(parameter.name)
                types.setdefault(parameter.name, []).append(parameter.type)
            for declaration in _declarations(definition.body):
                self._locals.add(declaration.name)
                types.setdefault(declaration.name, []).append(_declared_slot_type(declaration))
        self._slot_types = {
            name: (found[0] if all(ctype == found[0] for ctype in found) else None)
            for name, found in types.items()
        }

    def _slot_type(self, declaration: ast.Declaration) -> ast.CType:
        declared = _declared_slot_type(declaration)
        canonical = self._slot_types.get(declaration.name)
        return canonical if canonical is not None and canonical == declared else declared

    def find_slot(self, name: str) -> Closure:
        """``find(instance, frame)``: the variable's slot, or None."""
        if name in self._params:
            return lambda instance, frame: frame[name]
        if name in self._locals:
            def find_local(instance, frame):
                slot = frame.get(name)
                return slot if slot is not None else instance.globals.get(name)

            return find_local
        return lambda instance, frame: instance.globals.get(name)

    def lookup(self, name: str, node) -> Closure:
        """``lookup(instance, frame)``: the variable's slot; raises if undefined."""
        message = f"{_position_prefix(node)}undefined variable {name!r}"
        if name in self._params:
            return lambda instance, frame: frame[name]
        if name in self._locals:
            def lookup_local(instance, frame):
                slot = frame.get(name)
                if slot is None:
                    slot = instance.globals.get(name)
                    if slot is None:
                        raise MiniCRuntimeError(message)
                return slot

            return lookup_local

        def lookup_global(instance, frame):
            slot = instance.globals.get(name)
            if slot is None:
                raise MiniCRuntimeError(message)
            return slot

        return lookup_global

    def storer(self, name: str, node) -> Callable:
        """``store(slot, value)``: convert ``value`` to the slot's type and
        store it; returns the stored value."""
        static_type = self._slot_types.get(name)
        static_convert = self.conversion(static_type) if static_type is not None else None
        conversion = self.conversion

        def store(slot, value):
            ctype = slot.type
            convert = static_convert if ctype is static_type else conversion(ctype)
            slot.value = value = convert(value, node)
            return value

        return store

    # -- functions and globals ---------------------------------------------------------

    def _compile_function(self, definition: ast.FunctionDef, function: _Function) -> None:
        self._enter(definition)
        function.params = [
            (parameter.name, parameter.type, self.conversion(parameter.type))
            for parameter in definition.parameters
        ]
        body = self.stmt(definition.body)

        def run(instance, frame):
            try:
                body(instance, frame)
            except _ReturnSignal as signal:
                return signal.value
            except _GotoSignal as signal:
                raise MiniCRuntimeError(f"goto to unknown label {signal.label!r}") from None
            return 0

        function.run = run

    def _global_init(self, declaration: ast.GlobalVar) -> Callable:
        """``init(instance)``: evaluate one global and add its slot."""
        self._enter(None)
        name = declaration.name
        declared = declaration.type
        widened = ast.CType(declared.base, max(declared.pointer_depth, 1))
        if declaration.initializer is not None:
            initializer = self.expr(declaration.initializer)
            retype = self.conversion(declared) if declared.is_pointer else None

            def init_value(instance):
                value = initializer(instance, {})
                return retype(value, declaration) if retype is not None else value

        elif declaration.array_size is not None:
            size_of = self.expr(declaration.array_size)
            elem_type = ast.CType(declared.base, declared.pointer_depth)
            elem = self.type_size(elem_type)
            ctype = elem_type if elem_type.is_struct else None
            unit_name = f"global:{name}"

            def init_value(instance):
                size = size_of(instance, {})
                if isinstance(elem, str):
                    raise MiniCRuntimeError(_position_prefix(declaration) + elem)
                ctx = instance.ctx
                unit = ctx.heap.malloc(int(size) * elem, name=unit_name)
                ctx.mem.zero_unit(unit)
                return TypedPointer(FatPointer(unit), elem, ctype)

        else:
            default = NULL_POINTER if declared.is_pointer else 0

            def init_value(instance):
                return default

        is_array = declaration.array_size is not None

        def init(instance):
            value = init_value(instance)
            slot_type = widened if is_array or isinstance(value, TypedPointer) else declared
            instance.globals[name] = VarSlot(value=value, type=slot_type)

        return init

    # -- statements ----------------------------------------------------------------------

    def stmt(self, node: ast.Stmt) -> Closure:
        handler = self._STATEMENTS.get(type(node))
        if handler is None:  # pragma: no cover - parser cannot produce other nodes
            return _raiser(f"unsupported statement {type(node).__name__}")
        return handler(self, node)

    def _block(self, node: ast.Block) -> Closure:
        statements = node.statements
        compiled = tuple(self.stmt(statement) for statement in statements)
        labels: Dict[str, int] = {}
        for position, statement in enumerate(statements):
            if isinstance(statement, ast.Label):
                labels.setdefault(statement.name, position)
        if not labels:
            # A goto can only land in a list that holds its label, so a
            # list without labels lets every goto pass through.
            if not compiled:
                return _noop
            if len(compiled) == 1:
                return compiled[0]

            def block(instance, frame):
                for statement in compiled:
                    statement(instance, frame)

            return block
        count = len(compiled)

        def block_with_labels(instance, frame):
            index = 0
            while index < count:
                try:
                    compiled[index](instance, frame)
                except _GotoSignal as signal:
                    target = labels.get(signal.label)
                    if target is None:
                        raise
                    index = target
                    continue
                index += 1

        return block_with_labels

    def _declaration(self, node: ast.Declaration) -> Closure:
        name = node.name
        declared = node.type
        slot_type = self._slot_type(node)
        prefix = _position_prefix(node)
        if node.array_size is not None:
            size_of = self.expr(node.array_size)
            elem_type = ast.CType(declared.base, declared.pointer_depth)
            elem = self.type_size(elem_type)
            ctype = elem_type if elem_type.is_struct else None

            def declare_array(instance, frame):
                length = int(size_of(instance, frame))
                if isinstance(elem, str):
                    raise MiniCRuntimeError(prefix + elem)
                ctx = instance.ctx
                size = max(length * elem, 1)
                unit = ctx.stack.alloc_local(name, size) \
                    if ctx.stack.depth else ctx.heap.malloc(size, name=name)
                frame[name] = VarSlot(TypedPointer(FatPointer(unit), elem, ctype), slot_type)

            return declare_array
        if declared.is_struct and not declared.is_pointer:
            # A by-value struct local: storage lives in simulated memory and
            # the slot holds a struct-typed pointer to it, so ``a.field``
            # resolves the layout and ``a`` decays where a pointer is needed.
            layout = self.layout(declared.struct_name)

            def declare_struct(instance, frame):
                if isinstance(layout, str):
                    raise MiniCRuntimeError(prefix + layout)
                ctx = instance.ctx
                unit = ctx.stack.alloc_local(name, layout.size) \
                    if ctx.stack.depth else ctx.heap.malloc(layout.size, name=name)
                ctx.mem.zero_unit(unit)
                frame[name] = VarSlot(TypedPointer(FatPointer(unit), layout.size, declared),
                                      slot_type)

            return declare_struct
        if node.initializer is not None:
            initializer = self.expr(node.initializer)
            convert = self.conversion(declared)

            def declare_initialized(instance, frame):
                frame[name] = VarSlot(convert(initializer(instance, frame), node), slot_type)

            return declare_initialized
        default = NULL_POINTER if declared.is_pointer else 0

        def declare(instance, frame):
            frame[name] = VarSlot(default, slot_type)

        return declare

    def _expr_statement(self, node: ast.ExprStatement) -> Closure:
        return self.expr(node.expr)

    def _if(self, node: ast.If) -> Closure:
        condition = self.cond(node.condition)
        then_branch = self.stmt(node.then_branch)
        if node.else_branch is None:
            def if_then(instance, frame):
                if condition(instance, frame):
                    then_branch(instance, frame)

            return if_then
        else_branch = self.stmt(node.else_branch)

        def if_else(instance, frame):
            if condition(instance, frame):
                then_branch(instance, frame)
            else:
                else_branch(instance, frame)

        return if_else

    def _while(self, node: ast.While) -> Closure:
        condition = self.cond(node.condition)
        body = self.stmt(node.body)

        def while_loop(instance, frame):
            limit = LOOP_LIMIT
            iterations = 0
            while condition(instance, frame):
                iterations += 1
                if iterations > limit:
                    raise InfiniteLoopGuard("while loop exceeded its iteration budget")
                try:
                    body(instance, frame)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue

        return while_loop

    def _for(self, node: ast.For) -> Closure:
        init = self.expr(node.init) if node.init is not None else None
        condition = self.cond(node.condition) if node.condition is not None else None
        step = self.expr(node.step) if node.step is not None else None
        body = self.stmt(node.body)

        def for_loop(instance, frame):
            if init is not None:
                init(instance, frame)
            limit = LOOP_LIMIT
            iterations = 0
            while condition is None or condition(instance, frame):
                iterations += 1
                if iterations > limit:
                    raise InfiniteLoopGuard("for loop exceeded its iteration budget")
                try:
                    body(instance, frame)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if step is not None:
                    step(instance, frame)

        return for_loop

    def _return(self, node: ast.Return) -> Closure:
        if node.value is None:
            def return_zero(instance, frame):
                raise _ReturnSignal(0)

            return return_zero
        value = self.expr(node.value)

        def return_value(instance, frame):
            raise _ReturnSignal(value(instance, frame))

        return return_value

    def _break(self, node: ast.Break) -> Closure:
        def break_loop(instance, frame):
            raise _BreakSignal()

        return break_loop

    def _continue(self, node: ast.Continue) -> Closure:
        def continue_loop(instance, frame):
            raise _ContinueSignal()

        return continue_loop

    def _goto(self, node: ast.Goto) -> Closure:
        label = node.label

        def goto(instance, frame):
            raise _GotoSignal(label)

        return goto

    def _nothing(self, node) -> Closure:
        return _noop

    # -- lowered span operations ---------------------------------------------------------
    #
    # Each lowered statement checks its runtime preconditions (the matched
    # variables actually hold byte pointers / integers) and otherwise runs its
    # compiled ``original`` loop, so lowering can never change meaning — only
    # batch the policy decisions.  Guard semantics match the per-byte loops
    # byte for byte: the span paths consume exactly LOOP_LIMIT + 1 elements
    # before raising the same InfiniteLoopGuard the per-byte loop would.

    def _byte_pointer_slot(self, name: str) -> Closure:
        find = self.find_slot(name)

        def byte_pointer_slot(instance, frame):
            slot = find(instance, frame)
            if slot is None or not isinstance(slot.value, TypedPointer) or slot.value.elem_size != 1:
                return None
            return slot

        return byte_pointer_slot

    def _fill_value(self, expr: Optional[ast.Expr]) -> Closure:
        if expr is None:
            return lambda instance, frame: None
        value_of = self.expr(expr)

        def fill_value(instance, frame):
            value = value_of(instance, frame)
            return value if isinstance(value, int) else None

        return fill_value

    def _lowered_scan(self, node: ast.LoweredScan) -> Closure:
        pointer_slot = self._byte_pointer_slot(node.pointer)
        original = self.stmt(node.original)

        def lowered_scan(instance, frame):
            slot = pointer_slot(instance, frame)
            if slot is None:
                original(instance, frame)
                return
            pointer: TypedPointer = slot.value
            try:
                length = cstring.strlen(instance.ctx.mem, pointer.pointer, limit=LOOP_LIMIT)
            except InfiniteLoopGuard:
                raise InfiniteLoopGuard("while loop exceeded its iteration budget") from None
            slot.value = pointer.offset_by(length)

        return lowered_scan

    def _lowered_scan_consume(self, node: ast.LoweredScanConsume) -> Closure:
        pointer_slot = self._byte_pointer_slot(node.pointer)
        var_slot_of = self.find_slot(node.var)
        original = self.stmt(node.original)
        conversion = self.conversion

        def lowered_scan_consume(instance, frame):
            slot = pointer_slot(instance, frame)
            var_slot = var_slot_of(instance, frame)
            if slot is None or var_slot is None:
                original(instance, frame)
                return
            pointer: TypedPointer = slot.value
            try:
                length = cstring.strlen(instance.ctx.mem, pointer.pointer, limit=LOOP_LIMIT)
            except InfiniteLoopGuard:
                raise InfiniteLoopGuard("while loop exceeded its iteration budget") from None
            slot.value = pointer.offset_by(length + 1)
            var_slot.value = conversion(var_slot.type)(0, None)

        return lowered_scan_consume

    def _lowered_copy(self, node: ast.LoweredCopy) -> Closure:
        dst_slot_of = self._byte_pointer_slot(node.dst)
        src_slot_of = self._byte_pointer_slot(node.src)
        original = self.stmt(node.original)

        def lowered_copy(instance, frame):
            dst_slot = dst_slot_of(instance, frame)
            src_slot = src_slot_of(instance, frame)
            if dst_slot is None or src_slot is None:
                original(instance, frame)
                return
            dst: TypedPointer = dst_slot.value
            src: TypedPointer = src_slot.value
            try:
                copied = cstring.copy_c_string(
                    instance.ctx.mem, dst.pointer, src.pointer, limit=LOOP_LIMIT
                )
            except InfiniteLoopGuard:
                raise InfiniteLoopGuard("while loop exceeded its iteration budget") from None
            dst_slot.value = dst.offset_by(copied)
            src_slot.value = src.offset_by(copied)

        return lowered_copy

    @staticmethod
    def _fill_span(instance, pointer: TypedPointer, value: int, count: int) -> None:
        """Write ``count`` copies of one byte, one policy decision per span/run."""
        if count <= 0:
            return
        cstring.write_bytes(instance.ctx.mem, pointer.pointer, bytes([value & 0xFF]) * count)

    def _lowered_fill_while(self, node: ast.LoweredFillWhile) -> Closure:
        counter_slot_of = self.find_slot(node.counter)
        pointer_slot_of = self._byte_pointer_slot(node.pointer)
        fill_value = self._fill_value(node.value)
        original = self.stmt(node.original)
        fill_span = self._fill_span
        conversion = self.conversion

        def lowered_fill_while(instance, frame):
            counter_slot = counter_slot_of(instance, frame)
            pointer_slot = pointer_slot_of(instance, frame)
            fill = fill_value(instance, frame)
            if (
                counter_slot is None
                or pointer_slot is None
                or fill is None
                or not isinstance(counter_slot.value, int)
            ):
                original(instance, frame)
                return
            count = counter_slot.value
            pointer: TypedPointer = pointer_slot.value
            limit = LOOP_LIMIT
            # A negative (or budget-exceeding) counter stays truthy through the
            # whole budget: the loop writes LOOP_LIMIT bytes, then the guard fires.
            runaway = count < 0 or count > limit
            written = limit if runaway else count
            fill_span(instance, pointer, fill, written)
            if runaway:
                raise InfiniteLoopGuard("while loop exceeded its iteration budget")
            counter_slot.value = conversion(counter_slot.type)(-1, None)
            pointer_slot.value = pointer.offset_by(written)

        return lowered_fill_while

    def _lowered_fill_for(self, node: ast.LoweredFillFor) -> Closure:
        index_slot_of = self.find_slot(node.index)
        pointer_slot_of = self._byte_pointer_slot(node.pointer)
        fill_value = self._fill_value(node.value)
        limit_value = self._fill_value(node.limit)
        original = self.stmt(node.original)
        fill_span = self._fill_span
        conversion = self.conversion

        def lowered_fill_for(instance, frame):
            index_slot = index_slot_of(instance, frame)
            pointer_slot = pointer_slot_of(instance, frame)
            fill = fill_value(instance, frame)
            limit = limit_value(instance, frame)
            if index_slot is None or pointer_slot is None or fill is None or limit is None:
                original(instance, frame)
                return
            pointer: TypedPointer = pointer_slot.value
            budget = LOOP_LIMIT
            runaway = limit > budget
            written = budget if runaway else max(limit, 0)
            fill_span(instance, pointer, fill, written)
            if runaway:
                raise InfiniteLoopGuard("for loop exceeded its iteration budget")
            index_slot.value = conversion(index_slot.type)(max(limit, 0), None)

        return lowered_fill_for

    _STATEMENTS = {
        ast.Block: _block,
        ast.Declaration: _declaration,
        ast.ExprStatement: _expr_statement,
        ast.If: _if,
        ast.While: _while,
        ast.For: _for,
        ast.Return: _return,
        ast.Break: _break,
        ast.Continue: _continue,
        ast.Goto: _goto,
        ast.Label: _nothing,
        ast.Empty: _nothing,
        ast.LoweredScan: _lowered_scan,
        ast.LoweredScanConsume: _lowered_scan_consume,
        ast.LoweredCopy: _lowered_copy,
        ast.LoweredFillWhile: _lowered_fill_while,
        ast.LoweredFillFor: _lowered_fill_for,
    }

    # -- expressions -------------------------------------------------------------------

    def expr(self, node: ast.Expr) -> Closure:
        handler = self._EXPRESSIONS.get(type(node))
        if handler is None:
            return _raiser(
                f"{_position_prefix(node)}unsupported expression {type(node).__name__}"
            )
        return handler(self, node)

    def cond(self, node: ast.Expr) -> Closure:
        """Like :meth:`expr`, but the closure returns the value's C truth."""
        if isinstance(node, ast.Binary):
            if node.op == "&&":
                left, right = self.cond(node.left), self.cond(node.right)
                return lambda instance, frame: left(instance, frame) and right(instance, frame)
            if node.op == "||":
                left, right = self.cond(node.left), self.cond(node.right)
                return lambda instance, frame: left(instance, frame) or right(instance, frame)
            if node.op in _COMPARISONS:
                return self._comparison(node, as_int=False)
        if isinstance(node, ast.Unary) and node.op == "!":
            operand = self.cond(node.operand)
            return lambda instance, frame: not operand(instance, frame)
        value_of = self.expr(node)

        def truth(instance, frame):
            value = value_of(instance, frame)
            if type(value) is int:
                return value != 0
            return _truthy(value)

        return truth

    def _int_literal(self, node: ast.IntLiteral) -> Closure:
        value = node.value
        return lambda instance, frame: value

    def _string_literal(self, node: ast.StringLiteral) -> Closure:
        data = node.value

        def string_literal(instance, frame):
            cache = instance._string_cache
            pointer = cache.get(data)
            if pointer is None:
                pointer = TypedPointer(instance.ctx.alloc_c_string(data, name="string-literal"), 1)
                cache[data] = pointer
            return pointer

        return string_literal

    def _identifier(self, node: ast.Identifier) -> Closure:
        name = node.name
        if name in self._params:
            return lambda instance, frame: frame[name].value
        if name in self.function_names:
            # A bare function name evaluates to a function-pointer value.
            reference = FunctionRef(name)

            def missing():
                return reference
        else:
            message = f"{_position_prefix(node)}undefined variable {name!r}"

            def missing():
                raise MiniCRuntimeError(message)

        if name in self._locals:
            def read_local(instance, frame):
                slot = frame.get(name)
                if slot is None:
                    slot = instance.globals.get(name)
                    if slot is None:
                        return missing()
                return slot.value

            return read_local

        def read_global(instance, frame):
            slot = instance.globals.get(name)
            if slot is None:
                return missing()
            return slot.value

        return read_global

    def _comma(self, node: ast.Comma) -> Closure:
        parts = tuple(self.expr(part) for part in node.parts)

        def comma(instance, frame):
            result: Value = 0
            for part in parts:
                result = part(instance, frame)
            return result

        return comma

    def _assign(self, node: ast.Assign) -> Closure:
        value_of = self.expr(node.value)
        assign_to = self.assigner(node.target)
        if node.op == "":
            return lambda instance, frame: assign_to(instance, frame, value_of(instance, frame))
        read = self.lvalue(node.target)
        op = node.op

        def compound_assign(instance, frame):
            current = read(instance, frame)
            combined = _apply_binary(op, current, value_of(instance, frame), node)
            return assign_to(instance, frame, combined)

        return compound_assign

    def _incdec(self, node: ast.IncDec) -> Closure:
        delta = 1 if node.op == "++" else -1
        postfix = node.postfix
        target = node.target
        if isinstance(target, ast.Identifier):
            # Reading and storing the variable find the same slot, so one
            # lookup serves both.
            lookup = self.lookup(target.name, target)
            store = self.storer(target.name, target)

            def incdec_variable(instance, frame):
                slot = lookup(instance, frame)
                current = slot.value
                if isinstance(current, TypedPointer):
                    pointer = current.pointer
                    elem_size = current.elem_size
                    updated: Value = TypedPointer(
                        FatPointer(pointer.referent, pointer.offset + delta * elem_size),
                        elem_size, current.ctype,
                    )
                else:
                    updated = current + delta
                store(slot, updated)
                return current if postfix else updated

            return incdec_variable
        read = self.lvalue(target)
        assign_to = self.assigner(target)

        def incdec(instance, frame):
            current = read(instance, frame)
            if isinstance(current, TypedPointer):
                updated: Value = current.offset_by(delta)
            else:
                updated = current + delta
            assign_to(instance, frame, updated)
            return current if postfix else updated

        return incdec

    def _unary(self, node: ast.Unary) -> Closure:
        op = node.op
        if op == "*":
            operand = self.expr(node.operand)
            message = f"{_position_prefix(node)}cannot dereference a non-pointer value"

            def dereference(instance, frame):
                pointer = operand(instance, frame)
                if isinstance(pointer, TypedPointer):
                    if pointer.elem_size == 1:
                        return instance.ctx.mem.read_byte(pointer.pointer)
                    return instance.ctx.mem.read_int(
                        pointer.pointer, size=pointer.elem_size, signed=True
                    )
                if isinstance(pointer, FunctionRef):
                    # ``*fp`` on a function pointer is the function itself.
                    return pointer
                raise MiniCRuntimeError(message)

            return dereference
        if op == "&":
            return _raiser(
                f"{_position_prefix(node)}the address-of operator is not supported "
                "by the mini-C subset"
            )
        operand = self.expr(node.operand)
        if op == "-":
            def negate(instance, frame):
                value = operand(instance, frame)
                return -value if type(value) is int else _unary(op, value, node)

            return negate
        return lambda instance, frame: _unary(op, operand(instance, frame), node)

    def _comparison(self, node: ast.Binary, as_int: bool) -> Closure:
        """``left op right`` for a comparison; ``as_int`` gives 1/0, else bool."""
        op = node.op
        compare = _COMPARISONS[op]
        left = self.expr(node.left)
        if isinstance(node.right, ast.IntLiteral):
            constant = node.right.value

            def compare_constant(instance, frame):
                value = left(instance, frame)
                if type(value) is int:
                    result = compare(value, constant)
                else:
                    result = _apply_binary(op, value, constant, node) != 0
                return (1 if result else 0) if as_int else result

            return compare_constant
        right = self.expr(node.right)

        def compare_values(instance, frame):
            a = left(instance, frame)
            b = right(instance, frame)
            if type(a) is int and type(b) is int:
                result = compare(a, b)
            elif type(a) is TypedPointer and type(b) is TypedPointer:
                pa = a.pointer
                pb = b.pointer
                result = compare(pa.referent.base + pa.offset, pb.referent.base + pb.offset)
            else:
                result = _apply_binary(op, a, b, node) != 0
            return (1 if result else 0) if as_int else result

        return compare_values

    def _binary(self, node: ast.Binary) -> Closure:
        op = node.op
        if op == "&&" or op == "||":
            truth = self.cond(node)
            return lambda instance, frame: 1 if truth(instance, frame) else 0
        if op in _COMPARISONS:
            return self._comparison(node, as_int=True)
        left = self.expr(node.left)
        right = self.expr(node.right)
        int_op = _INT_OPS.get(op)
        if int_op is None:
            return lambda instance, frame: _apply_binary(
                op, left(instance, frame), right(instance, frame), node
            )

        def binary(instance, frame):
            a = left(instance, frame)
            b = right(instance, frame)
            if type(a) is int and type(b) is int:
                return int_op(a, b)
            return _apply_binary(op, a, b, node)

        return binary

    def _ternary(self, node: ast.Ternary) -> Closure:
        condition = self.cond(node.condition)
        if_true = self.expr(node.if_true)
        if_false = self.expr(node.if_false)
        return lambda instance, frame: (
            if_true(instance, frame) if condition(instance, frame) else if_false(instance, frame)
        )

    def _element(self, node: ast.Index) -> Closure:
        """``element(instance, frame)``: (address, element size) of ``base[index]``."""
        base_of = self.expr(node.base)
        index_of = self.expr(node.index)
        prefix = _position_prefix(node)

        def element(instance, frame):
            base = base_of(instance, frame)
            if not isinstance(base, TypedPointer):
                raise MiniCRuntimeError(prefix + "cannot index a non-pointer value")
            index = index_of(instance, frame)
            if isinstance(index, (TypedPointer, FunctionRef)):
                raise MiniCRuntimeError(prefix + "array index must be an integer")
            elem_size = base.elem_size
            pointer = base.pointer
            return (FatPointer(pointer.referent, pointer.offset + int(index) * elem_size),
                    elem_size)

        return element

    def _index(self, node: ast.Index) -> Closure:
        element = self._element(node)

        def load_element(instance, frame):
            address, elem_size = element(instance, frame)
            if elem_size == 1:
                return instance.ctx.mem.read_byte(address)
            return instance.ctx.mem.read_int(address, size=elem_size, signed=True)

        return load_element

    def _call(self, node: ast.Call) -> Closure:
        name = node.name
        args_of = tuple(self.expr(argument) for argument in node.args)
        call_target = self._call_target(name, node)
        if name in self._params or name in self._locals or name in self.global_names:
            find = self.find_slot(name)
            call_value = self._call_value(node)

            def call_variable_or_function(instance, frame):
                args = [argument(instance, frame) for argument in args_of]
                slot = find(instance, frame)
                if slot is not None and (
                    isinstance(slot.value, FunctionRef) or slot.type.base == "funcptr"
                ):
                    # A function-pointer variable called by name: ``cmp(a, b)``.
                    return call_value(instance, slot.value, args)
                return call_target(instance, args)

            return call_variable_or_function
        return lambda instance, frame: call_target(
            instance, [argument(instance, frame) for argument in args_of]
        )

    def _call_target(self, name: str, node) -> Callable:
        """``target(instance, args)`` for a call by name.  A program-defined
        function wins over a builtin of the same name."""
        function = self.functions.get(name)
        if function is not None:
            return function.invoke
        builtin = BUILTINS.get(name)
        if builtin is not None:
            return builtin
        return _raiser(f"{_position_prefix(node)}call to undefined function {name!r}")

    def _call_value(self, node) -> Callable:
        """``call(instance, callee, args)`` through a computed callee."""
        functions = self.functions
        prefix = _position_prefix(node)

        def call_value(instance, callee, args):
            if not isinstance(callee, FunctionRef):
                raise MiniCRuntimeError(prefix + "call through a non-function value")
            function = functions.get(callee.name)
            if function is not None:
                return function.invoke(instance, args)
            builtin = BUILTINS.get(callee.name)
            if builtin is not None:
                return builtin(instance, args)
            raise MiniCRuntimeError(f"{prefix}call to undefined function {callee.name!r}")

        return call_value

    def _indirect_call(self, node: ast.IndirectCall) -> Closure:
        callee_of = self.expr(node.callee)
        args_of = tuple(self.expr(argument) for argument in node.args)
        call_value = self._call_value(node)

        def indirect_call(instance, frame):
            callee = callee_of(instance, frame)
            return call_value(instance, callee, [argument(instance, frame) for argument in args_of])

        return indirect_call

    def _field(self, node: ast.Member) -> Closure:
        """``field(instance, frame)``: (address, field type, field size) of
        ``base.name`` / ``base->name``, with the field resolved once per
        struct type the base pointer carries."""
        base_of = self.expr(node.base)
        name = node.name
        operator_text = "->" if node.arrow else "."
        prefix = _position_prefix(node)
        needs_struct = (
            f"{prefix}{operator_text}{name} needs a struct-typed pointer "
            "(cast or declare the struct type first)"
        )
        resolved: Dict[str, Union[Tuple[int, ast.CType, int], str]] = {}

        def resolve(ctype: ast.CType):
            if not ctype.is_struct:
                return needs_struct
            layout = self.layout(ctype.struct_name)
            if isinstance(layout, str):
                return prefix + layout
            if name not in layout.fields:
                return f"{prefix}struct {layout.name!r} has no field {name!r}"
            return layout.fields[name]

        def field(instance, frame):
            base = base_of(instance, frame)
            if not isinstance(base, TypedPointer):
                raise MiniCRuntimeError(
                    f"{prefix}{operator_text}{name} applied to a non-struct value"
                )
            pointer = base.pointer
            if pointer.referent is NULL_UNIT:
                raise MiniCRuntimeError(f"{prefix}null pointer in {operator_text}{name}")
            ctype = base.ctype
            if ctype is None:
                raise MiniCRuntimeError(needs_struct)
            found = resolved.get(ctype.base)
            if found is None:
                found = resolved[ctype.base] = resolve(ctype)
            if isinstance(found, str):
                raise MiniCRuntimeError(found)
            offset, ftype, fsize = found
            return FatPointer(pointer.referent, pointer.offset + offset), ftype, fsize

        return field

    def _member(self, node: ast.Member) -> Closure:
        field = self._field(node)
        conversion = self.conversion

        def load_member(instance, frame):
            address, ftype, fsize = field(instance, frame)
            mem = instance.ctx.mem
            if ftype.is_pointer or ftype.base == "funcptr":
                raw = mem.read_int(address, size=4, signed=False)
                value = instance._handles.get(raw & 0xFFFFFFFF)
                return NULL_POINTER if value is None else value
            if fsize == 1:
                return conversion(ftype)(mem.read_byte(address), node)
            return mem.read_int(address, size=fsize, signed=ftype.base != "unsigned int")

        return load_member

    def _store_member(self, node: ast.Member) -> Callable:
        field = self._field(node)
        conversion = self.conversion
        scalar_pointer = (
            f"{_position_prefix(node)}cannot store a pointer into a scalar struct field"
        )

        def store_member(instance, frame, value):
            address, ftype, fsize = field(instance, frame)
            mem = instance.ctx.mem
            if ftype.is_pointer or ftype.base == "funcptr":
                if ftype.is_pointer:
                    value = conversion(ftype)(value, node)
                raw = instance._encode_ref(value, node=node)
                mem.write_int(address, raw, size=4, signed=False)
                return value
            if isinstance(value, (TypedPointer, FunctionRef)):
                raise MiniCRuntimeError(scalar_pointer)
            stored = conversion(ftype)(int(value), node)
            if fsize == 1:
                mem.write_byte(address, int(stored) & 0xFF)
            else:
                mem.write_int(address, int(stored) & 0xFFFFFFFF, size=fsize, signed=False)
            return stored

        return store_member

    def _cast(self, node: ast.Cast) -> Closure:
        operand = self.expr(node.operand)
        convert = self.conversion(node.type)
        if node.type.is_pointer:
            def cast_pointer(instance, frame):
                value = operand(instance, frame)
                if isinstance(value, TypedPointer):
                    return convert(value, node)
                if isinstance(value, int) and value == 0:
                    return NULL_POINTER
                return value

            return cast_pointer
        return lambda instance, frame: convert(operand(instance, frame), node)

    def _sizeof(self, node: ast.SizeOf) -> Closure:
        ctype = node.type
        if ctype.is_pointer:
            size: Union[int, str] = 4
        elif ctype.is_struct:
            layout = self.layout(ctype.struct_name)
            size = layout if isinstance(layout, str) else layout.size
        else:
            size = ctype.scalar_size
        if isinstance(size, str):
            return _raiser(_position_prefix(node) + size)
        return lambda instance, frame: size

    _EXPRESSIONS = {
        ast.IntLiteral: _int_literal,
        ast.StringLiteral: _string_literal,
        ast.Identifier: _identifier,
        ast.Comma: _comma,
        ast.Assign: _assign,
        ast.IncDec: _incdec,
        ast.Unary: _unary,
        ast.Binary: _binary,
        ast.Ternary: _ternary,
        ast.Index: _index,
        ast.Call: _call,
        ast.IndirectCall: _indirect_call,
        ast.Member: _member,
        ast.Cast: _cast,
        ast.SizeOf: _sizeof,
    }

    # -- lvalues -------------------------------------------------------------------------

    def assigner(self, target: ast.Expr) -> Callable:
        """``assign(instance, frame, value)``: store into ``target``; returns
        the assignment's value."""
        if isinstance(target, ast.Identifier):
            lookup = self.lookup(target.name, target)
            store = self.storer(target.name, target)
            return lambda instance, frame, value: store(lookup(instance, frame), value)
        if isinstance(target, ast.Unary) and target.op == "*":
            operand = self.expr(target.operand)
            message = f"{_position_prefix(target)}cannot dereference a non-pointer value"

            def store_through(instance, frame, value):
                pointer = operand(instance, frame)
                if not isinstance(pointer, TypedPointer):
                    raise MiniCRuntimeError(message)
                _store(instance, pointer.pointer, pointer.elem_size, value)
                return value

            return store_through
        if isinstance(target, ast.Index):
            element = self._element(target)

            def store_element(instance, frame, value):
                address, elem_size = element(instance, frame)
                _store(instance, address, elem_size, value)
                return value

            return store_element
        if isinstance(target, ast.Member):
            return self._store_member(target)
        return _raiser(
            f"{_position_prefix(target)}unsupported assignment target {type(target).__name__}"
        )

    def lvalue(self, target: ast.Expr) -> Closure:
        """``read(instance, frame)``: the current value of an assignable ``target``."""
        if isinstance(target, ast.Identifier):
            lookup = self.lookup(target.name, target)
            return lambda instance, frame: lookup(instance, frame).value
        if isinstance(target, ast.Unary) and target.op == "*":
            operand = self.expr(target.operand)
            message = f"{_position_prefix(target)}cannot dereference a non-pointer value"

            def load_through(instance, frame):
                pointer = operand(instance, frame)
                if not isinstance(pointer, TypedPointer):
                    raise MiniCRuntimeError(message)
                if pointer.elem_size == 1:
                    return instance.ctx.mem.read_byte(pointer.pointer)
                return instance.ctx.mem.read_int(
                    pointer.pointer, size=pointer.elem_size, signed=True
                )

            return load_through
        if isinstance(target, (ast.Index, ast.Member)):
            return self.expr(target)
        return _raiser(f"{_position_prefix(target)}unsupported lvalue {type(target).__name__}")


class ProgramInstance:
    """One program bound to one memory context (one "compiled" process image)."""

    def __init__(self, program: "Program", ctx: MemoryContext) -> None:
        self.program = program
        self.ctx = ctx
        self.globals: Dict[str, VarSlot] = {}
        #: Bytes emitted by the ``putchar``/``puts`` builtins, for tests.
        self.output = bytearray()
        self._string_cache: Dict[bytes, TypedPointer] = {}
        # Pointer-handle registry: struct pointer/funcptr fields are stored in
        # simulated memory as opaque 4-byte handles into this table.
        self._handles: Dict[int, Value] = {}
        self._handle_ids: Dict[Value, int] = {}
        self._next_handle = _HANDLE_BASE
        for init in program._global_inits:
            init(self)

    @property
    def unit(self) -> ast.TranslationUnit:
        return self.program.unit

    @unit.setter
    def unit(self, unit: ast.TranslationUnit) -> None:
        # An instance rebuilt without ``__init__`` (a thawed process image)
        # names its translation unit; it runs that unit's compiled Program.
        self.program = Program.for_unit(unit)

    # -- pointer handles -----------------------------------------------------------

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

    # -- strings --------------------------------------------------------------------

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
        through.  When the call returns, the argument strings the program
        can no longer reach are freed (:meth:`_free_arguments`).  A call
        that raises frees nothing: its heap may be corrupt.
        """
        function = self.program._functions.get(name)
        if function is None:
            raise KeyError(f"no function named {name!r}")
        params = function.params
        if len(args) != len(params):
            raise MiniCRuntimeError(
                f"{name} expects {len(params)} argument(s), got {len(args)}"
            )
        frame: Dict[str, VarSlot] = {}
        strings: List[TypedPointer] = []
        for (parameter, ctype, convert), raw in zip(params, args):
            value: Value
            if isinstance(raw, bytes):
                value = self.alloc_string(raw, name=f"arg:{parameter}")
                strings.append(value)
            elif isinstance(raw, FatPointer):
                value = convert(TypedPointer(raw, 1), None)
            else:
                value = convert(raw, None)
            frame[parameter] = VarSlot(value=value, type=ctype)
        first_handle = self._next_handle
        result = function.run(self, frame)
        if strings:
            self._free_arguments(strings, result, first_handle)
        return result

    def _free_arguments(
        self, strings: List[TypedPointer], result: Value, first_handle: int
    ) -> None:
        """Free the argument strings of a returned call that nothing reaches.

        A pointer outlives a call only as its return value, in a global, or
        stored into memory as a pointer handle; a handle minted before the
        call cannot name a string the call allocated.  An argument any of
        those point into stays allocated (``abook_add`` keeps its strings
        in the list it builds), and so does one the program freed itself.
        """
        kept = [result, *(slot.value for slot in self.globals.values())]
        kept.extend(self._handles[handle]
                    for handle in range(first_handle, self._next_handle))
        retained = {id(value.pointer.referent) for value in kept
                    if isinstance(value, TypedPointer)}
        for string in strings:
            unit = string.pointer.referent
            if unit.alive and id(unit) not in retained:
                self.ctx.free(string.pointer)


#: The live Program compiled for each translation unit, by ``id(unit)``.  A
#: Program holds its unit, so a unit's id cannot be reused while its entry
#: lives.
_PROGRAMS: "weakref.WeakValueDictionary[int, Program]" = weakref.WeakValueDictionary()


class Program:
    """A parsed program, compiled once, that can be instantiated against any
    build variant."""

    def __init__(self, unit: ast.TranslationUnit, source: str = "") -> None:
        self.unit = unit
        self.source = source
        compiler = _Compiler(unit)
        self._functions: Dict[str, _Function] = compiler.functions
        self._global_inits: List[Callable] = compiler.global_inits
        _PROGRAMS[id(unit)] = self

    @classmethod
    def for_unit(cls, unit: ast.TranslationUnit) -> "Program":
        """The Program compiled for ``unit``, compiling one if none is alive."""
        program = _PROGRAMS.get(id(unit))
        if program is None or program.unit is not unit:
            program = cls(unit)
        return program

    def instantiate(
        self,
        policy: Optional[AccessPolicy] = None,
        ctx: Optional[MemoryContext] = None,
    ) -> ProgramInstance:
        """Bind the program to a policy (the "choose a compiler" step)."""
        context = ctx if ctx is not None else MemoryContext(policy)
        return ProgramInstance(self, context)

    def function_names(self) -> List[str]:
        """Names of the functions defined by the program."""
        return [function.name for function in self.unit.functions]
